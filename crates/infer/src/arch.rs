//! The architecture string stored in a `CCQPACK` artifact.
//!
//! A packed artifact is self-describing: alongside the layer payloads it
//! records a compact architecture string from which
//! [`build`] reconstructs a structurally identical network. The grammar
//! is `<family>:<dims>` with `x`-separated decimal dimensions:
//!
//! | string | network |
//! |---|---|
//! | `mlp:16x48x48x6` | [`ccq_models::mlp`] with those layer dims |
//! | `cnn:10x4` | [`ccq_models::plain_cnn`] (classes × width) |
//! | `resnet20:10x4` | [`ccq_models::resnet20`] (classes × width) |
//! | `resnet18:10x4` | [`ccq_models::resnet18`] (classes × width) |
//! | `resnet50:10x4` | [`ccq_models::resnet50_style`] (classes × width) |
//!
//! The freshly built network's weights, quantization specs, and policy
//! are placeholders — [`crate::PackedModel::apply`] overwrites all of
//! them — so [`build`] leaves every weight zero instead of drawing it.

use crate::{InferError, Result};
use ccq_models::{mlp, plain_cnn, resnet18, resnet20, resnet50_style, ModelConfig};
use ccq_nn::Network;
use ccq_quant::PolicyKind;

/// Placeholder policy for freshly built networks; the artifact's
/// per-layer specs overwrite it on apply.
const PLACEHOLDER: PolicyKind = PolicyKind::Pact;

/// Formats the architecture string for an MLP with the given layer dims.
pub fn mlp_arch(dims: &[usize]) -> String {
    format!("mlp:{}", join_dims(dims))
}

/// Formats the architecture string for a named model family
/// (`"resnet20"`, `"resnet18"`, `"resnet50"`, `"cnn"`).
pub fn model_arch(family: &str, classes: usize, width: usize) -> String {
    format!("{family}:{classes}x{width}")
}

/// Builds the (placeholder-initialized) network an architecture string
/// describes.
///
/// # Errors
///
/// Returns [`InferError::PackFormat`] on an unknown family or malformed
/// dimension list.
pub fn build(arch: &str) -> Result<Network> {
    ccq_tensor::with_placeholder_weights(|| build_structure(arch))
}

fn build_structure(arch: &str) -> Result<Network> {
    let (family, dims_str) = arch
        .split_once(':')
        .ok_or_else(|| bad(arch, "missing ':'"))?;
    let dims = parse_dims(arch, dims_str)?;
    match family {
        "mlp" => {
            if dims.len() < 2 {
                return Err(bad(arch, "an mlp needs at least input and output dims"));
            }
            Ok(mlp(&dims, PLACEHOLDER, 0))
        }
        "cnn" | "resnet20" | "resnet18" | "resnet50" => {
            let [classes, width] = dims[..] else {
                return Err(bad(arch, "expected exactly <classes>x<width>"));
            };
            if classes == 0 || width == 0 {
                return Err(bad(arch, "classes and width must be nonzero"));
            }
            if family == "cnn" {
                return Ok(plain_cnn(classes, width, PLACEHOLDER, 0));
            }
            let cfg = ModelConfig {
                classes,
                width,
                policy: PLACEHOLDER,
                seed: 0,
            };
            Ok(match family {
                "resnet20" => resnet20(&cfg),
                "resnet18" => resnet18(&cfg),
                _ => resnet50_style(&cfg),
            })
        }
        other => Err(bad(arch, &format!("unknown architecture family '{other}'"))),
    }
}

fn join_dims(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

fn parse_dims(arch: &str, s: &str) -> Result<Vec<usize>> {
    s.split('x')
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| bad(arch, &format!("bad dimension '{p}'")))
        })
        .collect()
}

fn bad(arch: &str, why: &str) -> InferError {
    InferError::PackFormat(format!("architecture string '{arch}': {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_family() {
        assert_eq!(build("mlp:4x8x2").unwrap().quant_layer_count(), 2);
        assert!(build("cnn:10x2").unwrap().quant_layer_count() > 0);
        assert_eq!(build("resnet20:10x2").unwrap().quant_layer_count(), 22);
        assert!(build("resnet18:10x2").unwrap().quant_layer_count() > 0);
        assert!(build("resnet50:10x2").unwrap().quant_layer_count() > 0);
    }

    #[test]
    fn arch_strings_round_trip_through_formatters() {
        assert_eq!(mlp_arch(&[4, 8, 2]), "mlp:4x8x2");
        assert_eq!(model_arch("resnet20", 10, 4), "resnet20:10x4");
        build(&mlp_arch(&[4, 8, 2])).unwrap();
        build(&model_arch("resnet20", 10, 2)).unwrap();
    }

    #[test]
    fn rejects_malformed_strings() {
        for s in [
            "mlp",
            "mlp:",
            "mlp:4",
            "mlp:4xhello",
            "resnet20:10",
            "resnet20:10x4x2",
            "resnet20:0x4",
            "transformer:12x768",
        ] {
            assert!(matches!(build(s), Err(InferError::PackFormat(_))), "{s}");
        }
    }
}
