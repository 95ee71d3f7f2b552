//! A tiny, dependency-free reader for the slice of `Cargo.toml` the
//! lint rules need: the package name and the set of features a crate
//! declares (explicit `[features]` keys plus implicit features from
//! optional dependencies).

use std::collections::BTreeSet;

/// The lint-relevant facts about one crate manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `package.name`.
    pub name: String,
    /// Feature names `#[cfg(feature = "…")]` may legally reference:
    /// `[features]` keys and optional dependency names.
    pub features: BTreeSet<String>,
}

/// Parses the subset of TOML this lint needs. Line-based on purpose: it
/// handles the manifests in this workspace (and anything `cargo fmt`-style
/// formatted), not arbitrary TOML.
pub fn parse(toml: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for raw in toml.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        if section == "package" && key == "name" {
            m.name = value.trim_matches('"').to_string();
        } else if section == "features" {
            m.features.insert(key.to_string());
        } else if section.ends_with("dependencies") && value.contains("optional") {
            // `foo = { version = "...", optional = true }` declares an
            // implicit `foo` feature unless every reference uses `dep:`;
            // accepting it unconditionally only makes the lint lenient.
            if value.contains("optional = true") {
                m.features.insert(key.to_string());
            }
        }
    }
    m
}

/// Drops a `# comment` unless the `#` sits inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_name_features_and_optional_deps() {
        let m = parse(
            r#"
[package]
name = "ccq-core" # trailing comment

[dependencies]
wide = { workspace = true, optional = true }
serde.workspace = true

[features]
default = ["simd"]
# a comment line
simd = ["dep:wide"]
fault-inject = []
"#,
        );
        assert_eq!(m.name, "ccq-core");
        for f in ["default", "simd", "fault-inject", "wide"] {
            assert!(m.features.contains(f), "missing {f}");
        }
        assert!(!m.features.contains("serde"));
    }
}
