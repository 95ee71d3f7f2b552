//! The policy enumeration that CCQ is agnostic over.

use std::fmt;
use std::str::FromStr;

/// A quantization policy the CCQ framework can wrap.
///
/// The framework is *policy-agnostic* (paper §III): any of these can drive
/// the per-layer fake-quantization while CCQ decides *which layer* and *how
/// many bits*.
///
/// # Example
///
/// ```
/// use ccq_quant::PolicyKind;
///
/// let p: PolicyKind = "pact".parse()?;
/// assert_eq!(p, PolicyKind::Pact);
/// assert_eq!(p.to_string(), "PACT");
/// # Ok::<(), ccq_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// DoReFa-Net: tanh-normalized weights, `[0,1]`-clipped activations.
    Dorefa,
    /// WRPN: `[-1,1]`-clipped weights, `[0,1]`-clipped activations.
    Wrpn,
    /// PACT: learned activation clipping `α`, DoReFa-style weights.
    Pact,
    /// PACT+SAWB: statistics-aware symmetric weight clip, PACT activations.
    Sawb,
    /// Static uniform affine (min/max) quantization.
    UniformAffine,
    /// Symmetric max-abs scaling.
    MaxAbs,
    /// ACIQ analytic clipping (Banner et al., 2018): MSE-optimal clip from
    /// a Gaussian/Laplace distribution match. Static, no retraining.
    Aciq,
    /// LSQ (Esser et al., 2019): the quantizer step size is a learnable
    /// parameter trained by backpropagation.
    Lsq,
}

impl PolicyKind {
    /// All policies, for sweeps and table harnesses.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Dorefa,
        PolicyKind::Wrpn,
        PolicyKind::Pact,
        PolicyKind::Sawb,
        PolicyKind::UniformAffine,
        PolicyKind::MaxAbs,
        PolicyKind::Aciq,
        PolicyKind::Lsq,
    ];

    /// Whether this policy carries a learnable activation clip `α`.
    pub fn has_learnable_alpha(&self) -> bool {
        matches!(self, PolicyKind::Pact | PolicyKind::Sawb)
    }

    /// Whether this policy carries learnable quantizer step sizes (LSQ).
    pub fn has_learnable_steps(&self) -> bool {
        matches!(self, PolicyKind::Lsq)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PolicyKind::Dorefa => "DoReFa",
            PolicyKind::Wrpn => "WRPN",
            PolicyKind::Pact => "PACT",
            PolicyKind::Sawb => "PACT-SAWB",
            PolicyKind::UniformAffine => "UniformAffine",
            PolicyKind::MaxAbs => "MaxAbs",
            PolicyKind::Aciq => "ACIQ",
            PolicyKind::Lsq => "LSQ",
        };
        f.pad(name)
    }
}

impl FromStr for PolicyKind {
    type Err = crate::QuantError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "dorefa" | "dorefa-net" => Ok(PolicyKind::Dorefa),
            "wrpn" => Ok(PolicyKind::Wrpn),
            "pact" => Ok(PolicyKind::Pact),
            "sawb" | "pact-sawb" => Ok(PolicyKind::Sawb),
            "uniform" | "affine" | "uniformaffine" => Ok(PolicyKind::UniformAffine),
            "maxabs" | "max-abs" => Ok(PolicyKind::MaxAbs),
            "aciq" => Ok(PolicyKind::Aciq),
            "lsq" => Ok(PolicyKind::Lsq),
            other => Err(crate::QuantError::InvalidParameter(format!(
                "unknown policy '{other}'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_all() {
        for p in PolicyKind::ALL {
            let parsed: PolicyKind = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
        }
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!("hawq".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn learnable_alpha_flags() {
        assert!(PolicyKind::Pact.has_learnable_alpha());
        assert!(PolicyKind::Sawb.has_learnable_alpha());
        assert!(!PolicyKind::Dorefa.has_learnable_alpha());
        assert!(!PolicyKind::UniformAffine.has_learnable_alpha());
    }
}
