//! Quantization policies for quantization-aware training.
//!
//! This crate implements the quantization policies the CCQ paper builds on,
//! each from the equations in its original publication:
//!
//! - [`PolicyKind::Dorefa`] — DoReFa-Net (Zhou et al., 2016): tanh-normalized
//!   weights, `[0, 1]`-clipped activations.
//! - [`PolicyKind::Wrpn`] — WRPN (Mishra et al., 2017): `[-1, 1]`-clipped
//!   weights with one sign bit, `[0, 1]`-clipped activations.
//! - [`PolicyKind::Pact`] — PACT (Choi et al., 2018): *learned* activation
//!   clipping value `α` per layer, DoReFa-style weights.
//! - [`PolicyKind::Sawb`] — PACT+SAWB (Choi et al., 2018b): statistics-aware
//!   weight binning, symmetric weight clip from first/second moments.
//! - [`PolicyKind::UniformAffine`] — classic min/max affine quantization
//!   (static, post-training style).
//! - [`PolicyKind::MaxAbs`] — symmetric max-abs scaling.
//!
//! All quantizers are *fake-quant*: they return `f32` tensors whose values
//! lie on the quantized grid, which is what quantization-aware training
//! operates on. Backward passes use the straight-through estimator (STE),
//! optionally masked at clip boundaries (see [`LayerQuant::weight_grad_mask`]).
//!
//! # Example
//!
//! ```
//! use ccq_quant::{BitWidth, LayerQuant, PolicyKind, QuantSpec};
//! use ccq_tensor::Tensor;
//!
//! let spec = QuantSpec::new(PolicyKind::Pact, BitWidth::new(4)?, BitWidth::new(4)?);
//! let mut lq = LayerQuant::new(spec);
//! let w = Tensor::from_vec(vec![0.9, -0.3, 0.05, -1.2], &[4])?;
//! let wq = lq.quantize_weights(&w);
//! assert!(wq.max_abs() <= w.max_abs() + 1e-6); // scale-preserving
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bits;
mod error;
pub mod grid;
mod layer;
pub mod policies;
mod policy;
mod stats;
mod wire;

pub use bits::{BitLadder, BitWidth};
pub use error::QuantError;
pub use grid::{ActCodes, PackedWeights, WeightGrid};
pub use layer::{LayerQuant, QuantSpec};
pub use policy::PolicyKind;
pub use stats::{quantization_mse, quantization_sqnr_db};

/// Crate-wide result alias. See [`QuantError`] for the error cases.
pub type Result<T> = std::result::Result<T, QuantError>;
