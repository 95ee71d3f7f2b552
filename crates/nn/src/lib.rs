//! A layer-graph neural-network training stack with quantization hooks.
//!
//! This crate is the training substrate the CCQ reproduction runs on. It
//! provides:
//!
//! - the [`Layer`] trait with explicit `forward`/`backward` passes (each
//!   layer caches what its own backward needs);
//! - quantization-aware layers [`layers::QConv2d`] and [`layers::QLinear`]
//!   that own a [`ccq_quant::LayerQuant`] and fake-quantize their weights
//!   and inputs on every forward pass (straight-through estimator on the
//!   way back);
//! - [`layers::BatchNorm2d`], [`layers::Relu`], pooling, residual blocks
//!   ([`layers::BasicBlock`], [`layers::Bottleneck`]) and
//!   [`layers::Sequential`];
//! - [`loss::cross_entropy`], the [`Sgd`] optimizer, learning-rate
//!   [`schedule`]s including the paper's hybrid plateau/cosine-restart
//!   schedule, and batched [`train`] helpers;
//! - [`Network::forward_packed`] — inference over packed integer
//!   weights (`ccq-infer` builds and serializes them), either
//!   dequantized or as true `i8×i8→i32` integer execution;
//! - [`checkpoint`] — dependency-free binary save/load of trained
//!   networks including their mixed-precision assignment.
//!
//! # Example
//!
//! ```
//! use ccq_nn::{layers, Mode, Network};
//! use ccq_quant::{PolicyKind, QuantSpec};
//! use ccq_tensor::Tensor;
//!
//! let mut rng = ccq_tensor::rng(0);
//! let net = Network::new(layers::Sequential::new(vec![
//!     Box::new(layers::QLinear::new("fc1", 4, 8, QuantSpec::full_precision(PolicyKind::Pact), &mut rng)),
//!     Box::new(layers::Relu::new()),
//!     Box::new(layers::QLinear::new("fc2", 8, 2, QuantSpec::full_precision(PolicyKind::Pact), &mut rng)),
//! ]));
//! let mut net = net;
//! let x = Tensor::zeros(&[1, 4]);
//! let y = net.forward(&x, Mode::Eval)?;
//! assert_eq!(y.shape(), &[1, 2]);
//! # Ok::<(), ccq_nn::NnError>(())
//! ```

pub mod cache;
pub mod checkpoint;
mod error;
mod layer;
pub mod layers;
pub mod loss;
mod network;
mod optim;
mod param;
pub mod schedule;
pub mod train;

pub use error::NnError;
pub use layer::{Layer, Mode, PackedExec, QuantHandle, StateTag};
pub use network::{Network, NetworkState, PackOutcome, QuantLayerInfo};
pub use optim::Sgd;
pub use param::Param;

/// Crate-wide result alias. See [`NnError`] for the error cases.
pub type Result<T> = std::result::Result<T, NnError>;
