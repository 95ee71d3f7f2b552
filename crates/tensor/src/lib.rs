//! Dense `f32` tensors and the numeric kernels backing the CCQ training stack.
//!
//! This crate is the lowest layer of the CCQ reproduction: a small,
//! dependency-light tensor library sufficient to train convolutional
//! networks on a CPU. Tensors are row-major, contiguous, `f32`-valued and
//! carry a dynamic [`Shape`]. Convolution is implemented via
//! [`ops::im2col`]/[`ops::col2im`] plus [`ops::matmul`].
//!
//! # Example
//!
//! ```
//! use ccq_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ccq_tensor::ops::matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), ccq_tensor::TensorError>(())
//! ```

pub mod codec;
mod error;
mod init;
pub mod ops;
pub mod packed;
pub mod par;
mod shape;
mod tensor;

pub use error::TensorError;
pub use init::{rng, rng_from_state, rng_state, with_placeholder_weights, Init, Rng64};
pub use packed::{packed_byte_len, PackError, PackedInts};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias. See [`TensorError`] for the error cases.
pub type Result<T> = std::result::Result<T, TensorError>;
