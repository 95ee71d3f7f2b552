//! Error type for network construction and execution.

use ccq_tensor::codec::{CodecError, FileError};
use ccq_tensor::TensorError;
use std::fmt;

/// Errors returned by network construction, forward, or backward passes.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor kernel failed (shape/geometry mismatch).
    Tensor(TensorError),
    /// `backward` was called without a preceding `forward` (no cache).
    BackwardBeforeForward(&'static str),
    /// A configuration value failed validation.
    InvalidConfig(String),
    /// The network state being restored does not match the network.
    StateMismatch {
        /// Number of state tensors expected by the network.
        expected: usize,
        /// Number of state tensors supplied.
        actual: usize,
    },
    /// An [`crate::cache::ActivationCache`] was consulted after the
    /// network mutated (or for a different batch set than it was filled
    /// from); the cached boundary activations are no longer valid.
    StaleCache {
        /// Generation recorded when the cache was filled.
        cache_generation: u64,
        /// The network's current generation.
        net_generation: u64,
    },
    /// A packed forward was requested but the packed weights no longer
    /// match the network: the generation advanced since
    /// [`crate::Network::pack_weights`], or (with equal generations) a
    /// quantization spec changed, which the generation deliberately does
    /// not track.
    StalePack {
        /// Generation recorded when the weights were packed.
        packed_generation: u64,
        /// The network's current generation.
        net_generation: u64,
    },
    /// Reading or writing a checkpoint failed at the I/O layer (the
    /// message carries the underlying `std::io::Error` rendering; the
    /// error itself stays `Clone + PartialEq`).
    CheckpointIo(String),
    /// A checkpoint buffer was malformed: bad magic, unsupported version,
    /// truncation, or an implausible section header.
    CheckpointFormat(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BackwardBeforeForward(layer) => {
                write!(f, "backward called before forward on layer '{layer}'")
            }
            NnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NnError::StateMismatch { expected, actual } => {
                write!(
                    f,
                    "network state mismatch: expected {expected} tensors, got {actual}"
                )
            }
            NnError::StaleCache {
                cache_generation,
                net_generation,
            } => write!(
                f,
                "activation cache is stale: filled at generation {cache_generation}, network is at {net_generation}"
            ),
            NnError::StalePack {
                packed_generation,
                net_generation,
            } => write!(
                f,
                "packed weights are stale: packed at generation {packed_generation}, network is at {net_generation} (equal generations indicate a quant-spec change)"
            ),
            NnError::CheckpointIo(msg) => write!(f, "checkpoint I/O error: {msg}"),
            NnError::CheckpointFormat(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

/// The only binary format this crate decodes is CCQCKPT.
impl From<CodecError> for NnError {
    fn from(e: CodecError) -> Self {
        NnError::CheckpointFormat(e.to_string())
    }
}

impl From<FileError> for NnError {
    fn from(e: FileError) -> Self {
        NnError::CheckpointIo(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_tensor_error_with_source() {
        use std::error::Error;
        let e = NnError::from(TensorError::InvalidArgument("x".into()));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("tensor error"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
