//! Error type for the packed-inference layer.

use ccq_nn::NnError;
use ccq_tensor::codec::{CodecError, FileError};
use std::fmt;

/// Errors surfaced by packing, the `CCQPACK` wire format, and artifact
/// application.
#[derive(Debug)]
pub enum InferError {
    /// Malformed, truncated, or version-skewed artifact bytes.
    PackFormat(String),
    /// A filesystem operation on an artifact failed.
    PackIo(String),
    /// The artifact does not match the target network (wrong layer
    /// count, label, or tensor shape).
    Mismatch(String),
    /// The underlying network rejected an operation.
    Net(NnError),
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::PackFormat(msg) => write!(f, "malformed packed artifact: {msg}"),
            InferError::PackIo(msg) => write!(f, "packed artifact I/O error: {msg}"),
            InferError::Mismatch(msg) => write!(f, "artifact/network mismatch: {msg}"),
            InferError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for InferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InferError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for InferError {
    fn from(e: NnError) -> Self {
        InferError::Net(e)
    }
}

/// The only binary format this crate decodes is CCQPACK.
impl From<CodecError> for InferError {
    fn from(e: CodecError) -> Self {
        InferError::PackFormat(e.to_string())
    }
}

impl From<FileError> for InferError {
    fn from(e: FileError) -> Self {
        InferError::PackIo(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InferError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_chains() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InferError>();
        use std::error::Error;
        let e = InferError::Net(NnError::InvalidConfig("x".into()));
        assert!(e.source().is_some());
        assert!(InferError::PackFormat("bad".into())
            .to_string()
            .contains("malformed"));
    }
}
