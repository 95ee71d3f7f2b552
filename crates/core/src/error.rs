//! Error type for the CCQ framework.

use ccq_nn::NnError;
use ccq_quant::QuantError;
use ccq_tensor::codec::{CodecError, FileError};
use std::fmt;

/// Errors returned by the CCQ framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CcqError {
    /// The underlying network failed (shape mismatch, backward-before-
    /// forward, ...).
    Network(NnError),
    /// A quantization configuration was invalid (bad ladder, bad bits).
    Quant(QuantError),
    /// A framework configuration value failed validation.
    InvalidConfig(String),
    /// The validation set was empty — CCQ's competition cannot probe.
    EmptyValidationSet,
    /// The descent diverged (non-finite loss, weights, or accuracy) and the
    /// guard exhausted its retry budget at this quantization step.
    Diverged {
        /// The quantization step `t` that could not complete.
        step: usize,
        /// Rollback/retry attempts consumed before giving up.
        retries: usize,
    },
    /// Reading or writing run-state/checkpoint files failed at the I/O
    /// layer.
    CheckpointIo(String),
    /// A saved run state cannot resume under the current configuration or
    /// network (architecture, ladder, seed, or granularity differ).
    ResumeMismatch(String),
    /// The descent engine's phase machine reached a state its invariants
    /// forbid — a bug in the driving code, never a configuration problem.
    /// Returned instead of panicking so embedding applications can fail
    /// the run and keep their last good autosave.
    EngineInvariant(&'static str),
    /// The run was canceled by its driver (see
    /// [`crate::RunControl::Cancel`]) before reaching a resumable
    /// boundary. The last autosaved [`crate::RunState`] — when autosave
    /// was configured — is still valid; resuming from it repeats only the
    /// canceled step.
    Canceled {
        /// The quantization step `t` that was in flight.
        step: usize,
    },
}

impl fmt::Display for CcqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcqError::Network(e) => write!(f, "network error: {e}"),
            CcqError::Quant(e) => write!(f, "quantization error: {e}"),
            CcqError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CcqError::EmptyValidationSet => {
                write!(f, "validation set is empty; competition cannot run probes")
            }
            CcqError::Diverged { step, retries } => {
                write!(
                    f,
                    "descent diverged at quantization step {step} after {retries} rollback retries"
                )
            }
            CcqError::CheckpointIo(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CcqError::ResumeMismatch(msg) => write!(f, "cannot resume run state: {msg}"),
            CcqError::EngineInvariant(msg) => write!(f, "engine invariant violated: {msg}"),
            CcqError::Canceled { step } => {
                write!(f, "run canceled by driver at quantization step {step}")
            }
        }
    }
}

impl std::error::Error for CcqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CcqError::Network(e) => Some(e),
            CcqError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for CcqError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::CheckpointIo(msg) => CcqError::CheckpointIo(msg),
            other => CcqError::Network(other),
        }
    }
}

/// The only binary format this crate decodes is CCQRUNS.
impl From<CodecError> for CcqError {
    fn from(e: CodecError) -> Self {
        CcqError::CheckpointIo(format!("malformed run state: {e}"))
    }
}

impl From<FileError> for CcqError {
    fn from(e: FileError) -> Self {
        CcqError::CheckpointIo(e.to_string())
    }
}

impl From<QuantError> for CcqError {
    fn from(e: QuantError) -> Self {
        CcqError::Quant(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CcqError>();
    }

    #[test]
    fn display_chains_sources() {
        use std::error::Error;
        let e = CcqError::from(QuantError::InvalidBitWidth(99));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("99"));
    }
}
