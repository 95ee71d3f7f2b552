//! The divergence guard: what to do when a quantization step blows up.
//!
//! Low-bit quantization steps occasionally destabilize training — a probe
//! or recovery epoch produces a non-finite loss and the poisoned weights
//! would silently corrupt every later step. The engine captures all
//! descent state as a [`crate::RunState`] before each step, detects the
//! blow-up right after the collaboration stage, and applies a
//! [`GuardPolicy`].

/// What the runner does when a quantization step diverges (non-finite
/// training loss, validation accuracy, or network weights after the
/// collaboration stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardPolicy {
    /// No guard: the seed behavior. Divergence propagates into later
    /// steps unchecked.
    Off,
    /// Roll every piece of descent state back to the pre-step snapshot,
    /// scale the fine-tuning base learning rate by `lr_factor`, and retry
    /// the same step, up to `max_retries` times. Exhausting the budget
    /// surfaces [`crate::CcqError::Diverged`].
    RollbackRetry {
        /// Retries allowed after the first divergent attempt.
        max_retries: usize,
        /// Multiplier applied to the base LR before each retry (`0.5`
        /// halves it).
        lr_factor: f32,
    },
    /// Roll back and quarantine the offending expert's π slot for this
    /// step only, re-drawing a different winner, up to `max_retries`
    /// times. The quarantined expert competes again at the next step.
    Quarantine {
        /// Retries (re-draws) allowed after the first divergent attempt.
        max_retries: usize,
    },
}

impl Default for GuardPolicy {
    /// Rollback with two retries, halving the learning rate each time.
    fn default() -> Self {
        GuardPolicy::RollbackRetry {
            max_retries: 2,
            lr_factor: 0.5,
        }
    }
}

impl GuardPolicy {
    /// Whether the guard is disabled.
    pub fn is_off(&self) -> bool {
        matches!(self, GuardPolicy::Off)
    }

    /// The retry budget (0 when the guard is off).
    pub fn max_retries(&self) -> usize {
        match *self {
            GuardPolicy::Off => 0,
            GuardPolicy::RollbackRetry { max_retries, .. }
            | GuardPolicy::Quarantine { max_retries } => max_retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_rollback_with_two_retries() {
        let p = GuardPolicy::default();
        assert_eq!(
            p,
            GuardPolicy::RollbackRetry {
                max_retries: 2,
                lr_factor: 0.5
            }
        );
        assert!(!p.is_off());
        assert_eq!(p.max_retries(), 2);
        assert_eq!(GuardPolicy::Off.max_retries(), 0);
    }
}
