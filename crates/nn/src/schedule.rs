//! Learning-rate schedules, including the paper's hybrid restart schedule.

/// A stateless learning-rate schedule evaluated per epoch.
///
/// # Example
///
/// ```
/// use ccq_nn::schedule::LrSchedule;
///
/// let s = LrSchedule::Cosine { base_lr: 0.1, min_lr: 0.001, period: 10 };
/// assert!((s.lr_at(0) - 0.1).abs() < 1e-6);
/// assert!(s.lr_at(9) < s.lr_at(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// A constant learning rate.
    Constant {
        /// The learning rate.
        lr: f32,
    },
    /// Multiply by `gamma` every `every` epochs.
    Step {
        /// Initial learning rate.
        base_lr: f32,
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
    /// Cosine decay from `base_lr` to `min_lr` over `period` epochs, then
    /// flat at `min_lr`.
    Cosine {
        /// Initial learning rate.
        base_lr: f32,
        /// Final learning rate.
        min_lr: f32,
        /// Number of epochs over which to decay.
        period: usize,
    },
}

impl LrSchedule {
    /// The learning rate at a given epoch index (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant { lr } => lr,
            LrSchedule::Step {
                base_lr,
                every,
                gamma,
            } => base_lr * gamma.powi((epoch / every.max(1)) as i32),
            LrSchedule::Cosine {
                base_lr,
                min_lr,
                period,
            } => {
                if period == 0 || epoch >= period {
                    return min_lr;
                }
                let t = epoch as f32 / period as f32;
                min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// The paper's *hybrid* learning-rate schedule (§IV-g, Fig. 4).
///
/// Fine-tuning runs at a constant base rate. When validation accuracy
/// plateaus for `patience` consecutive epochs, the schedule *bumps* the
/// rate up by `bump_factor` and cosine-decays it back to the base rate over
/// `restart_period` epochs (SGDR-inspired) — the perturbation that kicks
/// the network out of the local plateau.
///
/// Drive it once per epoch with [`HybridRestart::next_lr`], feeding it the
/// epoch's validation accuracy.
#[derive(Debug, Clone)]
pub struct HybridRestart {
    base_lr: f32,
    bump_factor: f32,
    restart_period: usize,
    patience: usize,
    best_acc: f32,
    epochs_since_improvement: usize,
    /// `Some(k)` while in the k-th epoch of a cosine restart.
    restart_epoch: Option<usize>,
    /// Trace of every emitted learning rate (for Fig. 4).
    trace: Vec<f32>,
}

impl HybridRestart {
    /// Creates the schedule with the paper-style defaults: plateau patience
    /// of 2 epochs, 4× bump, 4-epoch cosine decay back to base.
    pub fn new(base_lr: f32) -> Self {
        HybridRestart {
            base_lr,
            bump_factor: 4.0,
            restart_period: 4,
            patience: 2,
            best_acc: f32::NEG_INFINITY,
            epochs_since_improvement: 0,
            restart_epoch: None,
            trace: Vec::new(),
        }
    }

    /// Sets the bump multiplier (builder style).
    pub fn bump_factor(mut self, factor: f32) -> Self {
        self.bump_factor = factor;
        self
    }

    /// Sets the cosine-restart period in epochs (builder style).
    pub fn restart_period(mut self, period: usize) -> Self {
        self.restart_period = period.max(1);
        self
    }

    /// Sets the plateau patience in epochs (builder style).
    pub fn patience(mut self, patience: usize) -> Self {
        self.patience = patience.max(1);
        self
    }

    /// The constant base rate.
    pub fn base_lr(&self) -> f32 {
        self.base_lr
    }

    /// Scales the base rate by `factor` (guarded-descent retries halve it
    /// after a divergence rollback).
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not finite and positive.
    pub fn scale_base_lr(&mut self, factor: f32) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "LR scale factor must be positive"
        );
        self.base_lr *= factor;
    }

    /// The mutable plateau-tracking state `(best_acc,
    /// epochs_since_improvement, restart_epoch)` — everything a run-state
    /// checkpoint must capture for a bit-identical resume (the LR trace is
    /// diagnostic only and is not part of this state).
    pub fn plateau_state(&self) -> (f32, usize, Option<usize>) {
        (
            self.best_acc,
            self.epochs_since_improvement,
            self.restart_epoch,
        )
    }

    /// Restores plateau-tracking state captured by
    /// [`HybridRestart::plateau_state`].
    pub fn set_plateau_state(&mut self, state: (f32, usize, Option<usize>)) {
        self.best_acc = state.0;
        self.epochs_since_improvement = state.1;
        self.restart_epoch = state.2;
    }

    /// Computes the learning rate for the *next* epoch given the accuracy
    /// just observed on validation.
    pub fn next_lr(&mut self, val_acc: f32) -> f32 {
        if val_acc > self.best_acc + 1e-4 {
            self.best_acc = val_acc;
            self.epochs_since_improvement = 0;
        } else {
            self.epochs_since_improvement += 1;
        }

        let lr = match self.restart_epoch {
            Some(k) => {
                // Cosine decay from bumped rate back down to base.
                let peak = self.base_lr * self.bump_factor;
                let t = (k + 1) as f32 / self.restart_period as f32;
                let lr = self.base_lr
                    + 0.5 * (peak - self.base_lr) * (1.0 + (std::f32::consts::PI * t).cos());
                self.restart_epoch = if k + 1 >= self.restart_period {
                    None
                } else {
                    Some(k + 1)
                };
                lr
            }
            None if self.epochs_since_improvement >= self.patience => {
                // Plateau: bump and start the cosine descent.
                self.epochs_since_improvement = 0;
                self.restart_epoch = Some(0);
                self.base_lr * self.bump_factor
            }
            None => self.base_lr,
        };
        self.trace.push(lr);
        lr
    }

    /// Reset plateau tracking (call after a quantization step changes the
    /// landscape).
    pub fn reset_plateau(&mut self) {
        self.best_acc = f32::NEG_INFINITY;
        self.epochs_since_improvement = 0;
        self.restart_epoch = None;
    }

    /// Every learning rate emitted so far, in order (the Fig. 4 series).
    pub fn trace(&self) -> &[f32] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant { lr: 0.01 };
        assert_eq!(s.lr_at(0), 0.01);
        assert_eq!(s.lr_at(100), 0.01);
    }

    #[test]
    fn step_decays_every_interval() {
        let s = LrSchedule::Step {
            base_lr: 1.0,
            every: 2,
            gamma: 0.1,
        };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(1), 1.0);
        assert!((s.lr_at(2) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(5) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn cosine_decays_monotonically_to_min() {
        let s = LrSchedule::Cosine {
            base_lr: 0.1,
            min_lr: 0.001,
            period: 8,
        };
        let mut prev = f32::INFINITY;
        for e in 0..8 {
            let lr = s.lr_at(e);
            assert!(lr <= prev);
            prev = lr;
        }
        assert_eq!(s.lr_at(8), 0.001);
        assert_eq!(s.lr_at(100), 0.001);
    }

    #[test]
    fn hybrid_stays_flat_while_improving() {
        let mut h = HybridRestart::new(1e-2);
        for step in 0..5 {
            let lr = h.next_lr(0.5 + step as f32 * 0.05);
            assert_eq!(lr, 1e-2, "improving accuracy must not trigger a bump");
        }
    }

    #[test]
    fn hybrid_bumps_on_plateau_then_decays_back() {
        let mut h = HybridRestart::new(1e-2)
            .bump_factor(4.0)
            .restart_period(4)
            .patience(2);
        let _ = h.next_lr(0.8); // improvement (first obs)
        let _ = h.next_lr(0.8); // plateau 1
        let bumped = h.next_lr(0.8); // plateau 2 → bump
        assert!((bumped - 4e-2).abs() < 1e-7);
        // Decays back towards base.
        let mut prev = bumped;
        for _ in 0..4 {
            let lr = h.next_lr(0.8);
            assert!(lr <= prev + 1e-7);
            prev = lr;
        }
        assert!(
            (prev - 1e-2).abs() < 1e-3,
            "should be back near base, got {prev}"
        );
    }

    #[test]
    fn hybrid_trace_records_everything() {
        let mut h = HybridRestart::new(0.1);
        for _ in 0..6 {
            let _ = h.next_lr(0.5);
        }
        assert_eq!(h.trace().len(), 6);
    }

    #[test]
    fn plateau_state_round_trip_resumes_schedule() {
        let mut a = HybridRestart::new(1e-2).patience(2);
        let _ = a.next_lr(0.8);
        let _ = a.next_lr(0.8); // one epoch into the plateau
        let mut b = HybridRestart::new(1e-2).patience(2);
        b.set_plateau_state(a.plateau_state());
        // Both schedules must now bump on the same (next) epoch.
        assert_eq!(a.next_lr(0.8).to_bits(), b.next_lr(0.8).to_bits());
        assert_eq!(a.next_lr(0.8).to_bits(), b.next_lr(0.8).to_bits());
    }

    #[test]
    fn scale_base_lr_halves_rate() {
        let mut h = HybridRestart::new(0.04);
        h.scale_base_lr(0.5);
        assert!((h.base_lr() - 0.02).abs() < 1e-9);
        assert_eq!(h.next_lr(0.5), 0.02);
    }

    #[test]
    fn reset_plateau_clears_counter() {
        let mut h = HybridRestart::new(1e-2).patience(2);
        let _ = h.next_lr(0.9);
        let _ = h.next_lr(0.9); // one plateau epoch
        h.reset_plateau();
        let lr = h.next_lr(0.9); // would have bumped without reset
        assert_eq!(lr, 1e-2);
    }
}
