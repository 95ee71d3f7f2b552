//! The collaboration stage: fine-tuning to recover accuracy (paper §III-B.b).

use crate::Result;
use ccq_nn::schedule::HybridRestart;
use ccq_nn::train::{evaluate, train_epoch, Batch};
use ccq_nn::{Network, Sgd};
use ccq_tensor::Rng64;

/// How many epochs of fine-tuning follow each quantization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryMode {
    /// A fixed epoch budget `S_t` chosen beforehand (the paper's *manual*
    /// scheme — works until one hard step fails to converge, Fig. 3).
    Manual {
        /// Number of fine-tuning epochs per quantization step.
        epochs: usize,
    },
    /// Train until validation accuracy reaches
    /// `baseline − tolerance`, up to `max_epochs` (the paper's *adaptive*
    /// scheme).
    Adaptive {
        /// Allowed accuracy drop from the running baseline, in absolute
        /// accuracy (e.g. `0.01` = one point).
        tolerance: f32,
        /// Hard cap on the number of epochs.
        max_epochs: usize,
    },
}

impl Default for RecoveryMode {
    fn default() -> Self {
        RecoveryMode::Adaptive {
            tolerance: 0.01,
            max_epochs: 12,
        }
    }
}

/// One epoch of a recovery trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEpoch {
    /// Mean training loss of the epoch.
    pub train_loss: f32,
    /// Validation accuracy after the epoch.
    pub val_accuracy: f32,
    /// Learning rate used during the epoch.
    pub lr: f32,
}

/// The outcome of one collaboration stage.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// Epochs actually used (`S_t`).
    pub epochs: usize,
    /// Validation accuracy when the stage ended.
    pub final_accuracy: f32,
    /// Whether the adaptive threshold was reached (always `true` for
    /// manual mode).
    pub reached_threshold: bool,
    /// The stage hit a non-finite training loss or validation accuracy and
    /// bailed out early. The guarded runner responds per its
    /// [`crate::GuardPolicy`]; an unguarded caller sees the poisoned state
    /// as-is (the seed behavior).
    pub diverged: bool,
    /// Per-epoch trace.
    pub trace: Vec<RecoveryEpoch>,
}

/// A per-epoch callback into the recovery loop, called with the 0-based
/// epoch index *before* that epoch trains. The engine arms it from
/// [`crate::FaultPlan`] to poison the network at exact (step, epoch)
/// coordinates.
pub type EpochHook<'a> = &'a mut dyn FnMut(usize, &mut Network);

/// The collaboration engine: all layers fine-tune together under
/// quantization-aware training until accuracy recovers.
#[derive(Debug, Clone)]
pub struct Collaboration {
    mode: RecoveryMode,
    use_hybrid_lr: bool,
}

impl Collaboration {
    /// Creates a collaboration stage with the given recovery mode; the
    /// hybrid plateau/cosine-restart learning rate (paper §IV-g) is on by
    /// default.
    pub fn new(mode: RecoveryMode) -> Self {
        Collaboration {
            mode,
            use_hybrid_lr: true,
        }
    }

    /// Disables the hybrid learning-rate schedule (constant LR instead).
    pub fn with_constant_lr(mut self) -> Self {
        self.use_hybrid_lr = false;
        self
    }

    /// The recovery mode.
    pub fn mode(&self) -> RecoveryMode {
        self.mode
    }

    /// Runs the stage: fine-tunes `net` on `train` epochs until the mode's
    /// stopping rule fires. `threshold_acc` is the accuracy the adaptive
    /// mode tries to reach (ignored by manual mode). `hook`, when given,
    /// runs before every epoch (fault injection). A non-finite training
    /// loss or validation accuracy ends the stage immediately with
    /// `diverged = true` instead of burning the remaining epoch budget on
    /// a poisoned network.
    ///
    /// # Errors
    ///
    /// Propagates network errors from training or evaluation.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        &self,
        net: &mut Network,
        train: &[Batch],
        val: &[Batch],
        threshold_acc: f32,
        opt: &mut Sgd,
        hybrid: &mut HybridRestart,
        rng: &mut Rng64,
        mut hook: Option<EpochHook<'_>>,
    ) -> Result<RecoveryRecord> {
        let (budget, tolerance) = match self.mode {
            RecoveryMode::Manual { epochs } => (epochs, f32::INFINITY),
            RecoveryMode::Adaptive {
                tolerance,
                max_epochs,
            } => (max_epochs, tolerance),
        };
        hybrid.reset_plateau();
        let mut trace = Vec::new();
        let mut reached = false;
        let mut diverged = false;
        let mut final_acc = evaluate(net, val)?.accuracy;
        for e in 0..budget {
            let lr = if self.use_hybrid_lr {
                hybrid.next_lr(final_acc)
            } else {
                hybrid.base_lr()
            };
            opt.set_lr(lr);
            if let Some(hook) = hook.as_mut() {
                hook(e, net);
            }
            let train_loss = train_epoch(net, train, opt, rng)?;
            final_acc = evaluate(net, val)?.accuracy;
            trace.push(RecoveryEpoch {
                train_loss,
                val_accuracy: final_acc,
                lr,
            });
            if !train_loss.is_finite() || !final_acc.is_finite() {
                diverged = true;
                break;
            }
            if matches!(self.mode, RecoveryMode::Adaptive { .. })
                && final_acc >= threshold_acc - tolerance
            {
                reached = true;
                break;
            }
        }
        if matches!(self.mode, RecoveryMode::Manual { .. }) && !diverged {
            reached = true;
        }
        Ok(RecoveryRecord {
            epochs: trace.len(),
            final_accuracy: final_acc,
            reached_threshold: reached,
            diverged,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_data::{gaussian_blobs, BlobsConfig};
    use ccq_models::mlp;
    use ccq_quant::PolicyKind;
    use ccq_tensor::rng;

    fn setup() -> (Network, Vec<Batch>, Vec<Batch>) {
        let ds = gaussian_blobs(&BlobsConfig {
            samples_per_class: 48,
            ..Default::default()
        });
        let (train, val) = ds.split_at(128);
        (
            mlp(&[8, 16, 4], PolicyKind::Pact, 0),
            train.batches(16),
            val.batches(32),
        )
    }

    #[test]
    fn manual_mode_uses_exact_budget() {
        let (mut net, train, val) = setup();
        let collab = Collaboration::new(RecoveryMode::Manual { epochs: 3 });
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut hybrid = HybridRestart::new(0.05);
        let rec = collab
            .recover(
                &mut net,
                &train,
                &val,
                1.0,
                &mut opt,
                &mut hybrid,
                &mut rng(1),
                None,
            )
            .unwrap();
        assert_eq!(rec.epochs, 3);
        assert!(rec.reached_threshold);
        assert_eq!(rec.trace.len(), 3);
    }

    #[test]
    fn adaptive_mode_stops_early_when_threshold_met() {
        let (mut net, train, val) = setup();
        // Threshold 0 accuracy is met immediately after one epoch.
        let collab = Collaboration::new(RecoveryMode::Adaptive {
            tolerance: 0.0,
            max_epochs: 50,
        });
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut hybrid = HybridRestart::new(0.05);
        let rec = collab
            .recover(
                &mut net,
                &train,
                &val,
                0.0,
                &mut opt,
                &mut hybrid,
                &mut rng(2),
                None,
            )
            .unwrap();
        assert_eq!(rec.epochs, 1);
        assert!(rec.reached_threshold);
    }

    #[test]
    fn adaptive_mode_reports_failure_to_reach() {
        let (mut net, train, val) = setup();
        let collab = Collaboration::new(RecoveryMode::Adaptive {
            tolerance: 0.0,
            max_epochs: 2,
        });
        let mut opt = Sgd::new(1e-6); // too small to learn anything
        let mut hybrid = HybridRestart::new(1e-6);
        let rec = collab
            .recover(
                &mut net,
                &train,
                &val,
                2.0,
                &mut opt,
                &mut hybrid,
                &mut rng(3),
                None,
            )
            .unwrap();
        assert_eq!(rec.epochs, 2);
        assert!(!rec.reached_threshold);
    }

    #[test]
    fn non_finite_train_loss_bails_out_as_diverged() {
        let (mut net, train, val) = setup();
        let collab = Collaboration::new(RecoveryMode::Manual { epochs: 10 });
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut hybrid = HybridRestart::new(0.05);
        // Poison the classifier bias right before epoch 2 trains (a NaN in
        // an earlier layer could be masked by ReLU; the head feeds the
        // logits directly).
        let mut hook = |e: usize, net: &mut Network| {
            if e == 2 {
                let mut count = 0;
                net.visit_params(&mut |_| count += 1);
                let mut i = 0;
                net.visit_params(&mut |p| {
                    if i + 1 == count {
                        p.value.as_mut_slice()[0] = f32::NAN;
                    }
                    i += 1;
                });
            }
        };
        let rec = collab
            .recover(
                &mut net,
                &train,
                &val,
                1.0,
                &mut opt,
                &mut hybrid,
                &mut rng(7),
                Some(&mut hook),
            )
            .unwrap();
        assert!(rec.diverged);
        assert!(!rec.reached_threshold);
        assert_eq!(rec.epochs, 3, "bails on the poisoned epoch, not later");
        assert!(!rec.trace.last().unwrap().train_loss.is_finite());
    }

    #[test]
    fn recovery_improves_accuracy_on_learnable_task() {
        let (mut net, train, val) = setup();
        let before = evaluate(&mut net, &val).unwrap().accuracy;
        let collab = Collaboration::new(RecoveryMode::Manual { epochs: 15 });
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut hybrid = HybridRestart::new(0.05);
        let rec = collab
            .recover(
                &mut net,
                &train,
                &val,
                1.0,
                &mut opt,
                &mut hybrid,
                &mut rng(4),
                None,
            )
            .unwrap();
        assert!(
            rec.final_accuracy > before + 0.2,
            "training should help: {before} → {}",
            rec.final_accuracy
        );
    }

    #[test]
    fn constant_lr_mode_never_bumps() {
        let (mut net, train, val) = setup();
        let collab = Collaboration::new(RecoveryMode::Manual { epochs: 6 }).with_constant_lr();
        let mut opt = Sgd::new(0.01);
        let mut hybrid = HybridRestart::new(0.01).patience(1);
        let rec = collab
            .recover(
                &mut net,
                &train,
                &val,
                1.0,
                &mut opt,
                &mut hybrid,
                &mut rng(5),
                None,
            )
            .unwrap();
        assert!(rec.trace.iter().all(|e| (e.lr - 0.01).abs() < 1e-9));
    }
}
