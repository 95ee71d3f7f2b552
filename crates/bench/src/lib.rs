//! Shared plumbing for the experiment harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index); this library holds the workload
//! construction they share: dataset building, baseline pre-training,
//! environment-variable scaling knobs, and the timing helpers of the
//! `bench_perf` snapshot.

use ccq::{DescentEvent, EventSink};
use ccq_data::{synth_cifar, Augment, ImageDataset, SynthCifarConfig};
use ccq_models::{ModelConfig, ModelKind};
use ccq_nn::train::{evaluate, train_epoch, Batch};
use ccq_nn::{Network, Sgd};
use ccq_quant::PolicyKind;
use ccq_tensor::rng;
use std::time::Instant;

/// Experiment scale, controlled by the `CCQ_SCALE` environment variable:
/// `smoke` (seconds, CI-sized), `small` (default, minutes), `full`
/// (tens of minutes, best fidelity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke run.
    Smoke,
    /// Minutes-long default.
    Small,
    /// The full experiment.
    Full,
}

impl Scale {
    /// Reads `CCQ_SCALE` (defaults to [`Scale::Small`]).
    pub fn from_env() -> Scale {
        match std::env::var("CCQ_SCALE")
            .unwrap_or_default()
            .to_ascii_lowercase()
            .as_str()
        {
            "smoke" => Scale::Smoke,
            "full" => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Samples per class for the training split.
    pub fn train_per_class(&self) -> usize {
        match self {
            Scale::Smoke => 12,
            Scale::Small => 48,
            Scale::Full => 128,
        }
    }

    /// Samples per class for the validation split.
    pub fn val_per_class(&self) -> usize {
        match self {
            Scale::Smoke => 6,
            Scale::Small => 16,
            Scale::Full => 32,
        }
    }

    /// Baseline pre-training epochs.
    pub fn baseline_epochs(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Small => 20,
            Scale::Full => 40,
        }
    }

    /// Fine-tuning epochs for one-shot baselines.
    pub fn fine_tune_epochs(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Small => 10,
            Scale::Full => 20,
        }
    }

    /// Base channel width for the ResNet builders.
    pub fn width(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Small => 4,
            Scale::Full => 8,
        }
    }

    /// Image side length.
    pub fn image_size(&self) -> usize {
        match self {
            Scale::Smoke => 12,
            Scale::Small => 16,
            Scale::Full => 20,
        }
    }
}

/// A ready-to-run workload: datasets plus a pre-trained fp32 network.
pub struct Workload {
    /// Training split.
    pub train: ImageDataset,
    /// Validation split.
    pub val: ImageDataset,
    /// The pre-trained full-precision network.
    pub net: Network,
    /// Baseline (fp32) validation accuracy.
    pub baseline_accuracy: f32,
}

/// Builds the SynthCIFAR dataset splits at the given scale.
///
/// The harness uses a deliberately *harder* variant than the library
/// default (more pixel noise, more positional jitter) so baselines land
/// below 100% and quantization-induced degradation is measurable.
pub fn build_data(scale: Scale, classes: usize, seed: u64) -> (ImageDataset, ImageDataset) {
    let per_class = scale.train_per_class() + scale.val_per_class();
    let ds = synth_cifar(&SynthCifarConfig {
        classes,
        samples_per_class: per_class,
        image_size: scale.image_size(),
        noise_std: 0.4,
        jitter: 0.45,
        monochrome: true,
        seed,
    });
    ds.split_at(classes * scale.train_per_class())
}

/// Builds a model on SynthCIFAR and pre-trains the fp32 baseline.
///
/// # Panics
///
/// Panics on network errors (harness binaries fail loudly).
pub fn build_workload(
    scale: Scale,
    kind: ModelKind,
    classes: usize,
    policy: PolicyKind,
    seed: u64,
) -> Workload {
    let (train, val) = build_data(scale, classes, seed);
    let mut net = kind.build(&ModelConfig {
        classes,
        width: scale.width(),
        policy,
        seed,
    });
    let mut opt = Sgd::new(0.05).momentum(0.9).weight_decay(5e-4);
    let mut r = rng(seed ^ 0x5eed);
    let aug = Augment::standard();
    let val_batches = val.batches(64);
    for epoch in 0..scale.baseline_epochs() {
        let batches = train.augmented_batches(32, &aug, &mut r);
        let loss = train_epoch(&mut net, &batches, &mut opt, &mut r).expect("training failed");
        if epoch + 1 == scale.baseline_epochs() {
            let _ = loss;
        }
        // Simple step decay for the baseline.
        if epoch == scale.baseline_epochs() * 2 / 3 {
            opt.set_lr(0.01);
        }
    }
    let baseline_accuracy = evaluate(&mut net, &val_batches)
        .expect("eval failed")
        .accuracy;
    Workload {
        train,
        val,
        net,
        baseline_accuracy,
    }
}

/// The headline numbers of a CCQ run, folded out of its
/// [`DescentEvent`] stream — how the table binaries read results without
/// poking at report internals.
///
/// Attach to [`ccq::CcqRunner::run_with_sink`]; after the run, the
/// baseline/final accuracies, compression, and bit pattern mirror the
/// matching [`ccq::CcqReport`] fields exactly (both come from the same
/// [`DescentEvent::Finished`] terminal event).
#[derive(Debug, Clone, Default)]
pub struct SummarySink {
    /// Accuracy of the incoming full-precision network.
    pub baseline_accuracy: f32,
    /// Accuracy of the final mixed-precision network.
    pub final_accuracy: f32,
    /// Final weight-compression ratio vs fp32.
    pub final_compression: f64,
    /// Final per-layer bit pattern, e.g. `"6-4-3-…-2"`.
    pub bit_pattern: String,
    /// Quantization steps that completed healthily.
    pub steps: usize,
    /// Divergence-guard rollbacks observed along the way.
    pub rollbacks: usize,
}

impl SummarySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accuracy degradation from baseline (positive = worse).
    pub fn degradation(&self) -> f32 {
        self.baseline_accuracy - self.final_accuracy
    }
}

impl EventSink for SummarySink {
    fn on_event(&mut self, ev: &DescentEvent) {
        match ev {
            DescentEvent::Baseline { accuracy, .. } => self.baseline_accuracy = *accuracy,
            DescentEvent::StepCompleted { .. } => self.steps += 1,
            DescentEvent::GuardRollback { .. } => self.rollbacks += 1,
            DescentEvent::Finished {
                baseline_accuracy,
                final_accuracy,
                final_compression,
                bit_pattern,
            } => {
                self.baseline_accuracy = *baseline_accuracy;
                self.final_accuracy = *final_accuracy;
                self.final_compression = *final_compression;
                self.bit_pattern = bit_pattern.clone();
            }
            _ => {}
        }
    }
}

/// Convenience: training batches without augmentation (evaluation-style
/// stacking) — used by baselines that take `&[Batch]`.
pub fn plain_batches(ds: &ImageDataset, batch_size: usize) -> Vec<Batch> {
    ds.batches(batch_size)
}

/// Formats a ratio like `10.27x`.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats an accuracy in percent.
pub fn fmt_pct(x: f32) -> String {
    format!("{:.2}", 100.0 * x)
}

/// Parses a `CCQ_BENCH_REPS` value by the `RAYON_NUM_THREADS` rule:
/// trimmed, must be a positive integer, otherwise `default`.
pub fn reps_from_env(var: Option<&str>, default: usize) -> usize {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Times `variants` variants of one comparison round-robin: `run(v)`
/// once per variant as a warm-up, then `reps` rounds that each call
/// `run(0)`, `run(1)`, … in order. Returns each variant's fastest run in
/// milliseconds, in variant order. Interleaving spreads a slow spell of
/// the host over every variant instead of one.
pub fn time_interleaved_ms(variants: usize, reps: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    (0..variants).for_each(&mut run);
    let mut best = vec![f64::INFINITY; variants];
    for _ in 0..reps {
        for (v, best) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            run(v);
            *best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_small() {
        // Do not set the env var here (tests run in parallel); just check
        // the accessors are consistent.
        assert!(Scale::Full.train_per_class() > Scale::Smoke.train_per_class());
        assert!(Scale::Full.width() > Scale::Smoke.width());
    }

    #[test]
    fn build_data_splits_are_balanced() {
        let (train, val) = build_data(Scale::Smoke, 4, 0);
        assert_eq!(train.len(), 4 * Scale::Smoke.train_per_class());
        assert_eq!(val.len(), 4 * Scale::Smoke.val_per_class());
        assert_eq!(train.classes(), 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(10.266), "10.27x");
        assert_eq!(fmt_pct(0.9234), "92.34");
    }

    #[test]
    fn reps_fall_back_unless_a_positive_integer() {
        for bad in [None, Some("0"), Some(""), Some("x"), Some("-1")] {
            assert_eq!(reps_from_env(bad, 20), 20, "{bad:?}");
        }
        assert_eq!(reps_from_env(Some(" 7\n"), 20), 7);
    }

    #[test]
    fn interleaved_timer_alternates_and_keeps_each_fastest() {
        let mut calls = Vec::new();
        let ms = time_interleaved_ms(3, 2, |v| {
            calls.push(v);
            std::thread::sleep(std::time::Duration::from_millis(5 * v as u64));
        });
        assert_eq!(calls, [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(ms.len(), 3);
        assert!(ms[0] < 5.0 && ms[1] >= 5.0 && ms[2] >= 10.0, "{ms:?}");
    }
}
