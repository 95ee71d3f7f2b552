//! One-shot quantization baseline (Table I's comparison point).

use crate::{layer_profiles, CcqError, Result};
use ccq_hw::model_size;
use ccq_nn::schedule::HybridRestart;
use ccq_nn::train::{evaluate, Batch};
use ccq_nn::{Network, Sgd};
use ccq_quant::BitWidth;
use ccq_tensor::{rng, Rng64};

/// Configuration for [`one_shot_quantize`].
#[derive(Debug, Clone)]
pub struct OneShotConfig {
    /// Per-layer weight/activation bit pattern (one entry per quantizable
    /// layer; both operands use the same width, as the paper's W/A columns
    /// do for the compared frameworks).
    pub pattern: Vec<BitWidth>,
    /// Fine-tuning epochs after the one-shot drop.
    pub fine_tune_epochs: usize,
    /// Fine-tuning learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl OneShotConfig {
    /// A uniform `bits`-everywhere pattern for a network with `layers`
    /// quantizable layers.
    pub fn uniform(layers: usize, bits: BitWidth, fine_tune_epochs: usize) -> Self {
        OneShotConfig {
            pattern: vec![bits; layers],
            fine_tune_epochs,
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 5e-4,
            seed: 0,
        }
    }

    /// The paper's `fp-Nb-fp` pattern: full-precision first and last
    /// layers, `bits` everywhere in between.
    pub fn fp_mid_fp(layers: usize, bits: BitWidth, fine_tune_epochs: usize) -> Self {
        let mut pattern = vec![bits; layers];
        if let Some(first) = pattern.first_mut() {
            *first = BitWidth::FP32;
        }
        if let Some(last) = pattern.last_mut() {
            *last = BitWidth::FP32;
        }
        OneShotConfig {
            pattern,
            ..OneShotConfig::uniform(layers, bits, fine_tune_epochs)
        }
    }
}

/// Result of a one-shot quantization run.
#[derive(Debug, Clone)]
pub struct OneShotReport {
    /// Accuracy of the incoming full-precision network.
    pub baseline_accuracy: f32,
    /// Accuracy immediately after the one-shot drop (before fine-tuning).
    pub post_quant_accuracy: f32,
    /// Accuracy after fine-tuning.
    pub final_accuracy: f32,
    /// Weight-compression ratio vs fp32.
    pub compression: f64,
}

impl OneShotReport {
    /// Accuracy degradation from baseline (positive = worse).
    pub fn degradation(&self) -> f32 {
        self.baseline_accuracy - self.final_accuracy
    }
}

/// Quantizes every layer to the configured pattern *at once*, then
/// fine-tunes with quantization-aware training — the conventional recipe
/// the paper's Table I compares its gradual scheme against.
///
/// # Errors
///
/// Returns [`CcqError::InvalidConfig`] when the pattern length disagrees
/// with the network, or a network error from training.
pub fn one_shot_quantize(
    net: &mut Network,
    cfg: &OneShotConfig,
    train: &[Batch],
    val: &[Batch],
) -> Result<OneShotReport> {
    let m = net.quant_layer_count();
    if cfg.pattern.len() != m {
        return Err(CcqError::InvalidConfig(format!(
            "pattern of {} entries for {m} quantizable layers",
            cfg.pattern.len()
        )));
    }
    if val.is_empty() {
        return Err(CcqError::EmptyValidationSet);
    }
    let baseline = evaluate(net, val)?.accuracy;
    for (i, &bits) in cfg.pattern.iter().enumerate() {
        let spec = net.quant_spec(i);
        net.set_quant_spec(i, spec.with_bits(bits, bits));
    }
    let post_quant = evaluate(net, val)?.accuracy;

    let mut opt = Sgd::new(cfg.lr)
        .momentum(cfg.momentum)
        .weight_decay(cfg.weight_decay);
    let mut hybrid = HybridRestart::new(cfg.lr);
    let mut r: Rng64 = rng(cfg.seed);
    let mut acc = post_quant;
    for _ in 0..cfg.fine_tune_epochs {
        opt.set_lr(hybrid.next_lr(acc));
        let _ = ccq_nn::train::train_epoch(net, train, &mut opt, &mut r)?;
        acc = evaluate(net, val)?.accuracy;
    }
    let compression = model_size(&layer_profiles(net)).compression;
    Ok(OneShotReport {
        baseline_accuracy: baseline,
        post_quant_accuracy: post_quant,
        final_accuracy: acc,
        compression,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_data::{gaussian_blobs, BlobsConfig};
    use ccq_models::mlp;
    use ccq_quant::PolicyKind;

    fn setup() -> (Network, Vec<Batch>, Vec<Batch>) {
        let ds = gaussian_blobs(&BlobsConfig {
            samples_per_class: 48,
            seed: 21,
            ..Default::default()
        });
        let (train, val) = ds.split_at(96);
        let (train_b, val_b) = (train.batches(16), val.batches(32));
        let mut net = mlp(&[8, 16, 4], PolicyKind::Pact, 9);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut r = rng(1);
        for _ in 0..12 {
            let _ = ccq_nn::train::train_epoch(&mut net, &train_b, &mut opt, &mut r).unwrap();
        }
        (net, train_b, val_b)
    }

    #[test]
    fn uniform_pattern_compresses_8x_at_4bit() {
        let (mut net, train, val) = setup();
        let cfg = OneShotConfig::uniform(2, BitWidth::of(4), 3);
        let report = one_shot_quantize(&mut net, &cfg, &train, &val).unwrap();
        assert!((report.compression - 8.0).abs() < 1e-6);
        assert!(report.baseline_accuracy > 0.8);
    }

    #[test]
    fn fp_mid_fp_pattern_freezes_ends() {
        let cfg = OneShotConfig::fp_mid_fp(4, BitWidth::of(3), 0);
        assert_eq!(cfg.pattern[0], BitWidth::FP32);
        assert_eq!(cfg.pattern[1], BitWidth::of(3));
        assert_eq!(cfg.pattern[2], BitWidth::of(3));
        assert_eq!(cfg.pattern[3], BitWidth::FP32);
    }

    #[test]
    fn fine_tuning_recovers_some_accuracy() {
        let (mut net, train, val) = setup();
        // Harsh 2-bit drop, then recover.
        let cfg = OneShotConfig {
            fine_tune_epochs: 10,
            ..OneShotConfig::uniform(2, BitWidth::of(2), 10)
        };
        let report = one_shot_quantize(&mut net, &cfg, &train, &val).unwrap();
        assert!(
            report.final_accuracy >= report.post_quant_accuracy - 0.02,
            "fine-tuning should not make things worse: {} → {}",
            report.post_quant_accuracy,
            report.final_accuracy
        );
    }

    #[test]
    fn rejects_wrong_pattern_length() {
        let (mut net, train, val) = setup();
        let cfg = OneShotConfig::uniform(5, BitWidth::of(4), 1);
        assert!(matches!(
            one_shot_quantize(&mut net, &cfg, &train, &val),
            Err(CcqError::InvalidConfig(_))
        ));
    }
}
