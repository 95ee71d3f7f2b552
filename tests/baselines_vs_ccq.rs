//! Cross-crate integration: the paper's headline comparisons at test scale.

use ccq_repro::ccq::baselines::{hawq_assign, one_shot_quantize, HawqConfig, OneShotConfig};
use ccq_repro::ccq::{CcqConfig, CcqRunner, LambdaSchedule, NullSink, RecoveryMode};
use ccq_repro::data::{gaussian_blobs, BlobsConfig};
use ccq_repro::models::mlp;
use ccq_repro::nn::train::{train_epoch, Batch};
use ccq_repro::nn::{Network, Sgd};
use ccq_repro::quant::{BitLadder, BitWidth, PolicyKind};
use ccq_repro::tensor::{rng, Rng64};

fn trained(seed: u64) -> (Network, Vec<Batch>, Vec<Batch>) {
    let ds = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 64,
        std: 0.35,
        seed: 50,
    });
    let (train, val) = ds.split_at(192);
    let (train_b, val_b) = (train.batches(16), val.batches(32));
    let mut net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, seed);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(seed ^ 1);
    for _ in 0..15 {
        train_epoch(&mut net, &train_b, &mut opt, &mut r).unwrap();
    }
    (net, train_b, val_b)
}

/// Table I's shape: gradual CCQ to the same fp-3b-fp pattern does at least
/// as well as one-shot (allowing a small tolerance for run-to-run noise on
/// this tiny task).
#[test]
fn gradual_matches_or_beats_one_shot_at_same_pattern() {
    let (mut one_shot_net, train_b, val_b) = trained(61);
    let layers = one_shot_net.quant_layer_count();
    let cfg = OneShotConfig {
        seed: 1,
        ..OneShotConfig::fp_mid_fp(layers, BitWidth::of(3), 4)
    };
    let one_shot = one_shot_quantize(&mut one_shot_net, &cfg, &train_b, &val_b).unwrap();

    let (mut grad_net, train_b2, val_b2) = trained(61);
    let mut targets = vec![BitWidth::of(3); layers];
    targets[0] = BitWidth::FP32;
    targets[layers - 1] = BitWidth::FP32;
    let ccq_cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 6, 4, 3]).unwrap(),
        targets: Some(targets),
        lambda: LambdaSchedule::constant(0.3),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.01,
            max_epochs: 4,
        },
        probe_val_batches: 1,
        seed: 1,
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(ccq_cfg);
    let mut provider = |_: &mut Rng64| train_b2.clone();
    let gradual = runner
        .run(&mut grad_net, &mut provider, &val_b2, &mut NullSink)
        .unwrap();

    assert_eq!(gradual.bit_assignment[0].1, BitWidth::FP32);
    assert_eq!(gradual.bit_assignment[1].1, BitWidth::of(3));
    assert!(
        gradual.final_accuracy >= one_shot.final_accuracy - 0.05,
        "gradual {} should not lose badly to one-shot {}",
        gradual.final_accuracy,
        one_shot.final_accuracy
    );
}

/// Table II's shape: both mixed-precision methods hit their compression
/// targets, and CCQ's degradation is bounded.
#[test]
fn mixed_precision_methods_hit_compression_targets() {
    let (mut hawq_net, train_b, val_b) = trained(62);
    let hawq_cfg = HawqConfig {
        target_compression: 7.0,
        fine_tune_epochs: 4,
        seed: 2,
        ..Default::default()
    };
    let hawq = hawq_assign(&mut hawq_net, &hawq_cfg, &train_b, &val_b).unwrap();
    assert!(hawq.compression >= 7.0);

    let (mut ccq_net, train_b2, val_b2) = trained(62);
    let ccq_cfg = CcqConfig {
        target_compression: Some(7.0),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.01,
            max_epochs: 4,
        },
        probe_val_batches: 1,
        seed: 2,
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(ccq_cfg);
    let mut provider = |_: &mut Rng64| train_b2.clone();
    let ccq = runner
        .run(&mut ccq_net, &mut provider, &val_b2, &mut NullSink)
        .unwrap();
    assert!(ccq.final_compression >= 7.0);
    assert!(
        ccq.degradation() < 0.15,
        "CCQ degradation too large on an easy task: {}",
        ccq.degradation()
    );
}
