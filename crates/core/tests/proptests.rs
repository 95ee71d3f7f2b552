//! Property-based tests for the CCQ framework invariants.

use ccq::{CcqConfig, CcqRunner, Competition, LambdaSchedule, NullSink, ProbeRegime, RecoveryMode};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::{rng, Rng64};
use proptest::prelude::*;

fn val_batches(seed: u64) -> Vec<Batch> {
    gaussian_blobs(&BlobsConfig {
        samples_per_class: 16,
        seed,
        ..Default::default()
    })
    .batches(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The λ-blend always yields a probability distribution over exactly
    /// the active layers, for arbitrary weights/sizes/masks.
    #[test]
    fn lambda_blend_is_distribution(
        lambda in 0.0f32..=1.0,
        p in proptest::collection::vec(0.0f32..10.0, 1..12),
        seed in 0u64..1000,
    ) {
        let n = p.len();
        let mut r = rng(seed);
        use rand::Rng;
        let sizes: Vec<usize> = (0..n).map(|_| r.gen_range(1..10_000)).collect();
        let active: Vec<bool> = (0..n).map(|_| r.gen::<bool>()).collect();
        let schedule = LambdaSchedule::constant(lambda);
        let out = schedule.blend(0, &p, &sizes, &active);
        let total: f32 = out.iter().sum();
        let n_active = active.iter().filter(|&&a| a).count();
        if n_active == 0 {
            prop_assert!(total.abs() < 1e-6);
        } else {
            prop_assert!((total - 1.0).abs() < 1e-4, "sum {total}");
            for (i, &v) in out.iter().enumerate() {
                prop_assert!(v >= 0.0);
                if !active[i] {
                    prop_assert_eq!(v, 0.0, "inactive layer {} got probability", i);
                }
            }
        }
    }

    /// A competition driven to exhaustion always terminates after exactly
    /// (layers × rungs-below-current) steps, for any ladder and regime.
    #[test]
    fn competition_terminates_exactly(
        rungs in proptest::collection::vec(2u32..16, 1..4),
        sampled in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut sorted: Vec<u32> = rungs.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        let ladder = BitLadder::new(&sorted).expect("valid ladder");
        let mut net = mlp(&[8, 8, 4], PolicyKind::MaxAbs, seed);
        let layers = net.quant_layer_count();
        let val = val_batches(seed);
        let regime = if sampled { ProbeRegime::Sampled } else { ProbeRegime::FullInformation };
        let mut comp = Competition::new(0.5, 1).regime(regime);
        let lambda = LambdaSchedule::constant(0.5);
        let mut r: Rng64 = rng(seed ^ 5);
        let mut steps = 0;
        // Every layer starts at fp and must walk every rung.
        let expected = layers * ladder.len();
        while comp
            .run(&mut net, &ladder, None, &lambda, steps, &val, &mut r, &[], None)
            .expect("competition")
            .is_some()
        {
            steps += 1;
            prop_assert!(steps <= expected, "competition overran {expected} steps");
        }
        prop_assert_eq!(steps, expected);
        // All layers at the floor.
        for i in 0..layers {
            prop_assert_eq!(net.quant_spec(i).weight_bits, ladder.floor());
        }
    }

    /// Probes never corrupt the network: after any competition, exactly one
    /// layer differs from the pre-competition specs.
    #[test]
    fn competition_touches_exactly_one_layer(seed in 0u64..500, gamma in 0.05f32..3.0) {
        let mut net = mlp(&[8, 12, 12, 4], PolicyKind::Pact, seed);
        let layers = net.quant_layer_count();
        let val = val_batches(seed);
        let before: Vec<_> = (0..layers).map(|i| net.quant_spec(i)).collect();
        let mut comp = Competition::new(gamma, 1);
        let mut r = rng(seed);
        let out = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.3),
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .expect("competition")
            .expect("all layers active");
        let mut changed = 0;
        for (i, spec) in before.iter().enumerate().take(layers) {
            if net.quant_spec(i) != *spec {
                changed += 1;
                prop_assert_eq!(i, out.winner);
            }
        }
        prop_assert_eq!(changed, 1);
    }

    /// Runner determinism: the same seed yields byte-identical traces for
    /// arbitrary configurations.
    #[test]
    fn runner_is_deterministic(seed in 0u64..200, manual in proptest::bool::ANY) {
        let run = || {
            let ds = gaussian_blobs(&BlobsConfig {
                samples_per_class: 24,
                seed: 77,
                ..Default::default()
            });
            let (train, val) = ds.split_at(64);
            let (train_b, val_b) = (train.batches(16), val.batches(32));
            let mut net = mlp(&[8, 8, 4], PolicyKind::Pact, 13);
            let cfg = CcqConfig {
                ladder: BitLadder::new(&[8, 4]).expect("ladder"),
                recovery: if manual {
                    RecoveryMode::Manual { epochs: 1 }
                } else {
                    RecoveryMode::Adaptive { tolerance: 0.05, max_epochs: 2 }
                },
                max_steps: 2,
                probe_val_batches: 1,
                seed,
                ..CcqConfig::default()
            };
            let mut provider = move |_: &mut Rng64| train_b.clone();
            CcqRunner::new(cfg)
                .run(&mut net, &mut provider, &val_b, &mut NullSink)
                .expect("run")
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.trace_csv(), b.trace_csv());
        prop_assert_eq!(a.bit_pattern(), b.bit_pattern());
    }
}
