//! Cross-crate integration: the full CCQ pipeline on a small CNN.

use ccq_repro::ccq::{CcqConfig, CcqRunner, LambdaSchedule, NullSink, RecoveryMode, TraceEvent};
use ccq_repro::data::{synth_cifar, SynthCifarConfig};
use ccq_repro::models::plain_cnn;
use ccq_repro::nn::train::{evaluate, train_epoch};
use ccq_repro::nn::{Network, Sgd};
use ccq_repro::quant::{BitLadder, BitWidth, PolicyKind};
use ccq_repro::tensor::{rng, Rng64};

fn small_workload() -> (
    Network,
    Vec<ccq_repro::nn::train::Batch>,
    Vec<ccq_repro::nn::train::Batch>,
) {
    let data = synth_cifar(&SynthCifarConfig {
        classes: 4,
        samples_per_class: 24,
        image_size: 8,
        noise_std: 0.15,
        jitter: 0.2,
        monochrome: false,
        seed: 3,
    });
    let (train, val) = data.split_at(64);
    let (train_b, val_b) = (train.batches(16), val.batches(32));
    let mut net = plain_cnn(4, 2, PolicyKind::Pact, 5);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(6);
    for _ in 0..10 {
        train_epoch(&mut net, &train_b, &mut opt, &mut r).expect("pretraining");
    }
    (net, train_b, val_b)
}

#[test]
fn ccq_quantizes_a_cnn_without_collapse() {
    let (mut net, train_b, val_b) = small_workload();
    let baseline = evaluate(&mut net, &val_b).unwrap().accuracy;
    assert!(
        baseline > 0.5,
        "pretraining should beat chance, got {baseline}"
    );

    let cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 4]).unwrap(),
        lambda: LambdaSchedule::constant(0.4),
        recovery: RecoveryMode::Adaptive {
            tolerance: 0.02,
            max_epochs: 4,
        },
        probe_val_batches: 1,
        seed: 7,
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(cfg);
    let mut provider = |_: &mut Rng64| train_b.clone();
    let report = runner
        .run(&mut net, &mut provider, &val_b, &mut NullSink)
        .unwrap();

    // Every quantizable layer reached the 4-bit floor.
    for (label, w, a) in &report.bit_assignment {
        assert_eq!(*w, BitWidth::of(4), "{label}");
        assert_eq!(*a, BitWidth::of(4), "{label}");
    }
    assert!((report.final_compression - 8.0).abs() < 0.1);
    // Accuracy did not collapse to chance.
    assert!(
        report.final_accuracy > 0.4,
        "quantized accuracy collapsed: {}",
        report.final_accuracy
    );
    // The learning curve contains the sawtooth structure.
    let quant_events = report
        .trace
        .iter()
        .filter(|p| matches!(p.event, TraceEvent::QuantStep { .. }))
        .count();
    assert_eq!(quant_events, report.steps.len());
}

#[test]
fn ccq_trace_epochs_are_monotone() {
    let (mut net, train_b, val_b) = small_workload();
    let cfg = CcqConfig {
        ladder: BitLadder::new(&[8, 4]).unwrap(),
        recovery: RecoveryMode::Manual { epochs: 1 },
        probe_val_batches: 1,
        max_steps: 3,
        seed: 8,
        ..CcqConfig::default()
    };
    let mut runner = CcqRunner::new(cfg);
    let mut provider = |_: &mut Rng64| train_b.clone();
    let report = runner
        .run(&mut net, &mut provider, &val_b, &mut NullSink)
        .unwrap();
    let mut last = 0;
    for p in &report.trace {
        assert!(p.epoch >= last, "epochs must not rewind");
        last = p.epoch;
    }
    assert_eq!(report.steps.len(), 3, "max_steps caps the schedule");
}

#[test]
fn identical_seeds_give_identical_reports() {
    let run = || {
        let (mut net, train_b, val_b) = small_workload();
        let cfg = CcqConfig {
            ladder: BitLadder::new(&[8, 4]).unwrap(),
            recovery: RecoveryMode::Manual { epochs: 1 },
            probe_val_batches: 1,
            max_steps: 2,
            seed: 99,
            ..CcqConfig::default()
        };
        let mut runner = CcqRunner::new(cfg);
        let mut provider = |_: &mut Rng64| train_b.clone();
        runner
            .run(&mut net, &mut provider, &val_b, &mut NullSink)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.bit_pattern(), b.bit_pattern());
    assert_eq!(a.trace_csv(), b.trace_csv());
}
