//! The pre-engine `CcqRunner` unit suite, unchanged in substance: these
//! tests pin the public run/report behavior across the engine refactor.

use ccq::{
    CcqConfig, CcqError, CcqRunner, FaultPlan, LambdaSchedule, NullSink, RecoveryMode, TraceEvent,
};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::{Network, Sgd};
use ccq_quant::{BitLadder, BitWidth, PolicyKind};
use ccq_tensor::{rng, Rng64};

fn trained_mlp_and_data() -> (Network, Vec<Batch>, Vec<Batch>) {
    let ds = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 64,
        std: 0.35,
        seed: 11,
    });
    let (train, val) = ds.split_at(192);
    let (train_b, val_b) = (train.batches(16), val.batches(32));
    let mut net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    // Pre-train the fp32 baseline.
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(2);
    for _ in 0..15 {
        let _ = ccq_nn::train::train_epoch(&mut net, &train_b, &mut opt, &mut r).unwrap();
    }
    (net, train_b, val_b)
}

fn fast_config() -> CcqConfig {
    CcqConfig {
        ladder: BitLadder::new(&[8, 4]).unwrap(),
        probe_rounds: 3,
        recovery: RecoveryMode::Manual { epochs: 2 },
        lr: 0.02,
        max_steps: 20,
        lambda: LambdaSchedule::constant(0.3),
        ..Default::default()
    }
}

#[test]
fn full_run_quantizes_every_layer_to_the_floor() {
    let (mut net, train, val) = trained_mlp_and_data();
    let mut runner = CcqRunner::new(fast_config());
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    // Initialization already puts every layer at 8b; one descent to 4b
    // remains per layer.
    assert_eq!(report.steps.len(), 3);
    for (_, w, a) in &report.bit_assignment {
        assert_eq!(*w, BitWidth::of(4));
        assert_eq!(*a, BitWidth::of(4));
    }
    assert!(report.final_compression > 7.9, "4-bit weights ≈ 8x");
    assert!(report.baseline_accuracy > 0.8, "baseline should be trained");
    // The incremental probe path is on by default: the run's cache stats
    // show real forward work saved, and they fold into a registry.
    let stats = runner.probe_cache_stats();
    assert!(stats.hits > 0, "expected incremental probes: {stats:?}");
    assert!(stats.forward_fraction() < 1.0);
    let mut m = ccq::MetricsRegistry::new();
    m.record_probe_cache(stats);
    assert_eq!(m.counter("ccq_probe_cache_hits_total", &[]), stats.hits);
    assert!(stats.to_string().contains("probes incremental"));
}

#[test]
fn trace_has_valleys_and_recoveries() {
    let (mut net, train, val) = trained_mlp_and_data();
    let mut runner = CcqRunner::new(fast_config());
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    let quant_points = report
        .trace
        .iter()
        .filter(|p| matches!(p.event, TraceEvent::QuantStep { .. }))
        .count();
    let recovery_points = report
        .trace
        .iter()
        .filter(|p| matches!(p.event, TraceEvent::Recovery))
        .count();
    assert_eq!(quant_points, report.steps.len());
    assert!(recovery_points >= report.steps.len(), "each step recovers");
    assert!(matches!(report.trace[0].event, TraceEvent::Baseline));
    assert!(matches!(report.trace[1].event, TraceEvent::InitQuantize));
    // CSV emitters produce one line per point plus header.
    assert_eq!(report.trace_csv().lines().count(), report.trace.len() + 1);
    assert_eq!(
        report.schedule_csv().lines().count(),
        report.steps.len() + 1
    );
}

#[test]
fn compression_target_stops_early() {
    let (mut net, train, val) = trained_mlp_and_data();
    let mut cfg = fast_config();
    cfg.target_compression = Some(4.5);
    let mut runner = CcqRunner::new(cfg);
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(report.final_compression >= 4.5);
    assert!(
        report.steps.len() < 6,
        "should stop before full quantization"
    );
}

#[test]
fn target_mode_reaches_exact_pattern() {
    let (mut net, train, val) = trained_mlp_and_data();
    let mut cfg = fast_config();
    cfg.ladder = BitLadder::new(&[8, 4, 3]).unwrap();
    cfg.targets = Some(vec![BitWidth::FP32, BitWidth::of(3), BitWidth::FP32]);
    let mut runner = CcqRunner::new(cfg);
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert_eq!(report.bit_assignment[0].1, BitWidth::FP32);
    assert_eq!(report.bit_assignment[1].1, BitWidth::of(3));
    assert_eq!(report.bit_assignment[2].1, BitWidth::FP32);
    assert_eq!(report.bit_pattern(), "fp-3b-fp");
}

#[test]
fn rejects_mismatched_targets() {
    let (mut net, train, val) = trained_mlp_and_data();
    let mut cfg = fast_config();
    cfg.targets = Some(vec![BitWidth::FP32]);
    let mut runner = CcqRunner::new(cfg);
    let mut provider = move |_: &mut Rng64| train.clone();
    assert!(matches!(
        runner.run(&mut net, &mut provider, &val, &mut NullSink),
        Err(CcqError::InvalidConfig(_))
    ));
}

/// Bad input fails every entry point the same way — an empty validation
/// set first, then an invalid config — and `resume` fails before it
/// reads its state file: the path does not exist (a load would return
/// `CheckpointIo`) and an armed read fault stays unconsumed.
#[test]
fn rejects_bad_inputs_before_reading_the_state() {
    let (mut net, train, val) = trained_mlp_and_data();
    let path = std::env::temp_dir().join("ccq_runner_api_no_such_state.ccqruns");
    let cases: [(usize, &[Batch], CcqError); 3] = [
        (
            0,
            &val,
            CcqError::InvalidConfig("batch_size must be >= 1".into()),
        ),
        (32, &[], CcqError::EmptyValidationSet),
        (0, &[], CcqError::EmptyValidationSet),
    ];
    for (batch_size, val, want) in cases {
        let cfg = CcqConfig {
            batch_size,
            ..fast_config()
        };
        assert_eq!(cfg.validate().is_ok(), batch_size > 0);
        let mut runner = CcqRunner::new(cfg);
        runner.inject_faults(FaultPlan::new().fail_reads(1));
        let t = train.clone();
        let mut provider = move |_: &mut Rng64| t.clone();
        let ran = runner.run(&mut net, &mut provider, val, &mut NullSink);
        assert_eq!(ran.unwrap_err(), want, "run, batch_size {batch_size}");
        let resumed = runner.resume(&path, &mut net, &mut provider, val, &mut NullSink);
        assert_eq!(
            resumed.unwrap_err(),
            want,
            "resume, batch_size {batch_size}"
        );
        assert!(!runner.fault_plan().unwrap().exhausted());
    }
}

#[test]
fn quantized_accuracy_stays_near_baseline() {
    // The paper's headline: gradual quantization + recovery keeps
    // accuracy close to baseline. On an easy task we demand ≤ 10 pts.
    let (mut net, train, val) = trained_mlp_and_data();
    let mut cfg = fast_config();
    cfg.recovery = RecoveryMode::Adaptive {
        tolerance: 0.01,
        max_epochs: 8,
    };
    let mut runner = CcqRunner::new(cfg);
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(
        report.degradation() < 0.10,
        "degradation {:.3} too large (baseline {:.3} final {:.3})",
        report.degradation(),
        report.baseline_accuracy,
        report.final_accuracy
    );
}

#[test]
fn report_display_is_informative() {
    let (mut net, train, val) = trained_mlp_and_data();
    let mut runner = CcqRunner::new(fast_config());
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    let s = report.to_string();
    assert!(s.contains("compression"));
    assert!(s.contains("bit pattern"));
}
