//! Observability acceptance gate: a seeded descent observed through a
//! [`ccq::MetricsSink`] on a [`ccq::ManualClock`] must render a
//! **byte-identical** Prometheus-style exposition on every run — across
//! process invocations, sink compositions, and (the kernels being
//! bit-identical) thread counts. The blessed files under
//! `crates/core/tests/golden/` (`metrics.txt`, `run_summary.txt`) pin
//! the exact bytes; set `CCQ_BLESS=1` to re-bless after an *intentional*
//! trajectory or format change. The same gate proves replay fidelity: parsing the
//! JSONL trace back and re-feeding it into a fresh sink reproduces the
//! live exposition exactly, so `ccq-report --metrics` is equivalent to
//! live observation.

use ccq::{
    parse_events, render_run_summary, CcqConfig, CcqRunner, EventSink, FanoutSink, JsonlSink,
    LambdaSchedule, ManualClock, MetricsSink, RecoveryMode, StartPoint,
};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::{Network, Sgd};
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::{rng, Rng64};
use std::path::{Path, PathBuf};

/// The manual clock's tick per event, in microseconds. Any constant
/// works; a non-zero one makes the phase-timing counters exercise real
/// arithmetic in the golden bytes.
const TICK_MICROS: u64 = 1_000;

fn data() -> (Vec<Batch>, Vec<Batch>) {
    let ds = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 64,
        std: 0.35,
        seed: 11,
    });
    let (train, val) = ds.split_at(192);
    (train.batches(16), val.batches(32))
}

fn pretrained_net(train: &[Batch]) -> Network {
    let mut net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(2);
    for _ in 0..15 {
        let _ = ccq_nn::train::train_epoch(&mut net, train, &mut opt, &mut r).unwrap();
    }
    net
}

fn config() -> CcqConfig {
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

/// Runs the seeded descent with a JSONL recorder fanned out alongside a
/// metrics sink; returns the raw trace and the rendered exposition.
fn observed_run() -> (String, String) {
    let (train, val) = data();
    let mut net = pretrained_net(&train);
    let mut runner = CcqRunner::new(config());
    let mut provider = move |_: &mut Rng64| train.clone();
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut metrics = MetricsSink::new(Box::new(ManualClock::with_tick(TICK_MICROS)));
    {
        let mut fan = FanoutSink::new().with(&mut jsonl).with(&mut metrics);
        runner
            .drive(&mut net, &mut provider, &val, StartPoint::Fresh, &mut fan)
            .unwrap();
    }
    assert!(jsonl.io_error().is_none());
    let trace = String::from_utf8(jsonl.into_inner()).unwrap();
    (trace, metrics.render_text())
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/tests/golden")
}

/// Compares rendered bytes against their blessed golden file, or
/// re-blesses when `CCQ_BLESS` is set.
fn check(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var("CCQ_BLESS").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with CCQ_BLESS=1", name));
    assert_eq!(got, want, "{name}: exposition drifted from the golden");
}

#[test]
fn metrics_exposition_matches_the_blessed_golden() {
    let (_, exposition) = observed_run();
    check("metrics.txt", &exposition);
}

#[test]
fn run_summary_matches_the_blessed_golden() {
    let (trace, _) = observed_run();
    let events = parse_events(&trace).expect("recorded trace parses");
    check("run_summary.txt", &render_run_summary(&events));
}

#[test]
fn exposition_is_byte_identical_across_runs() {
    let (trace_a, text_a) = observed_run();
    let (trace_b, text_b) = observed_run();
    assert_eq!(trace_a, trace_b, "JSONL trace drifted between runs");
    assert_eq!(text_a, text_b, "exposition drifted between runs");
}

#[test]
fn replaying_the_trace_reproduces_the_live_exposition() {
    let (trace, live) = observed_run();
    let events = parse_events(&trace).expect("recorded trace parses");
    let mut sink = MetricsSink::new(Box::new(ManualClock::with_tick(TICK_MICROS)));
    for ev in &events {
        sink.on_event(ev);
    }
    assert_eq!(
        sink.render_text(),
        live,
        "replay through ccq-report diverged from live observation"
    );
}
