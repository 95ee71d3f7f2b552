//! The traced run's count metrics repeat exactly at one seed, and every
//! metric a run prints is declared in `BENCHMARK.json` with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (about a minute: every traced run pre-trains and descends a
//! ResNet20-style net twice).

use ccq_perfbench::report::RunResult;
use ccq_perfbench::{run, Opts, Workload};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Byte counts come from process-wide counters, so tests run one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Metrics that are counts of work, not times: a pure function of the
/// seed.
const COUNTS: [&str; 12] = [
    "core.probes_per_step",
    "core.probe_forward_fraction",
    "core.recovery_epochs_per_step",
    "core.rollbacks",
    "tensor.f32_macs_per_step",
    "tensor.int_macs_per_batch",
    "tensor.int_weight_bytes_per_batch",
    "infer.payload_bytes",
    "serve.bytes_written_per_job",
    "serve.daemon_done",
    "serve.daemon_retries",
    "serve.daemon_resumes",
];

fn opts(workload: Workload, seed: u64, trace: bool, tag: &str) -> Opts {
    let work_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}-{seed}"));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    Opts {
        workload,
        seed,
        seconds: 0.05,
        trace,
        work_dir,
    }
}

fn traced(workload: Workload, seed: u64, tag: &str) -> RunResult {
    let o = opts(workload, seed, true, tag);
    let r = run(&o).expect("traced run");
    let _ = std::fs::remove_dir_all(&o.work_dir);
    assert!(
        r.correct,
        "{workload:?}: a traced request failed its output check"
    );
    r
}

fn assert_counts_repeat(workload: Workload) {
    let _serial = serial();
    let a = traced(workload, 11, "a");
    let b = traced(workload, 11, "b");
    for name in COUNTS {
        let (x, y) = (a.get(name), b.get(name));
        assert!(x.is_some(), "{workload:?}: {name} missing");
        assert_eq!(
            x.map(f64::to_bits),
            y.map(f64::to_bits),
            "{workload:?}: {name} differs between two runs at one seed: {x:?} vs {y:?}"
        );
    }
    assert_declared(&a, "per_layer");
}

/// Every metric of `r` appears in `BENCHMARK.json` under `section` with
/// the unit the run printed.
fn assert_declared(r: &RunResult, section: &str) {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let start = spec.find(&format!("\"{section}\"")).expect("section");
    let body = &spec[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let declared = body.matches("\"name\"").count();
    assert_eq!(
        declared,
        r.metrics.len(),
        "{section}: declared vs printed metric count"
    );
    for m in &r.metrics {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(body.contains(&entry), "{section}: {entry} not declared");
    }
}

#[test]
fn serve_counts_repeat_exactly() {
    assert_counts_repeat(Workload::Serve);
}

#[test]
fn infer_counts_repeat_exactly() {
    assert_counts_repeat(Workload::Infer);
}

#[test]
fn infer_end_to_end_metrics_are_declared_and_correct() {
    let _serial = serial();
    let o = opts(Workload::Infer, 3, false, "e2e");
    let r = run(&o).expect("untraced run");
    let _ = std::fs::remove_dir_all(&o.work_dir);
    assert!(r.correct && r.failed == 0, "{r:?}");
    assert_eq!(r.get("ok_ratio"), Some(1.0));
    assert!(
        r.metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0),
        "{r:?}"
    );
    assert_declared(&r, "end_to_end");
}
