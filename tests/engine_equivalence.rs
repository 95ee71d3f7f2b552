//! The refactor acceptance gate: the staged [`ccq::DescentEngine`] must
//! produce **bit-identical** trajectories to the pre-refactor monolithic
//! runner. The golden digests under `crates/core/tests/golden/` were
//! captured from the pre-refactor `CcqRunner` (set `CCQ_BLESS=1` to
//! re-bless after an *intentional* trajectory change); every driver path
//! — `run`, a guarded run with injected faults, and an
//! interrupted+resumed run through the CCQRUNS autosave — must reproduce
//! them exactly: same trace, same step records, same bit pattern, same
//! final weights.

use ccq::{CcqConfig, CcqReport, CcqRunner, FaultPlan, LambdaSchedule, NullSink, RecoveryMode};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::{Network, Sgd};
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::{rng, Rng64};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

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

/// A lossless textual digest of a full trajectory: every float is printed
/// as its exact bit pattern, the network as a fold of every state scalar.
fn digest(report: &CcqReport, net: &mut Network, pi: &[f32]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "baseline {:08x}", report.baseline_accuracy.to_bits());
    let _ = writeln!(s, "final {:08x}", report.final_accuracy.to_bits());
    let _ = writeln!(s, "compression {:016x}", report.final_compression.to_bits());
    let _ = writeln!(s, "pattern {}", report.bit_pattern());
    let _ = writeln!(
        s,
        "pi {}",
        pi.iter()
            .map(|w| format!("{:08x}", w.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    );
    for p in &report.trace {
        let _ = writeln!(
            s,
            "trace {} {:08x} {:08x} {:?}",
            p.epoch,
            p.val_accuracy.to_bits(),
            p.lr.to_bits(),
            p.event
        );
    }
    for r in &report.steps {
        let _ = writeln!(
            s,
            "step {} layer={} kind={:?} label={} from={} to={} a={:08x} q={:08x} r={:08x} e={} c={:016x} l={:08x}",
            r.step,
            r.layer,
            r.kind,
            r.label,
            r.from_bits,
            r.to_bits,
            r.accuracy_before.to_bits(),
            r.accuracy_after_quant.to_bits(),
            r.accuracy_after_recovery.to_bits(),
            r.recovery_epochs,
            r.compression.to_bits(),
            r.lambda.to_bits()
        );
    }
    // FNV-1a fold over every state scalar: any single-bit drift in the
    // final weights, batch-norm stats, or α values changes the digest.
    let mut h: u64 = 0xcbf29ce484222325;
    net.visit_state_tensors(&mut |_, t| {
        for &v in t.as_slice() {
            h = (h ^ v.to_bits() as u64).wrapping_mul(0x100000001b3);
        }
    });
    let _ = writeln!(s, "net {h:016x}");
    s
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/tests/golden")
}

/// Compares a digest against its blessed golden file, or re-blesses it
/// when `CCQ_BLESS` is set.
fn check(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var("CCQ_BLESS").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with CCQ_BLESS=1", name));
    assert_eq!(
        got, want,
        "{name}: trajectory drifted from the pre-refactor golden"
    );
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ccq_engine_equivalence");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let mut prev = path.as_os_str().to_os_string();
    prev.push(".prev");
    let _ = std::fs::remove_file(PathBuf::from(prev));
    path
}

#[test]
fn seeded_run_matches_pre_refactor_golden() {
    let (train, val) = data();
    let mut net = pretrained_net(&train);
    let mut runner = CcqRunner::new(config());
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    let d = digest(&report, &mut net, runner.expert_weights());
    check("seeded_run.digest", &d);
}

#[test]
fn guarded_fault_injected_run_matches_pre_refactor_golden() {
    let (train, val) = data();
    let mut net = pretrained_net(&train);
    let mut runner = CcqRunner::new(config());
    // Poison step 2's first recovery epoch: the guard rolls the step back,
    // halves the LR, and retries — all of it part of the golden trajectory.
    runner.inject_faults(FaultPlan::new().nan_grad_at(2, 0));
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(runner.fault_plan().unwrap().exhausted());
    let d = digest(&report, &mut net, runner.expert_weights());
    check("guarded_run.digest", &d);
}

#[test]
fn interrupted_plus_resumed_run_matches_pre_refactor_golden() {
    let (train, val) = data();

    // Interrupt after step 1 ("the crash") with autosave armed.
    let path = tmp_path("interrupted.ccqruns");
    let mut cfg = config();
    cfg.autosave = Some(path.clone());
    cfg.max_steps = 1;
    let mut int_net = pretrained_net(&train);
    let mut int_runner = CcqRunner::new(cfg);
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let _ = int_runner
        .run(&mut int_net, &mut provider, &val, &mut NullSink)
        .unwrap();

    // Resume under the full-length config on a fresh network: the
    // continued trajectory must equal the uninterrupted golden.
    let mut res_net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    let mut cfg = config();
    cfg.autosave = Some(tmp_path("resumed.ccqruns"));
    let mut res_runner = CcqRunner::new(cfg);
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = res_runner
        .resume(&path, &mut res_net, &mut provider, &val, &mut NullSink)
        .unwrap();
    let d = digest(&report, &mut res_net, res_runner.expert_weights());
    check("seeded_run.digest", &d);
}
