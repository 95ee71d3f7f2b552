//! The resume acceptance gate: a run interrupted at a step boundary and
//! resumed from its autosaved [`RunState`] must be bit-for-bit identical
//! to a run that never stopped — same Hedge weights, same bit
//! assignment, same learning curve, same final metrics.

use ccq::{
    CcqConfig, CcqError, CcqRunner, LambdaSchedule, NullSink, RecoveryMode, RunState, SearcherKind,
    SearcherState,
};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::{Network, Sgd};
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::{rng, Rng64};
use std::path::PathBuf;

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

/// A fresh network pre-trained exactly the way the uninterrupted run's
/// network was — resume only needs the architecture, but building it the
/// same way keeps the test honest about what the checkpoint restores.
fn pretrained_net(train: &[Batch]) -> Network {
    let mut net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(2);
    for _ in 0..15 {
        let _ = ccq_nn::train::train_epoch(&mut net, train, &mut opt, &mut r).unwrap();
    }
    net
}

fn config(autosave: Option<PathBuf>) -> CcqConfig {
    CcqConfig {
        ladder: BitLadder::new(&[8, 4]).unwrap(),
        probe_rounds: 3,
        recovery: RecoveryMode::Manual { epochs: 2 },
        lr: 0.02,
        max_steps: 20,
        lambda: LambdaSchedule::constant(0.3),
        autosave,
        ..Default::default()
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ccq_resume_determinism");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let mut prev = path.as_os_str().to_os_string();
    prev.push(".prev");
    let _ = std::fs::remove_file(PathBuf::from(prev));
    path
}

#[test]
fn interrupted_plus_resumed_equals_uninterrupted_bit_for_bit() {
    let (train, val) = data();

    // Reference: one uninterrupted run.
    let mut full_net = pretrained_net(&train);
    let mut full_runner = CcqRunner::new(config(None));
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let full = full_runner
        .run(&mut full_net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(
        full.steps.len() >= 2,
        "need at least two steps to interrupt"
    );

    // Interrupted: same run, forced to stop after step 1 ("the crash").
    let path = tmp_path("interrupted.ccqruns");
    let mut cfg = config(Some(path.clone()));
    cfg.max_steps = 1;
    let mut int_net = pretrained_net(&train);
    let mut int_runner = CcqRunner::new(cfg);
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let _ = int_runner
        .run(&mut int_net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert_eq!(RunState::load(&path).unwrap().next_step, 2);

    // Resumed: a fresh runner and a fresh (architecture-only) network
    // continue from the autosave under the full-length config.
    let mut res_net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    let mut res_runner = CcqRunner::new(config(Some(tmp_path("resumed.ccqruns"))));
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let resumed = res_runner
        .resume(&path, &mut res_net, &mut provider, &val, &mut NullSink)
        .unwrap();

    // Bit-for-bit identity with the uninterrupted run.
    assert_eq!(resumed.steps, full.steps);
    assert_eq!(resumed.trace, full.trace);
    assert_eq!(resumed.bit_assignment, full.bit_assignment);
    assert_eq!(
        resumed.final_accuracy.to_bits(),
        full.final_accuracy.to_bits()
    );
    assert_eq!(
        resumed.baseline_accuracy.to_bits(),
        full.baseline_accuracy.to_bits()
    );
    assert_eq!(
        resumed.final_compression.to_bits(),
        full.final_compression.to_bits()
    );
    let full_pi: Vec<u32> = full_runner
        .expert_weights()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    let resumed_pi: Vec<u32> = res_runner
        .expert_weights()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    assert_eq!(resumed_pi, full_pi, "Hedge weights must match bit-for-bit");

    // The networks themselves agree scalar-for-scalar.
    let mut a = Vec::new();
    full_net.visit_state_tensors(&mut |t| a.extend(t.as_slice().iter().map(|v| v.to_bits())));
    let mut b = Vec::new();
    res_net.visit_state_tensors(&mut |t| b.extend(t.as_slice().iter().map(|v| v.to_bits())));
    assert_eq!(a, b);
}

/// A pre-searcher (CCQRUNS v1) checkpoint must resume exactly as a v2
/// Hedge checkpoint of the same run: same steps, same trace, same final
/// weights, scalar for scalar.
#[test]
fn legacy_v1_checkpoint_resumes_as_hedge_bit_for_bit() {
    let (train, val) = data();

    // Interrupt a Hedge run after one step to get a v2 autosave.
    let v2_path = tmp_path("v1_compat_source.ccqruns");
    let mut cfg = config(Some(v2_path.clone()));
    cfg.max_steps = 1;
    let mut net = pretrained_net(&train);
    let mut runner = CcqRunner::new(cfg);
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let _ = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();

    // Downgrade the autosave to the legacy v1 layout.
    let state = RunState::load(&v2_path).unwrap();
    assert!(matches!(state.searcher, SearcherState::Hedge { .. }));
    let v1_path = tmp_path("v1_compat_legacy.ccqruns");
    std::fs::write(&v1_path, state.to_legacy_v1_bytes()).unwrap();

    // Resume both under the full-length default (Hedge) config.
    let resume = |from: &std::path::Path, save: &str| {
        let mut net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
        let mut runner = CcqRunner::new(config(Some(tmp_path(save))));
        let t = train.clone();
        let mut provider = move |_: &mut Rng64| t.clone();
        let report = runner
            .resume(from, &mut net, &mut provider, &val, &mut NullSink)
            .unwrap();
        let mut scalars = Vec::new();
        net.visit_state_tensors(&mut |t| {
            scalars.extend(t.as_slice().iter().map(|v| v.to_bits()));
        });
        (report, scalars)
    };
    let (from_v2, net_v2) = resume(&v2_path, "v1_compat_resume_a.ccqruns");
    let (from_v1, net_v1) = resume(&v1_path, "v1_compat_resume_b.ccqruns");

    assert_eq!(from_v1.steps, from_v2.steps);
    assert_eq!(from_v1.trace, from_v2.trace);
    assert_eq!(from_v1.bit_assignment, from_v2.bit_assignment);
    assert_eq!(from_v1.rollbacks, from_v2.rollbacks);
    assert_eq!(
        from_v1.final_accuracy.to_bits(),
        from_v2.final_accuracy.to_bits()
    );
    assert_eq!(
        net_v1, net_v2,
        "resumed networks must agree scalar-for-scalar"
    );
}

/// Same spec, same seed, twice — every searcher must reproduce its run
/// exactly, down to the autosaved run-state bytes.
#[test]
fn every_searcher_is_deterministic_under_a_fixed_seed() {
    let (train, val) = data();
    for kind in [
        SearcherKind::ReleqRl,
        SearcherKind::ZeroBit,
        SearcherKind::OneShot,
    ] {
        let run = |save: &str| {
            let path = tmp_path(save);
            let mut cfg = config(Some(path.clone()));
            cfg.searcher = kind;
            let mut net = pretrained_net(&train);
            let mut runner = CcqRunner::new(cfg);
            let t = train.clone();
            let mut provider = move |_: &mut Rng64| t.clone();
            let report = runner
                .run(&mut net, &mut provider, &val, &mut NullSink)
                .unwrap();
            (report, std::fs::read(&path).unwrap())
        };
        let (report_a, bytes_a) = run("searcher_det_a.ccqruns");
        let (report_b, bytes_b) = run("searcher_det_b.ccqruns");
        assert_eq!(report_a.steps, report_b.steps, "{kind}: steps drifted");
        assert_eq!(
            report_a.final_accuracy.to_bits(),
            report_b.final_accuracy.to_bits(),
            "{kind}: final accuracy drifted"
        );
        assert_eq!(bytes_a, bytes_b, "{kind}: run-state bytes drifted");
        let state = RunState::from_bytes(&bytes_a).unwrap();
        assert_eq!(
            state.searcher.kind_str(),
            kind.as_str(),
            "autosave must carry the searcher's own tagged state"
        );
    }
}

#[test]
fn resume_rejects_a_mismatched_config() {
    let (train, val) = data();
    let path = tmp_path("mismatch.ccqruns");
    let mut cfg = config(Some(path.clone()));
    cfg.max_steps = 1;
    let mut net = pretrained_net(&train);
    let mut runner = CcqRunner::new(cfg);
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let _ = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();

    // Different seed.
    let mut other = config(None);
    other.seed = 99;
    let mut r2 = CcqRunner::new(other);
    let mut fresh = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let err = r2
        .resume(&path, &mut fresh, &mut provider, &val, &mut NullSink)
        .unwrap_err();
    assert!(matches!(err, CcqError::ResumeMismatch(_)), "got {err:?}");

    // Different ladder.
    let mut other = config(None);
    other.ladder = BitLadder::new(&[8, 4, 2]).unwrap();
    let mut r3 = CcqRunner::new(other);
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let err = r3
        .resume(&path, &mut fresh, &mut provider, &val, &mut NullSink)
        .unwrap_err();
    assert!(matches!(err, CcqError::ResumeMismatch(_)), "got {err:?}");

    // Different architecture.
    let mut small = mlp(&[8, 8, 4], PolicyKind::Pact, 5);
    let mut r4 = CcqRunner::new(config(None));
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let err = r4
        .resume(&path, &mut small, &mut provider, &val, &mut NullSink)
        .unwrap_err();
    assert!(matches!(err, CcqError::ResumeMismatch(_)), "got {err:?}");
}

#[test]
fn resume_from_a_missing_file_is_a_checkpoint_io_error() {
    let (train, val) = data();
    let mut net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    let mut runner = CcqRunner::new(config(None));
    let mut provider = move |_: &mut Rng64| train.clone();
    let err = runner
        .resume(
            &tmp_path("does_not_exist.ccqruns"),
            &mut net,
            &mut provider,
            &val,
            &mut NullSink,
        )
        .unwrap_err();
    assert!(matches!(err, CcqError::CheckpointIo(_)), "got {err:?}");
}
