//! Integration tests for the divergence guard and the `FaultPlan`
//! harness: injected NaN gradients trigger rollback/retry or quarantine,
//! injected write failures are retried, and the last-good run-state
//! generation always survives a torn write.

use ccq::fault::{corrupt_byte, truncate_file};
use ccq::{
    CcqConfig, CcqError, CcqRunner, FaultPlan, GuardPolicy, LambdaSchedule, NullSink, RecoveryMode,
    RunState,
};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::Network;
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::codec::prev_path;
use ccq_tensor::Rng64;
use std::path::PathBuf;

fn setup() -> (Network, Vec<Batch>, Vec<Batch>) {
    let ds = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 48,
        std: 0.35,
        seed: 11,
    });
    let (train, val) = ds.split_at(128);
    (
        mlp(&[8, 16, 4], PolicyKind::Pact, 5),
        train.batches(16),
        val.batches(32),
    )
}

fn fast_config() -> CcqConfig {
    CcqConfig {
        ladder: BitLadder::new(&[8, 4]).unwrap(),
        probe_rounds: 2,
        recovery: RecoveryMode::Manual { epochs: 2 },
        lr: 0.02,
        max_steps: 20,
        lambda: LambdaSchedule::constant(0.3),
        ..Default::default()
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ccq_guarded_descent");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_path(&path));
    path
}

#[test]
fn nan_injection_rolls_back_and_the_run_completes() {
    let (mut net, train, val) = setup();
    let mut runner = CcqRunner::new(fast_config());
    // Poison step 1's first recovery epoch; the guard must roll back,
    // halve the LR, and retry clean.
    runner.inject_faults(FaultPlan::new().nan_grad_at(1, 0));
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(
        runner.fault_plan().unwrap().exhausted(),
        "the scheduled fault must actually fire"
    );
    assert!(net.all_finite(), "rollback must leave no NaN behind");
    assert!(report.final_accuracy.is_finite());
    assert_eq!(report.steps.len(), 2, "both layers still descend to 4b");
    for s in &report.steps {
        assert!(s.accuracy_after_recovery.is_finite());
    }
    // The retried step ran at a halved base LR.
    let lrs: Vec<f32> = report.trace.iter().map(|p| p.lr).collect();
    assert!(
        lrs.iter().any(|&lr| (lr - 0.01).abs() < 1e-7),
        "retry should fine-tune at the halved rate, lrs: {lrs:?}"
    );
}

#[test]
fn quarantine_redraws_a_different_expert_and_completes() {
    let (mut net, train, val) = setup();
    let mut cfg = fast_config();
    cfg.guard = GuardPolicy::Quarantine { max_retries: 2 };
    let mut runner = CcqRunner::new(cfg);
    runner.inject_faults(FaultPlan::new().nan_grad_at(1, 0));
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(runner.fault_plan().unwrap().exhausted());
    assert!(net.all_finite());
    assert_eq!(
        report.steps.len(),
        2,
        "quarantine is per-step; the expert competes again later"
    );
}

#[test]
fn exhausted_retries_surface_a_diverged_error() {
    let (mut net, train, val) = setup();
    let mut cfg = fast_config();
    cfg.guard = GuardPolicy::RollbackRetry {
        max_retries: 1,
        lr_factor: 0.5,
    };
    let mut runner = CcqRunner::new(cfg);
    // Two scheduled faults at the same coordinates: the first attempt and
    // its only retry both diverge.
    runner.inject_faults(FaultPlan::new().nan_grad_at(1, 0).nan_grad_at(1, 0));
    let mut provider = move |_: &mut Rng64| train.clone();
    let err = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap_err();
    assert_eq!(
        err,
        CcqError::Diverged {
            step: 1,
            retries: 1
        }
    );
}

#[test]
fn guard_off_preserves_the_unguarded_poisoned_behavior() {
    let (mut net, train, val) = setup();
    let mut cfg = fast_config();
    cfg.guard = GuardPolicy::Off;
    let mut runner = CcqRunner::new(cfg);
    runner.inject_faults(FaultPlan::new().nan_grad_at(1, 0));
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(
        !net.all_finite(),
        "without the guard the NaN propagates through the run"
    );
    assert_eq!(report.steps.len(), 2, "the unguarded loop still completes");
}

#[test]
fn failed_autosave_writes_are_retried_until_one_succeeds() {
    let (mut net, train, val) = setup();
    let path = tmp_path("retried_writes.ccqruns");
    let mut cfg = fast_config();
    cfg.autosave = Some(path.clone());
    cfg.autosave_retries = 3;
    let mut runner = CcqRunner::new(cfg);
    runner.inject_faults(FaultPlan::new().fail_writes(2));
    let mut provider = move |_: &mut Rng64| train.clone();
    let report = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    assert!(runner.fault_plan().unwrap().exhausted());
    // The final autosave reflects the completed run.
    let state = RunState::load(&path).unwrap();
    assert_eq!(state.next_step, report.steps.len() + 1);
}

#[test]
fn write_failures_beyond_the_retry_budget_error_out() {
    let (mut net, train, val) = setup();
    let mut cfg = fast_config();
    cfg.autosave = Some(tmp_path("budget_exceeded.ccqruns"));
    cfg.autosave_retries = 1;
    let mut runner = CcqRunner::new(cfg);
    runner.inject_faults(FaultPlan::new().fail_writes(2));
    let mut provider = move |_: &mut Rng64| train.clone();
    let err = runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap_err();
    assert!(matches!(err, CcqError::CheckpointIo(_)), "got {err:?}");
}

#[test]
fn last_good_generation_survives_a_torn_current_file() {
    let (mut net, train, val) = setup();
    let path = tmp_path("torn_write.ccqruns");
    let mut cfg = fast_config();
    cfg.autosave = Some(path.clone());
    let mut runner = CcqRunner::new(cfg);
    let mut provider = move |_: &mut Rng64| train.clone();
    runner
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    let current = RunState::load(&path).unwrap();
    let prev = RunState::load(&prev_path(&path)).unwrap();
    assert!(prev.next_step < current.next_step);

    // Tear the current file mid-write; the loader falls back to the
    // retained previous generation.
    truncate_file(&path, 17).unwrap();
    let recovered = RunState::load_with_fallback(&path).unwrap();
    assert_eq!(recovered, prev);

    // Silent corruption of the magic is also caught and falls back.
    std::fs::write(&path, current.to_bytes()).unwrap();
    corrupt_byte(&path, 2, 0xFF).unwrap();
    let recovered = RunState::load_with_fallback(&path).unwrap();
    assert_eq!(recovered, prev);
}

#[test]
fn injected_read_faults_reach_the_resume_load() {
    let (mut net, train, val) = setup();
    let path = tmp_path("read_faults.ccqruns");
    let mut cfg = fast_config();
    cfg.autosave = Some(path.clone());
    let t = train.clone();
    let mut provider = move |_: &mut Rng64| t.clone();
    let report = CcqRunner::new(cfg)
        .run(&mut net, &mut provider, &val, &mut NullSink)
        .unwrap();
    let resume = |plan: FaultPlan| {
        let mut runner = CcqRunner::new(fast_config());
        runner.inject_faults(plan);
        let t = train.clone();
        let mut provider = move |_: &mut Rng64| t.clone();
        let result = runner.resume(&path, &mut setup().0, &mut provider, &val, &mut NullSink);
        assert!(runner.fault_plan().unwrap().exhausted());
        result
    };

    // A failed read fails the resume without trying the previous
    // generation.
    match resume(FaultPlan::new().fail_reads(1)) {
        Err(CcqError::CheckpointIo(msg)) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("expected an injected CheckpointIo, got {other:?}"),
    }
    // A corrupted read flips one mid-file byte of the current
    // generation. Where the byte breaks the structure the load falls
    // back to `.prev`; where it lands in tensor data it decodes, since
    // no checksum covers the values. Either way the resume returns.
    let resumed = resume(FaultPlan::new().corrupt_reads(1)).unwrap();
    assert_eq!(resumed.bit_pattern(), report.bit_pattern());
}
