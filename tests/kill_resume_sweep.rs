//! The crash sweep: kill a job at **every** engine phase boundary —
//! including mid-checkpoint via injected autosave write failures — and
//! prove the daemon's recovery path reproduces the uninterrupted run's
//! final `RunState`, event JSONL, and report **byte for byte**.
//!
//! The kill is [`ccq::RunControl::Cancel`] through the production
//! [`execute_job_with_control`] seam: the attempt aborts instantly,
//! leaving artifacts exactly as `SIGKILL` would (modulo torn tails,
//! which `worker`'s unit tests cover separately and which the recovery
//! scan tolerates by construction).

use ccq::{CcqError, FaultPlan, RunControl};
use ccq_serve::{
    execute_job, execute_job_with_control, AttemptOutcome, Dir, JobSpec, ServeError, Spool,
};
use std::fs;
use std::path::{Path, PathBuf};

fn sweep_spec(name: &str) -> JobSpec {
    let mut spec = JobSpec::demo(name, 0);
    spec.max_steps = 3;
    spec
}

fn fresh_spool(tag: &str) -> (PathBuf, Spool) {
    let root = std::env::temp_dir().join(format!("ccq_sweep_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let spool = Spool::new(&root);
    spool.init().expect("init");
    root.metadata().expect("spool root exists");
    (root, spool)
}

fn claim(spool: &Spool, spec: &JobSpec) {
    spool.enqueue(spec).expect("enqueue");
    spool
        .move_job(&spec.name, Dir::Pending, Dir::Running)
        .expect("claim");
}

struct Artifacts {
    state: Vec<u8>,
    events: String,
    report: String,
}

/// Reads a job's final artifacts, normalizing the spool root out of the
/// event log (autosave events embed absolute paths).
fn artifacts(spool: &Spool, root: &Path, id: &str) -> Artifacts {
    let events = fs::read_to_string(spool.events_path(Dir::Running, id)).expect("events");
    Artifacts {
        state: fs::read(spool.state_path(Dir::Running, id)).expect("state"),
        events: events.replace(&root.display().to_string(), "<root>"),
        report: fs::read_to_string(spool.report_path(Dir::Running, id)).expect("report"),
    }
}

/// FNV-1a over the normalized artifacts — the golden digest asserted
/// identical across every kill point.
fn digest(a: &Artifacts) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [a.state.as_slice(), a.events.as_bytes(), a.report.as_bytes()] {
        for b in chunk {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs the job, canceling before the `cancel_at`-th engine phase.
/// Returns true when the run finished before reaching that phase.
fn run_killed_at(spool: &Spool, spec: &JobSpec, cancel_at: usize) -> bool {
    let mut n = 0usize;
    let res = execute_job_with_control(
        spool,
        spec,
        &mut |_, _| {
            let c = if n == cancel_at {
                RunControl::Cancel
            } else {
                RunControl::Continue
            };
            n += 1;
            c
        },
        None,
    );
    match res {
        Ok(r) => {
            assert_eq!(r.outcome, AttemptOutcome::Finished, "never pauses here");
            true
        }
        Err(ServeError::Run(CcqError::Canceled { .. })) => false,
        Err(other) => panic!("kill at phase {cancel_at}: unexpected error {other}"),
    }
}

#[test]
fn kill_at_every_phase_boundary_recovers_byte_identical() {
    // Reference: one uninterrupted run.
    let (ref_root, ref_spool) = fresh_spool("ref");
    let spec = sweep_spec("sweep");
    claim(&ref_spool, &spec);
    let res = execute_job(&ref_spool, &spec, &|| false, None).expect("reference run");
    assert_eq!(res.outcome, AttemptOutcome::Finished);
    let reference = artifacts(&ref_spool, &ref_root, "sweep");
    let golden = digest(&reference);
    // Phase count: re-drive counting phases (the reference consumed its
    // engine, so count via a cancel point far beyond the end).
    let (count_root, count_spool) = fresh_spool("count");
    claim(&count_spool, &spec);
    let mut phases = 0usize;
    execute_job_with_control(
        &count_spool,
        &spec,
        &mut |_, _| {
            phases += 1;
            RunControl::Continue
        },
        None,
    )
    .expect("counting run");
    fs::remove_dir_all(&count_root).ok();
    assert!(
        phases > 8,
        "sweep workload must span several steps, got {phases}"
    );

    for k in 0..phases {
        let (root, spool) = fresh_spool(&format!("k{k}"));
        claim(&spool, &spec);
        let finished = run_killed_at(&spool, &spec, k);
        assert!(!finished, "cancel point {k} of {phases} must interrupt");
        // The daemon's recovery path: reclaim and run to completion.
        let res = execute_job(&spool, &spec, &|| false, None)
            .unwrap_or_else(|e| panic!("recovery after kill at {k} failed: {e}"));
        assert_eq!(res.outcome, AttemptOutcome::Finished);
        let got = artifacts(&spool, &root, "sweep");
        assert_eq!(
            got.state, reference.state,
            "RunState bytes diverge after kill at {k}"
        );
        assert_eq!(
            got.events, reference.events,
            "event log diverges after kill at {k}"
        );
        assert_eq!(
            got.report, reference.report,
            "report diverges after kill at {k}"
        );
        assert_eq!(
            digest(&got),
            golden,
            "golden digest diverges after kill at {k}"
        );
        fs::remove_dir_all(&root).ok();
    }
    fs::remove_dir_all(&ref_root).ok();
}

#[test]
fn double_kill_with_resumed_run_killed_again_recovers_byte_identical() {
    let (ref_root, ref_spool) = fresh_spool("dref");
    let spec = sweep_spec("double");
    claim(&ref_spool, &spec);
    execute_job(&ref_spool, &spec, &|| false, None).expect("reference run");
    let reference = artifacts(&ref_spool, &ref_root, "double");

    let (root, spool) = fresh_spool("dkill");
    claim(&spool, &spec);
    assert!(!run_killed_at(&spool, &spec, 7), "first kill");
    assert!(!run_killed_at(&spool, &spec, 2), "second kill mid-resume");
    let res = execute_job(&spool, &spec, &|| false, None).expect("final recovery");
    assert!(res.resumed);
    let got = artifacts(&spool, &root, "double");
    assert_eq!(got.state, reference.state);
    assert_eq!(got.events, reference.events);
    assert_eq!(got.report, reference.report);
    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&ref_root).ok();
}

#[test]
fn mid_checkpoint_write_faults_then_recovery_is_byte_identical() {
    let (ref_root, ref_spool) = fresh_spool("fref");
    let spec = sweep_spec("midckpt");
    claim(&ref_spool, &spec);
    execute_job(&ref_spool, &spec, &|| false, None).expect("reference run");
    let reference = artifacts(&ref_spool, &ref_root, "midckpt");

    // Four consecutive autosave write failures exceed the core's default
    // retry budget (3), so the attempt dies *inside* the checkpoint
    // phase with CheckpointIo — the injected-fault analogue of SIGKILL
    // mid-save.
    let (root, spool) = fresh_spool("fkill");
    claim(&spool, &spec);
    let plan = FaultPlan::new().fail_writes(4);
    match execute_job(&spool, &spec, &|| false, Some(plan)) {
        Err(ServeError::Run(CcqError::CheckpointIo(msg))) => {
            assert!(msg.contains("injected"), "unexpected I/O error: {msg}");
        }
        other => panic!("expected a mid-checkpoint CheckpointIo, got {other:?}"),
    }
    let res = execute_job(&spool, &spec, &|| false, None).expect("recovery");
    assert_eq!(res.outcome, AttemptOutcome::Finished);
    let got = artifacts(&spool, &root, "midckpt");
    assert_eq!(got.state, reference.state);
    assert_eq!(got.events, reference.events);
    assert_eq!(got.report, reference.report);
    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&ref_root).ok();
}
