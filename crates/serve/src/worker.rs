//! The worker: executes one claimed job as a [`ccq::DescentEngine`] run
//! with autosave armed, streaming every [`DescentEvent`] to a durable
//! per-job JSONL file.
//!
//! # Restart-recovery contract
//!
//! The engine fsyncs the `RunState` *before* emitting the `Autosave`
//! event, and this worker fsyncs the event log *on* every `Autosave`
//! line, so after a crash the state file is always at or one autosave
//! ahead of the log. Recovery therefore:
//!
//! 1. scans the event log's valid prefix for `Autosave` records
//!    (offset + `next_step` of each);
//! 2. loads both state generations (`.ccqruns`, `.ccqruns.prev`) and
//!    picks the furthest-along one whose `next_step` has a matching
//!    `Autosave` record in the log;
//! 3. truncates the log to the end of that record and resumes from the
//!    state — the engine replays bit-for-bit, and [`StitchSink`]
//!    suppresses the resumed engine's duplicated
//!    `PhaseStarted(Checkpoint)`/`Autosave` pair so the stitched log is
//!    byte-identical to one from an uninterrupted run;
//! 4. falls back to a from-scratch restart (wiping the artifacts) when
//!    no state matches the log — which, because every run is
//!    deterministic, still reproduces the exact same bytes.

use crate::error::{io_err, Result, ServeError};
use crate::spec::JobSpec;
use crate::spool::{atomic_write_text, Dir, Spool};
use ccq::event::event_json;
use ccq::{
    parse_event_line, CcqError, CcqRunner, DescentEvent, DriveOutcome, EventSink, FaultPlan,
    RunControl, RunState, StartPoint,
};
use ccq_infer::PackedModel;
use ccq_nn::train::train_epoch;
use ccq_nn::Sgd;
use ccq_tensor::{codec, rng, Rng64};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// How an attempt ended (errors travel via `Result` instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The descent finished; the report sidecar is written.
    Finished,
    /// Graceful shutdown paused the run at an autosave boundary; the
    /// job stays in `running/` for the next daemon.
    Paused {
        /// The step the parked state resumes from.
        next_step: usize,
    },
}

/// Result of one attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptResult {
    /// Whether this attempt resumed from an autosaved state (vs a
    /// from-scratch start).
    pub resumed: bool,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// One `Autosave` record found in an event log's valid prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPoint {
    /// Byte offset one past the record's newline — the truncation
    /// target that makes the log end exactly at this autosave.
    pub end_offset: u64,
    /// The `next_step` the paired state resumes from.
    pub next_step: usize,
}

/// Scans an event log for autosave recovery points. The scan walks only
/// complete, parseable lines from the start; a torn tail (crash mid
/// `write`) or any later garbage is ignored, never an error. A missing
/// or unreadable file reads as "no recovery points".
pub fn scan_recovery_points(events_path: &Path) -> Vec<RecoveryPoint> {
    let Ok(bytes) = fs::read(events_path) else {
        return Vec::new();
    };
    let mut points = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|b| *b == b'\n') else {
            break; // torn tail: no terminating newline
        };
        let end = offset + nl + 1;
        let Ok(line) = std::str::from_utf8(&bytes[offset..end - 1]) else {
            break;
        };
        if !line.trim().is_empty() {
            let Ok(ev) = parse_event_line(line) else {
                break; // corrupt line: the valid prefix ends here
            };
            if let DescentEvent::Autosave { next_step, .. } = ev {
                points.push(RecoveryPoint {
                    end_offset: end as u64,
                    next_step,
                });
            }
        }
        offset = end;
    }
    points
}

/// Picks the resume state (see the [module docs](self)) and truncates
/// the event log to its matching autosave record. Returns `None` — and
/// leaves truncation to the fresh-start path — when no state generation
/// matches the log.
///
/// # Errors
///
/// Returns [`ServeError::Io`] only if the log truncation itself fails.
fn find_recovery(state_path: &Path, events_path: &Path) -> Result<Option<RunState>> {
    let points = scan_recovery_points(events_path);
    let mut candidates: Vec<RunState> = Vec::new();
    for p in [state_path.to_path_buf(), codec::prev_path(state_path)] {
        if let Ok(s) = RunState::load(&p) {
            candidates.push(s);
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.next_step));
    for cand in candidates {
        if let Some(pt) = points
            .iter()
            .rev()
            .find(|pt| pt.next_step == cand.next_step)
        {
            truncate_file(events_path, pt.end_offset)?;
            return Ok(Some(cand));
        }
    }
    Ok(None)
}

/// Truncates `path` to `len` bytes and fsyncs it.
fn truncate_file(path: &Path, len: u64) -> Result<()> {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("open for truncate", path, e))?;
    f.set_len(len).map_err(|e| io_err("truncate", path, e))?;
    f.sync_all().map_err(|e| io_err("fsync", path, e))?;
    Ok(())
}

/// Removes a file, treating "already gone" as success.
fn remove_if_present(path: &Path) -> Result<()> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err("remove", path, e)),
    }
}

/// Durable JSONL event sink with resume stitching. Every event is
/// written and flushed immediately; `Autosave` lines are additionally
/// fsynced so the log's recovery points are crash-durable. When opened
/// in resume mode it suppresses events up to and including the resumed
/// engine's first (duplicate) `Autosave`.
///
/// `EventSink::on_event` cannot return errors, so the first write
/// failure is latched and surfaced by [`StitchSink::finish`].
pub struct StitchSink {
    file: fs::File,
    path: PathBuf,
    skip_until_autosave: bool,
    error: Option<String>,
}

impl StitchSink {
    /// Opens the log for appending (creating it if absent). `resuming`
    /// arms the duplicate-suppression described above.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the file cannot be opened.
    pub fn open(path: &Path, resuming: bool) -> Result<StitchSink> {
        let file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        Ok(StitchSink {
            file,
            path: path.to_path_buf(),
            skip_until_autosave: resuming,
            error: None,
        })
    }

    /// Fsyncs the log and surfaces any latched write error.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for a write/flush/fsync failure.
    pub fn finish(mut self) -> Result<()> {
        if let Err(e) = self.file.sync_all() {
            return Err(io_err("fsync", &self.path, e));
        }
        match self.error.take() {
            Some(e) => Err(ServeError::Io(e)),
            None => Ok(()),
        }
    }
}

impl EventSink for StitchSink {
    fn on_event(&mut self, ev: &DescentEvent) {
        if self.skip_until_autosave {
            if matches!(ev, DescentEvent::Autosave { .. }) {
                self.skip_until_autosave = false;
            }
            return;
        }
        if self.error.is_some() {
            return;
        }
        let mut line = event_json(ev);
        line.push('\n');
        let res = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| {
                if matches!(ev, DescentEvent::Autosave { .. }) {
                    self.file.sync_all()
                } else {
                    Ok(())
                }
            });
        if let Err(e) = res {
            self.error = Some(format!("write event log {}: {e}", self.path.display()));
        }
    }
}

/// Executes one attempt of a claimed job (its `.job` must be in
/// `running/`). `shutdown` is polled once per engine phase; when it
/// reports true the run pauses at the next autosave boundary and the
/// attempt returns [`AttemptOutcome::Paused`]. `fault` optionally arms
/// the core's deterministic fault plan (crash harnesses).
///
/// # Errors
///
/// Returns [`ServeError::Spec`] for an unrunnable spec,
/// [`ServeError::Io`] for event-log failures, and [`ServeError::Run`]
/// for engine errors — all classified by the supervisor.
pub fn execute_job(
    spool: &Spool,
    spec: &JobSpec,
    shutdown: &dyn Fn() -> bool,
    fault: Option<FaultPlan>,
) -> Result<AttemptResult> {
    execute_job_with_control(
        spool,
        spec,
        &mut |_, _| {
            if shutdown() {
                RunControl::Pause
            } else {
                RunControl::Continue
            }
        },
        fault,
    )
}

/// The full-control variant of [`execute_job`]: the crash-harness seam.
/// `control` is consulted before every engine phase and may `Pause`
/// (graceful drain), `Cancel` (simulated `SIGKILL`: the attempt aborts
/// with [`CcqError::Canceled`], leaving artifacts exactly as a killed
/// process would), or `Continue`. Everything else — recovery scan, log
/// stitching, durability — is the production path.
///
/// # Errors
///
/// Same contract as [`execute_job`], plus [`CcqError::Canceled`] (as
/// [`ServeError::Run`]) when `control` cancels.
pub fn execute_job_with_control(
    spool: &Spool,
    spec: &JobSpec,
    control: &mut dyn FnMut(ccq::Phase, usize) -> RunControl,
    fault: Option<FaultPlan>,
) -> Result<AttemptResult> {
    let id = &spec.name;
    let state_path = spool.state_path(Dir::Running, id);
    let events_path = spool.events_path(Dir::Running, id);

    let mut config = spec.to_config()?;
    config.autosave = Some(state_path.clone());

    let resume_state = find_recovery(&state_path, &events_path)?;
    let resumed = resume_state.is_some();
    let (train_b, val_b) = spec.build_batches();
    let mut net = spec.build_net();
    if !resumed {
        // From-scratch start: wipe any partial artifacts from a crashed
        // earlier attempt, then pre-train. Resumed runs skip pre-training
        // entirely — the autosaved state carries the trained weights.
        remove_if_present(&state_path)?;
        remove_if_present(&codec::prev_path(&state_path))?;
        remove_if_present(&events_path)?;
        let mut opt = Sgd::new(spec.pretrain_lr).momentum(spec.pretrain_momentum);
        let mut r = rng(spec.pretrain_seed);
        for _ in 0..spec.pretrain_epochs {
            train_epoch(&mut net, &train_b, &mut opt, &mut r).map_err(CcqError::from)?;
        }
    }

    let mut runner = CcqRunner::new(config);
    if let Some(plan) = fault {
        runner.inject_faults(plan);
    }
    let mut sink = StitchSink::open(&events_path, resumed)?;
    let mut provider = move |_: &mut Rng64| train_b.clone();
    let start = match resume_state {
        Some(s) => StartPoint::FromRunState(Box::new(s)),
        None => StartPoint::Fresh,
    };
    let driven = {
        let engine = runner.engine(&mut net, &mut provider, &val_b, &mut sink, start)?;
        engine.run_with_control(control)
    };
    // Surface log-write failures even when the engine itself succeeded:
    // a log with silently missing lines would break the byte-identity
    // contract.
    let finish = sink.finish();
    let driven = driven?;
    finish?;
    match driven {
        DriveOutcome::Finished(report) => {
            let pack_lines = write_pack_artifact(spool, spec, &mut net)?;
            let text = format!("{report}\n{pack_lines}");
            atomic_write_text(&spool.report_path(Dir::Running, id), &text)?;
            Ok(AttemptResult {
                resumed,
                outcome: AttemptOutcome::Finished,
            })
        }
        DriveOutcome::Paused { next_step } => Ok(AttemptResult {
            resumed,
            outcome: AttemptOutcome::Paused { next_step },
        }),
    }
}

/// Packs the finished network into the job's `.ccqpack` sidecar and
/// returns the report lines describing it. The artifact is a pure
/// function of the final weights and specs, so a resumed run — which
/// replays to bit-identical weights — writes a byte-identical artifact
/// and report, preserving the daemon's restart-resume contract.
fn write_pack_artifact(spool: &Spool, spec: &JobSpec, net: &mut ccq_nn::Network) -> Result<String> {
    let id = &spec.name;
    let arch = ccq_infer::arch::mlp_arch(&spec.mlp_dims);
    let pack = |e: ccq_infer::InferError| ServeError::Io(format!("pack job {id:?}: {e}"));
    let model = PackedModel::capture(net, &arch).map_err(pack)?;
    model
        .save_atomic(&spool.pack_path(Dir::Running, id))
        .map_err(pack)?;
    Ok(format!(
        "packed artifact: {id}.ccqpack\n{}",
        model.summary()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_spool(tag: &str) -> (PathBuf, Spool) {
        let root = std::env::temp_dir().join(format!("ccq_worker_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spool = Spool::new(&root);
        spool.init().expect("init");
        (root, spool)
    }

    fn claimed_demo(spool: &Spool, name: &str, variant: u64) -> JobSpec {
        let mut spec = JobSpec::demo(name, variant);
        spec.max_steps = 3; // keep unit tests quick
        spool.enqueue(&spec).expect("enqueue");
        spool
            .move_job(name, Dir::Pending, Dir::Running)
            .expect("claim");
        spec
    }

    #[test]
    fn fresh_job_runs_to_completion_with_artifacts() {
        let (root, spool) = temp_spool("fresh");
        let spec = claimed_demo(&spool, "j", 0);
        let res = execute_job(&spool, &spec, &|| false, None).expect("run");
        assert!(!res.resumed);
        assert_eq!(res.outcome, AttemptOutcome::Finished);
        assert!(spool.state_path(Dir::Running, "j").exists());
        assert!(spool.report_path(Dir::Running, "j").exists());
        // The deployable artifact rides along and is immediately
        // loadable and runnable.
        let model = PackedModel::load_with_fallback(&spool.pack_path(Dir::Running, "j"))
            .expect("pack artifact loads");
        let mut deployed = model.instantiate().expect("instantiate");
        let x = ccq_tensor::Tensor::ones(&[1, spec.mlp_dims[0]]);
        let y = deployed
            .forward_packed(&x, ccq_nn::PackedExec::Dequant)
            .expect("packed forward");
        assert_eq!(y.shape(), &[1, *spec.mlp_dims.last().unwrap()]);
        let report = fs::read_to_string(spool.report_path(Dir::Running, "j")).expect("report");
        assert!(report.contains("packed artifact: j.ccqpack"), "{report}");
        assert!(report.contains("CCQPACK mlp:8x16x16x4:"), "{report}");
        let log = fs::read_to_string(spool.events_path(Dir::Running, "j")).expect("log");
        assert!(log.contains("\"event\":\"autosave\""));
        assert!(log
            .lines()
            .last()
            .expect("lines")
            .contains("\"event\":\"finished\""));
        let points = scan_recovery_points(&spool.events_path(Dir::Running, "j"));
        assert!(!points.is_empty());
        let steps: Vec<usize> = points.iter().map(|p| p.next_step).collect();
        let mut sorted = steps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(steps, sorted, "autosave next_steps strictly increase");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shutdown_pauses_then_resume_reproduces_reference_bytes() {
        let (root, spool) = temp_spool("pause");
        // Reference: uninterrupted run.
        let spec = claimed_demo(&spool, "ref", 0);
        execute_job(&spool, &spec, &|| false, None).expect("reference run");
        let ref_state = fs::read(spool.state_path(Dir::Running, "ref")).expect("state");
        let ref_log = fs::read_to_string(spool.events_path(Dir::Running, "ref")).expect("log");
        let ref_report = fs::read_to_string(spool.report_path(Dir::Running, "ref")).expect("rep");
        let ref_pack = fs::read(spool.pack_path(Dir::Running, "ref")).expect("pack");

        // Same workload under a different id: pause at the first
        // boundary, then resume to completion.
        let mut spec2 = JobSpec::demo("ref", 0); // same name => same artifact paths matter
        spec2.max_steps = 3;
        // Re-run in a second spool with the SAME id so the autosave paths
        // embedded in the event log differ only by root; compare after
        // normalizing the root.
        let root2 = std::env::temp_dir().join(format!("ccq_worker_pause2_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root2);
        let spool2 = Spool::new(&root2);
        spool2.init().expect("init2");
        spool2.enqueue(&spec2).expect("enqueue2");
        spool2
            .move_job("ref", Dir::Pending, Dir::Running)
            .expect("claim2");
        let res = execute_job(&spool2, &spec2, &|| true, None).expect("paused run");
        assert!(matches!(res.outcome, AttemptOutcome::Paused { .. }));
        let res = execute_job(&spool2, &spec2, &|| false, None).expect("resumed run");
        assert!(res.resumed);
        assert_eq!(res.outcome, AttemptOutcome::Finished);

        let norm = |s: &str, root: &Path| s.replace(&root.display().to_string(), "<root>");
        let state2 = fs::read(spool2.state_path(Dir::Running, "ref")).expect("state2");
        let log2 = fs::read_to_string(spool2.events_path(Dir::Running, "ref")).expect("log2");
        let report2 = fs::read_to_string(spool2.report_path(Dir::Running, "ref")).expect("rep2");
        assert_eq!(state2, ref_state, "final RunState is byte-identical");
        assert_eq!(
            norm(&log2, &root2),
            norm(&ref_log, &root),
            "stitched event log is byte-identical modulo spool root"
        );
        assert_eq!(report2, ref_report, "report is byte-identical");
        let pack2 = fs::read(spool2.pack_path(Dir::Running, "ref")).expect("pack2");
        assert_eq!(pack2, ref_pack, "packed artifact is byte-identical");
        fs::remove_dir_all(&root).ok();
        fs::remove_dir_all(&root2).ok();
    }

    #[test]
    fn torn_event_tail_resumes_from_last_durable_autosave() {
        let (root, spool) = temp_spool("torn");
        let spec = claimed_demo(&spool, "j", 1);
        execute_job(&spool, &spec, &|| false, None).expect("reference");
        let events = spool.events_path(Dir::Running, "j");
        let ref_log = fs::read_to_string(&events).expect("log");
        let ref_state = fs::read(spool.state_path(Dir::Running, "j")).expect("state");

        // Simulate a crash: chop the log mid-line just after the *last*
        // autosave (the deepest tear a real crash can produce — every
        // autosave line is fsynced, so the durable prefix always reaches
        // the state file's own recovery point), drop the report, resume.
        let last_autosave_end = scan_recovery_points(&events)
            .last()
            .expect("autosaves")
            .end_offset;
        let cut = usize::try_from(last_autosave_end).expect("offset") + 10;
        assert!(cut < ref_log.len());
        truncate_file(&events, cut as u64).expect("tear");
        remove_if_present(&spool.report_path(Dir::Running, "j")).expect("rm report");
        let res = execute_job(&spool, &spec, &|| false, None).expect("recovery");
        assert!(
            res.resumed,
            "a durable autosave must be reused, not a fresh start"
        );
        assert_eq!(res.outcome, AttemptOutcome::Finished);
        assert_eq!(fs::read_to_string(&events).expect("log"), ref_log);
        assert_eq!(
            fs::read(spool.state_path(Dir::Running, "j")).expect("state"),
            ref_state
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unmatched_state_falls_back_to_identical_fresh_restart() {
        let (root, spool) = temp_spool("fallback");
        let spec = claimed_demo(&spool, "j", 0);
        execute_job(&spool, &spec, &|| false, None).expect("reference");
        let events = spool.events_path(Dir::Running, "j");
        let ref_log = fs::read_to_string(&events).expect("log");
        let ref_state = fs::read(spool.state_path(Dir::Running, "j")).expect("state");

        // Wreck every recovery input: both state generations gone, log
        // torn before the first autosave. Determinism still reproduces
        // the reference bytes from scratch.
        remove_if_present(&spool.state_path(Dir::Running, "j")).expect("rm state");
        remove_if_present(&codec::prev_path(&spool.state_path(Dir::Running, "j")))
            .expect("rm prev");
        truncate_file(&events, 5).expect("tear");
        let res = execute_job(&spool, &spec, &|| false, None).expect("restart");
        assert!(!res.resumed);
        assert_eq!(fs::read_to_string(&events).expect("log"), ref_log);
        assert_eq!(
            fs::read(spool.state_path(Dir::Running, "j")).expect("state"),
            ref_state
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn injected_dir_sync_fault_surfaces_as_checkpoint_io() {
        let (root, spool) = temp_spool("fault");
        let spec = claimed_demo(&spool, "j", 0);
        let plan = FaultPlan::new().fail_dir_syncs(1);
        // autosave_retries defaults to >0? The spec's config uses the
        // core default; a single injected failure may be absorbed by the
        // retry. Assert only that the run either fails with CheckpointIo
        // or completes (retry absorbed it) — and that a clean rerun
        // finishes either way.
        match execute_job(&spool, &spec, &|| false, Some(plan)) {
            Ok(res) => assert_eq!(res.outcome, AttemptOutcome::Finished),
            Err(ServeError::Run(CcqError::CheckpointIo(msg))) => {
                assert!(msg.contains("injected"));
                let res = execute_job(&spool, &spec, &|| false, None).expect("retry");
                assert_eq!(res.outcome, AttemptOutcome::Finished);
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
        fs::remove_dir_all(&root).ok();
    }
}
