//! The daemon: a supervised worker pool draining the spool.
//!
//! Each worker thread claims jobs — crashed-daemon orphans in
//! `running/` first (restart recovery), then `pending/`, both in sorted
//! order — and drives them through [`execute_job`] under the
//! [`Supervisor`]'s deterministic retry/quarantine policy. Claim
//! arbitration is a mutex-guarded [`BTreeSet`] of owned ids, so exactly
//! one worker touches a job's artifacts at a time; a claim is dropped
//! once its job has left `running/`.
//!
//! The workers share one CPU budget: each splits its jobs' evaluations
//! and competition probes over `cpus / workers` threads (at least 1), so
//! the pool never oversubscribes the host. Kernels run on the worker's
//! own thread. Results are bit-identical at every budget.
//!
//! Shutdown is cooperative: an in-process [`AtomicBool`] or the spool's
//! `stop` sentinel file (the cross-process channel — the workspace
//! forbids `unsafe`, hence no signal handlers; `SIGKILL` is handled by
//! the restart-recovery path instead). Workers poll the flag at engine
//! phase boundaries and park their job at the next autosave — the next
//! daemon resumes it bit-for-bit.

use crate::error::Result;
use crate::spool::{atomic_write_text, Dir, Spool};
use crate::status::{JobPhase, JobStatus};
use crate::supervisor::{Decision, RetryPolicy, Supervisor};
use crate::worker::{execute_job, AttemptOutcome};
use ccq::MetricsRegistry;
use ccq_tensor::par;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Worker threads (min 1).
    pub workers: usize,
    /// Idle poll interval when the queue is empty, in milliseconds.
    pub poll_ms: u64,
    /// Exit once `pending/` is empty and every claimed job is disposed
    /// of, instead of idling for new work.
    pub drain: bool,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            poll_ms: 50,
            drain: false,
            retry: RetryPolicy::default(),
        }
    }
}

/// Counters aggregated over one daemon lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonReport {
    /// Jobs claimed (including reclaimed orphans).
    pub claims: usize,
    /// Jobs finished and moved to `done/`.
    pub done: usize,
    /// Jobs moved to `failed/`.
    pub failed: usize,
    /// Jobs moved to `quarantined/`.
    pub quarantined: usize,
    /// Jobs parked in `running/` by a graceful shutdown.
    pub parked: usize,
    /// Attempts that resumed from an autosaved state.
    pub resumes: usize,
    /// Transient-failure retries performed.
    pub retries: usize,
}

struct State {
    claimed: BTreeSet<String>,
    busy: usize,
    report: DaemonReport,
}

struct Shared<'a> {
    spool: &'a Spool,
    cfg: &'a DaemonConfig,
    stop: &'a AtomicBool,
    state: Mutex<State>,
}

/// Mutex lock that shrugs off poisoning: a panicking worker must not
/// wedge the rest of the pool, and the guarded state (id set + counters)
/// stays internally consistent under any interleaving.
fn lock<'m, T>(m: &'m Mutex<T>) -> MutexGuard<'m, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<'a> Shared<'a> {
    fn new(spool: &'a Spool, cfg: &'a DaemonConfig, stop: &'a AtomicBool) -> Self {
        Shared {
            spool,
            cfg,
            stop,
            state: Mutex::new(State {
                claimed: BTreeSet::new(),
                busy: 0,
                report: DaemonReport::default(),
            }),
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.spool.stop_requested()
    }

    /// Claims the next job: `running/` orphans first, then `pending/`
    /// (moved into `running/`), both sorted. Returns `None` when nothing
    /// is claimable right now.
    fn claim_next(&self) -> Option<String> {
        let mut st = lock(&self.state);
        let orphans = self.spool.list(Dir::Running).unwrap_or_default();
        for id in orphans {
            if !st.claimed.contains(&id) {
                st.claimed.insert(id.clone());
                st.busy += 1;
                st.report.claims += 1;
                return Some(id);
            }
        }
        let pending = self.spool.list(Dir::Pending).unwrap_or_default();
        for id in pending {
            if st.claimed.contains(&id) {
                continue;
            }
            if self
                .spool
                .move_job(&id, Dir::Pending, Dir::Running)
                .is_err()
            {
                continue; // transient claim race or I/O flake; next poll retries
            }
            st.claimed.insert(id.clone());
            st.busy += 1;
            st.report.claims += 1;
            return Some(id);
        }
        None
    }

    /// Moves a finished job out of `running/` and drops its claim, so
    /// the claim set holds only the jobs in flight. After a failed move
    /// the claim stays: the job waits in `running/` for the next daemon
    /// instead of being re-run by this one.
    fn dispose(&self, id: &str, to: Dir) {
        if self.spool.move_job(id, Dir::Running, to).is_ok() {
            lock(&self.state).claimed.remove(id);
        }
    }

    fn release(&self) {
        let mut st = lock(&self.state);
        st.busy = st.busy.saturating_sub(1);
    }

    fn bump(&self, f: impl FnOnce(&mut DaemonReport)) {
        f(&mut lock(&self.state).report);
    }

    fn idle_and_drained(&self) -> bool {
        lock(&self.state).busy == 0
    }
}

fn worker_loop(shared: &Shared<'_>) {
    loop {
        if shared.stopping() {
            return;
        }
        match shared.claim_next() {
            Some(id) => {
                process_job(shared, &id);
                shared.release();
            }
            None => {
                if shared.cfg.drain && shared.idle_and_drained() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(shared.cfg.poll_ms.max(1)));
            }
        }
    }
}

/// Drives one claimed job to a terminal disposition (or parks it).
/// Spool I/O errors while persisting status are swallowed deliberately:
/// the job directory, not the status sidecar, is authoritative, and a
/// worker must never crash the pool over a cosmetic write.
fn process_job(shared: &Shared<'_>, id: &str) {
    let spool = shared.spool;
    let sup = Supervisor {
        retry: shared.cfg.retry,
    };
    let status_path = spool.status_path(Dir::Running, id);
    let mut status =
        JobStatus::load_or_default(&status_path).unwrap_or_else(|_| JobStatus::pending());
    status.phase = JobPhase::Running;
    let spec = match spool.read_spec(Dir::Running, id) {
        Ok(s) => s,
        Err(e) => {
            // An unreadable/unparseable spec is permanent by definition.
            status.phase = JobPhase::Failed;
            status.error = Some(e.to_string());
            let _ = status.save(&status_path);
            shared.dispose(id, Dir::Failed);
            shared.bump(|r| r.failed += 1);
            return;
        }
    };
    let mut fails = 0usize;
    loop {
        if shared.stopping() {
            // Parked before (re)starting; the next daemon picks it up.
            let _ = status.save(&status_path);
            shared.bump(|r| r.parked += 1);
            return;
        }
        status.attempt += 1;
        let _ = status.save(&status_path);
        match execute_job(spool, &spec, &|| shared.stopping(), None) {
            Ok(res) => {
                status.resumed = res.resumed;
                if res.resumed {
                    shared.bump(|r| r.resumes += 1);
                }
                match res.outcome {
                    AttemptOutcome::Finished => {
                        status.phase = JobPhase::Done;
                        status.error = None;
                        let _ = status.save(&status_path);
                        shared.dispose(id, Dir::Done);
                        shared.bump(|r| r.done += 1);
                    }
                    AttemptOutcome::Paused { .. } => {
                        status.error = None;
                        let _ = status.save(&status_path);
                        shared.bump(|r| r.parked += 1);
                    }
                }
                return;
            }
            Err(e) => {
                fails += 1;
                let failed: crate::error::Result<()> = Err(e);
                match sup.decide(fails, &failed) {
                    Decision::Retry { backoff_ms } => {
                        if let Err(e) = &failed {
                            status.error = Some(e.to_string());
                        }
                        let _ = status.save(&status_path);
                        shared.bump(|r| r.retries += 1);
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                    }
                    Decision::Quarantine { reason } => {
                        status.phase = JobPhase::Quarantined;
                        status.error = Some(reason);
                        let _ = status.save(&status_path);
                        shared.dispose(id, Dir::Quarantined);
                        shared.bump(|r| r.quarantined += 1);
                        return;
                    }
                    Decision::Fail { reason } => {
                        status.phase = JobPhase::Failed;
                        status.error = Some(reason);
                        let _ = status.save(&status_path);
                        shared.dispose(id, Dir::Failed);
                        shared.bump(|r| r.failed += 1);
                        return;
                    }
                    // A canceled run or a success classification cannot
                    // come out of an `Err`-only path, but both have a
                    // safe disposition: park for the next daemon.
                    Decision::Complete | Decision::Park => {
                        status.error = None;
                        let _ = status.save(&status_path);
                        shared.bump(|r| r.parked += 1);
                        return;
                    }
                }
            }
        }
    }
}

/// Threads per worker: the workers split the CPUs (`cpus`, as
/// `RAYON_NUM_THREADS` or the detected count) instead of each fanning
/// every evaluation and probe round out to all of them.
fn thread_budget(cpus: usize, workers: usize) -> usize {
    (cpus / workers.max(1)).max(1)
}

/// Runs the daemon until `stop` (or the spool's stop sentinel) is
/// raised — or, in drain mode, until the queue is empty. Clears a stale
/// stop sentinel on startup, and writes the counter snapshot to
/// `metrics.txt` on the way out.
///
/// # Errors
///
/// Returns [`crate::error::ServeError::Io`] if the spool cannot be
/// initialized or the metrics snapshot cannot be written; per-job
/// failures are dispositions, not daemon errors.
pub fn run_daemon(spool: &Spool, cfg: &DaemonConfig, stop: &AtomicBool) -> Result<DaemonReport> {
    spool.init()?;
    spool.clear_stop()?;
    let shared = Shared::new(spool, cfg, stop);
    let budget = thread_budget(par::num_threads(), cfg.workers);
    std::thread::scope(|s| {
        for _ in 0..cfg.workers.max(1) {
            s.spawn(|| par::with_threads(budget, || worker_loop(&shared)));
        }
    });
    let report = lock(&shared.state).report;
    let mut reg = MetricsRegistry::new();
    for (outcome, n) in [
        ("done", report.done),
        ("failed", report.failed),
        ("quarantined", report.quarantined),
        ("parked", report.parked),
    ] {
        reg.inc("ccq_serve_jobs_total", &[("outcome", outcome)], n as u64);
    }
    reg.inc("ccq_serve_claims_total", &[], report.claims as u64);
    reg.inc("ccq_serve_resumes_total", &[], report.resumes as u64);
    reg.inc("ccq_serve_retries_total", &[], report.retries as u64);
    atomic_write_text(&spool.metrics_path(), &reg.render_text())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use std::fs;
    use std::path::PathBuf;

    fn temp_spool(tag: &str) -> (PathBuf, Spool) {
        let root = std::env::temp_dir().join(format!("ccq_daemon_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spool = Spool::new(&root);
        spool.init().expect("init");
        (root, spool)
    }

    fn quick_demo(name: &str, variant: u64) -> JobSpec {
        let mut spec = JobSpec::demo(name, variant);
        spec.max_steps = 3;
        spec
    }

    #[test]
    fn workers_split_the_threads() {
        assert_eq!(thread_budget(2, 2), 1);
        assert_eq!(thread_budget(8, 2), 4);
        assert_eq!(thread_budget(2, 3), 1);
        assert_eq!(thread_budget(2, 1), 2);
    }

    #[test]
    fn drain_daemon_completes_all_pending_jobs() {
        let (root, spool) = temp_spool("drain");
        spool.enqueue(&quick_demo("job-a", 0)).expect("enqueue a");
        spool.enqueue(&quick_demo("job-b", 1)).expect("enqueue b");
        let cfg = DaemonConfig {
            workers: 2,
            poll_ms: 5,
            drain: true,
            ..DaemonConfig::default()
        };
        let stop = AtomicBool::new(false);
        let report = run_daemon(&spool, &cfg, &stop).expect("daemon");
        assert_eq!(report.done, 2, "both jobs complete: {report:?}");
        assert_eq!(report.failed + report.quarantined + report.parked, 0);
        assert_eq!(spool.list(Dir::Done).expect("done"), vec!["job-a", "job-b"]);
        assert!(spool.list(Dir::Pending).expect("pending").is_empty());
        assert!(spool.list(Dir::Running).expect("running").is_empty());
        for id in ["job-a", "job-b"] {
            let st = JobStatus::load_or_default(&spool.status_path(Dir::Done, id)).expect("status");
            assert_eq!(st.phase, JobPhase::Done);
            assert!(spool.report_path(Dir::Done, id).exists());
            assert!(spool.events_path(Dir::Done, id).exists());
            assert!(spool.state_path(Dir::Done, id).exists());
            assert!(
                spool.pack_path(Dir::Done, id).exists(),
                "deployable artifact travels to done/"
            );
        }
        let metrics = fs::read_to_string(spool.metrics_path()).expect("metrics");
        assert!(metrics.contains("ccq_serve_jobs_total"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn disposed_jobs_drop_their_claims() {
        let (root, spool) = temp_spool("claims");
        spool.enqueue(&quick_demo("good", 0)).expect("enqueue");
        fs::write(spool.job_path(Dir::Pending, "broken"), "not a job spec\n").expect("plant");
        let cfg = DaemonConfig {
            workers: 1,
            poll_ms: 5,
            drain: true,
            ..DaemonConfig::default()
        };
        let stop = AtomicBool::new(false);
        let shared = Shared::new(&spool, &cfg, &stop);
        worker_loop(&shared);
        let st = lock(&shared.state);
        assert_eq!((st.report.done, st.report.failed), (1, 1));
        assert!(
            st.claimed.is_empty(),
            "claims outlived their jobs: {:?}",
            st.claimed
        );
        drop(st);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn orphaned_running_job_is_reclaimed_and_resumed() {
        let (root, spool) = temp_spool("orphan");
        let spec = quick_demo("j", 0);
        spool.enqueue(&spec).expect("enqueue");
        spool
            .move_job("j", Dir::Pending, Dir::Running)
            .expect("claim");
        // Produce reference artifacts, then simulate a daemon crash:
        // torn event log tail, missing report, job left in running/.
        execute_job(&spool, &spec, &|| false, None).expect("reference");
        let events = spool.events_path(Dir::Running, "j");
        let ref_log = fs::read_to_string(&events).expect("log");
        let ref_state = fs::read(spool.state_path(Dir::Running, "j")).expect("state");
        let cut = ref_log.len() - 9;
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&events)
            .expect("open");
        f.set_len(cut as u64).expect("tear");
        drop(f);
        fs::remove_file(spool.report_path(Dir::Running, "j")).expect("rm report");

        let cfg = DaemonConfig {
            workers: 1,
            poll_ms: 5,
            drain: true,
            ..DaemonConfig::default()
        };
        let report = run_daemon(&spool, &cfg, &AtomicBool::new(false)).expect("daemon");
        assert_eq!(report.done, 1);
        assert_eq!(
            report.resumes, 1,
            "orphan resumed from autosave, not restarted"
        );
        assert_eq!(
            fs::read_to_string(spool.events_path(Dir::Done, "j")).expect("log"),
            ref_log,
            "recovered log is byte-identical to the uninterrupted one"
        );
        assert_eq!(
            fs::read(spool.state_path(Dir::Done, "j")).expect("state"),
            ref_state
        );
        let st = JobStatus::load_or_default(&spool.status_path(Dir::Done, "j")).expect("status");
        assert!(st.resumed);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_spec_is_failed_permanently() {
        let (root, spool) = temp_spool("badspec");
        fs::write(spool.job_path(Dir::Pending, "broken"), "not a job spec\n").expect("plant");
        let cfg = DaemonConfig {
            workers: 1,
            poll_ms: 5,
            drain: true,
            ..DaemonConfig::default()
        };
        let report = run_daemon(&spool, &cfg, &AtomicBool::new(false)).expect("daemon");
        assert_eq!(report.failed, 1);
        assert_eq!(spool.list(Dir::Failed).expect("failed"), vec!["broken"]);
        let st =
            JobStatus::load_or_default(&spool.status_path(Dir::Failed, "broken")).expect("status");
        assert_eq!(st.phase, JobPhase::Failed);
        assert!(st.error.is_some());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn persistent_transient_failures_retry_then_quarantine() {
        let (root, spool) = temp_spool("quarantine");
        let spec = quick_demo("j", 0);
        spool.enqueue(&spec).expect("enqueue");
        // A directory squatting on the state path makes every state
        // cleanup/autosave fail with an I/O error — persistently
        // transient, so the supervisor retries with backoff and then
        // quarantines.
        fs::create_dir(spool.state_path(Dir::Running, "j")).expect("squat");
        let cfg = DaemonConfig {
            workers: 1,
            poll_ms: 5,
            drain: true,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff_ms: 1,
                max_backoff_ms: 4,
            },
        };
        let report = run_daemon(&spool, &cfg, &AtomicBool::new(false)).expect("daemon");
        assert_eq!(report.quarantined, 1, "{report:?}");
        assert_eq!(report.retries, 2, "full retry budget consumed");
        let st =
            JobStatus::load_or_default(&spool.status_path(Dir::Quarantined, "j")).expect("status");
        assert_eq!(st.phase, JobPhase::Quarantined);
        assert_eq!(st.attempt, 3);
        assert!(st
            .error
            .as_deref()
            .is_some_and(|e| e.contains("retries exhausted")));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pre_raised_stop_parks_claimed_jobs_without_running_them() {
        let (root, spool) = temp_spool("park");
        spool.enqueue(&quick_demo("j", 0)).expect("enqueue");
        // Claim manually, then start a daemon whose stop flag is already
        // raised: the worker must park the orphan untouched.
        spool
            .move_job("j", Dir::Pending, Dir::Running)
            .expect("claim");
        let cfg = DaemonConfig {
            workers: 1,
            poll_ms: 5,
            drain: true,
            ..DaemonConfig::default()
        };
        let stop = AtomicBool::new(true);
        let report = run_daemon(&spool, &cfg, &stop).expect("daemon");
        assert_eq!(report.done + report.failed + report.quarantined, 0);
        assert_eq!(spool.list(Dir::Running).expect("running"), vec!["j"]);
        assert!(
            !spool.state_path(Dir::Running, "j").exists(),
            "job was parked before any engine work"
        );
        // Dropping the flag, the next daemon finishes it.
        stop.store(false, Ordering::Relaxed);
        let report = run_daemon(&spool, &cfg, &stop).expect("daemon 2");
        assert_eq!(report.done, 1);
        fs::remove_dir_all(&root).ok();
    }
}
