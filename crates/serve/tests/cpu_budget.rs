//! The daemon's CPU budget changes scheduling, never bytes: the same
//! jobs drained by one worker (all the threads) and by two workers (half
//! each) leave byte-identical artifacts in `done/`.

use ccq_serve::{run_daemon, DaemonConfig, Dir, JobSpec, Spool};
use ccq_tensor::par;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

const JOBS: [(&str, u64); 2] = [("budget-a", 0), ("budget-b", 5)];

/// Drains both jobs with `workers` workers out of 4 threads, so
/// the per-worker budget is 4 / `workers` on any host. Returns each
/// job's `.ccqruns`, `.ccqpack`, report and spool-normalised event log.
fn drain(workers: usize) -> Vec<[Vec<u8>; 4]> {
    let root: PathBuf =
        std::env::temp_dir().join(format!("ccq_budget_w{workers}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let spool = Spool::new(&root);
    spool.init().expect("init");
    for (name, variant) in JOBS {
        let mut spec = JobSpec::demo(name, variant);
        spec.max_steps = 3;
        spool.enqueue(&spec).expect("enqueue");
    }
    let cfg = DaemonConfig {
        workers,
        poll_ms: 5,
        drain: true,
        ..DaemonConfig::default()
    };
    let report =
        par::with_threads(4, || run_daemon(&spool, &cfg, &AtomicBool::new(false))).expect("daemon");
    assert_eq!(report.done, JOBS.len(), "{report:?}");
    let root_str = root.display().to_string();
    let out = JOBS
        .iter()
        .map(|(id, _)| {
            let events = fs::read_to_string(spool.events_path(Dir::Done, id)).expect("events");
            [
                fs::read(spool.state_path(Dir::Done, id)).expect("state"),
                fs::read(spool.pack_path(Dir::Done, id)).expect("pack"),
                fs::read(spool.report_path(Dir::Done, id)).expect("report"),
                events.replace(&root_str, "<spool>").into_bytes(),
            ]
        })
        .collect();
    fs::remove_dir_all(&root).ok();
    out
}

#[test]
fn one_and_two_workers_leave_byte_identical_artifacts() {
    let full_budget = drain(1);
    let split_budget = drain(2);
    for ((id, _), (a, b)) in JOBS.iter().zip(full_budget.iter().zip(&split_budget)) {
        for (what, (x, y)) in ["ccqruns", "ccqpack", "report", "events"]
            .iter()
            .zip(a.iter().zip(b))
        {
            assert!(x == y, "{id}: {what} differs between 1 and 2 workers");
        }
    }
}
