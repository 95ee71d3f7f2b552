//! `serve`: a closed loop of jobs through the in-process daemon.
//!
//! `run_daemon` runs with its default worker count on a fresh spool. The
//! benchmark keeps [`OUTSTANDING_OVER_WORKERS`] more jobs outstanding
//! than there are workers, so a worker never idles into the daemon's
//! 50 ms poll while work is queued. Jobs are `JobSpec::demo` MLPs with
//! seeded variants, mixed ladders, and all four searchers in turn. A
//! request runs from enqueue until the job's spec lands in `done/`.
//!
//! Timings come from the faster half of the window's 16-job slices: a
//! disk stall or a slow spell of the shared host lands in a few slices
//! and leaves the rest. The whole-window figures go to stderr.
//!
//! Output check, after the timed window: every job ended `done`, its
//! status sidecar says so, and its `.ccqpack` artifact loads and
//! instantiates.

use crate::measure::{self, Cpu};
use crate::modules;
use crate::report::{self, RunResult, Slicer, Window};
use crate::trace::Tracer;
use crate::Opts;
use ccq::SearcherKind;
use ccq_infer::PackedModel;
use ccq_serve::{run_daemon, DaemonConfig, Dir, JobPhase, JobSpec, JobStatus, Spool};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Jobs kept outstanding beyond the daemon's worker count.
pub const OUTSTANDING_OVER_WORKERS: usize = 2;
/// Distinct specs per run before the stream repeats.
pub const CYCLE: usize = 48;
/// Jobs per throughput slice.
pub const SLICE: usize = 16;
/// Share of a window's slices, fastest first, that its timings come
/// from. A window holds only about 30 slices, so half of them.
pub const FAST_SHARE: f64 = 0.5;
/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// How often the client looks for finished jobs.
const POLL: Duration = Duration::from_millis(1);
/// A run fails when no job finishes for this long: the daemon stalled
/// or died, and the benchmark must still exit in bounded time.
const STALL: Duration = Duration::from_secs(60);

const SEARCHERS: [SearcherKind; 4] = [
    SearcherKind::Hedge,
    SearcherKind::ZeroBit,
    SearcherKind::ReleqRl,
    SearcherKind::OneShot,
];
const LADDERS: [&[u32]; 3] = [&[8, 4], &[8, 4, 2], &[8, 6, 4, 2]];

/// The `i`-th job of the stream for `seed`.
pub fn job_spec(seed: u64, i: usize) -> JobSpec {
    let slot = i % CYCLE;
    let variant = (seed % 1_000_000) * CYCLE as u64 + slot as u64;
    let mut spec = JobSpec::demo(&format!("job{i:06}"), variant);
    spec.searcher = SEARCHERS[slot % SEARCHERS.len()];
    spec.ladder = LADDERS[slot % LADDERS.len()].to_vec();
    spec
}

/// The fixed job set the module probes run: one job per searcher.
pub fn probe_specs(seed: u64) -> Vec<JobSpec> {
    (0..SEARCHERS.len()).map(|i| job_spec(seed, i)).collect()
}

/// What a window observed, besides its [`Window`].
struct Outcome {
    window: Window,
    top1: Vec<f64>,
    compression: Vec<f64>,
}

/// Keeps `workers + OUTSTANDING_OVER_WORKERS` jobs in flight until
/// `seconds` have passed and the fastest [`FAST_SHARE`] of the slices
/// holds about `min_requests`, then lets the in-flight jobs finish.
/// Checks every finished job afterwards.
fn closed_loop(
    spool: &Spool,
    seed: u64,
    first_job: usize,
    seconds: f64,
    min_requests: usize,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let outstanding = DaemonConfig::default().workers + OUTSTANDING_OVER_WORKERS;
    let mut w = Window::default();
    let mut inflight: Vec<(String, Instant)> = Vec::new();
    let mut finished = Vec::new();
    let mut next = first_job;
    let mut filling = true;
    let mut slicer = Slicer::new(SLICE);
    let cpu0 = Cpu::now();
    let t0 = Instant::now();
    let mut progress = t0;
    while filling || !inflight.is_empty() {
        if progress.elapsed() > STALL {
            return Err(format!("no job finished for {STALL:?}"));
        }
        while filling && inflight.len() < outstanding {
            let spec = job_spec(seed, next);
            next += 1;
            let start = Instant::now();
            tracer.next_request();
            tracer
                .span("serve.enqueue", || spool.enqueue(&spec))
                .map_err(|e| e.to_string())?;
            w.attempted += 1;
            inflight.push((spec.name, start));
        }
        std::thread::sleep(POLL);
        let mut i = 0;
        while i < inflight.len() {
            // A job mid-rename briefly reads as nowhere: still in flight.
            match spool.find(&inflight[i].0).map_err(|e| e.to_string())? {
                Some(Dir::Pending | Dir::Running) | None => i += 1,
                Some(dir) => {
                    progress = Instant::now();
                    let (id, start) = inflight.swap_remove(i);
                    if dir == Dir::Done {
                        slicer.complete(1.0, start.elapsed().as_secs_f64() * 1e3);
                        finished.push(id);
                    }
                }
            }
        }
        if t0.elapsed().as_secs_f64() >= seconds
            && finished.len() as f64 * FAST_SHARE >= min_requests as f64
        {
            filling = false;
        }
    }
    w.cpu = Cpu::now().since(cpu0);
    w.slices = slicer.finish();
    eprintln!("serve: {}", w.describe());
    let (mut top1, mut compression) = (Vec::new(), Vec::new());
    for id in &finished {
        if let Some((acc, comp)) = check_job(spool, id) {
            w.ok += 1;
            top1.push(acc);
            compression.push(comp);
        }
    }
    Ok(Outcome {
        window: w,
        top1,
        compression,
    })
}

/// A finished job passes when its status says done and its artifact
/// loads and instantiates; returns its final top-1 and compression.
fn check_job(spool: &Spool, id: &str) -> Option<(f64, f64)> {
    let status = JobStatus::load_or_default(&spool.status_path(Dir::Done, id)).ok()?;
    if status.phase != JobPhase::Done {
        return None;
    }
    PackedModel::load_with_fallback(&spool.pack_path(Dir::Done, id))
        .ok()?
        .instantiate()
        .ok()?;
    let report = std::fs::read_to_string(spool.report_path(Dir::Done, id)).ok()?;
    parse_report(&report)
}

/// Final top-1 (0..1) and compression from a job report's headline,
/// `CCQ: baseline B% → quantized Q% (…) at Cx compression in N steps`.
pub fn parse_report(text: &str) -> Option<(f64, f64)> {
    let q = text.split("quantized ").nth(1)?.split('%').next()?;
    let c = text.split(" at ").nth(1)?.split("x compression").next()?;
    Some((
        q.trim().parse::<f64>().ok()? / 100.0,
        c.trim().parse().ok()?,
    ))
}

/// Brings up a daemon on a fresh spool at `root` and sends one warm-up
/// job through it (the set-up), runs `body` with the spool and the
/// set-up seconds, then stops the daemon and waits for it.
fn with_daemon<T>(
    root: &Path,
    warmup: &JobSpec,
    body: impl FnOnce(&Spool, f64) -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let _ = std::fs::remove_dir_all(root);
    let spool = Spool::new(root);
    spool.init().map_err(|e| e.to_string())?;
    // Queued before the daemon starts, so no worker sleeps through an
    // idle poll first.
    spool.enqueue(warmup).map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let cfg = DaemonConfig::default();
    let out = std::thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&spool, &cfg, &stop));
        let out = wait_for(&spool, &warmup.name)
            .and_then(|()| body(&spool, start.elapsed().as_secs_f64()));
        stop.store(true, Ordering::Relaxed);
        let report = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        report.map_err(|e| e.to_string())?;
        out
    });
    let _ = std::fs::remove_dir_all(root);
    out
}

/// Waits until job `id` is done.
fn wait_for(spool: &Spool, id: &str) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed() < STALL {
        std::thread::sleep(POLL);
        match spool.find(id).map_err(|e| e.to_string())? {
            Some(Dir::Done) => return Ok(()),
            Some(Dir::Pending | Dir::Running) | None => {}
            Some(_) => return Err(format!("job {id} did not finish")),
        }
    }
    Err(format!("job {id} still unfinished after {STALL:?}"))
}

/// The warm-up job: the stream's first spec under its own name.
fn warmup_spec(seed: u64) -> JobSpec {
    JobSpec {
        name: "warmup".to_string(),
        ..job_spec(seed, 0)
    }
}

/// The untraced end-to-end run. Set-up (a fresh spool, a started
/// daemon and one warm-up job) is repeated; the last one serves the
/// timed window.
///
/// # Errors
///
/// A spool or daemon error, as text.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let warmup = warmup_spec(opts.seed);
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS - 1 {
        setup_s.push(with_daemon(
            &opts.work_dir.join(format!("setup-{rep}")),
            &warmup,
            |_, s| Ok(s),
        )?);
    }
    let (setup, out) = with_daemon(&opts.work_dir.join("spool"), &warmup, |spool, s| {
        Ok((
            s,
            closed_loop(
                spool,
                opts.seed,
                0,
                opts.seconds,
                report::MIN_REQUESTS,
                &mut Tracer::new(false),
            )?,
        ))
    })?;
    setup_s.push(setup);
    let w = out.window.fastest(FAST_SHARE);
    Ok(RunResult {
        correct: w.ok == w.attempted,
        attempted: w.attempted,
        failed: w.attempted - w.ok,
        metrics: report::end_to_end(
            &setup_s,
            &w,
            measure::mean(&out.top1),
            measure::mean(&out.compression),
        ),
    })
}

/// The traced run: half the time untraced, half with enqueue spans, then
/// the deploy-path probe on the first probe job's finished net and the
/// shared probes.
///
/// # Errors
///
/// A spool, daemon, job or probe error, as text.
pub fn run_traced(opts: &Opts) -> Result<RunResult, String> {
    let half = opts.seconds / 2.0;
    let mut tracer = Tracer::new(false);
    let (plain, traced) = with_daemon(
        &opts.work_dir.join("spool"),
        &warmup_spec(opts.seed),
        |spool, _| {
            let plain = closed_loop(
                spool,
                opts.seed,
                0,
                half,
                crate::MIN_TRACED_REQUESTS,
                &mut tracer,
            )?;
            tracer.set_enabled(true);
            let next = plain.window.attempted as usize;
            let traced = closed_loop(
                spool,
                opts.seed,
                next,
                half,
                crate::MIN_TRACED_REQUESTS,
                &mut tracer,
            )?;
            Ok((plain, traced))
        },
    )?;
    let spec = &probe_specs(opts.seed)[0];
    let (_, val) = spec.build_batches();
    let net = modules::run_inprocess(spec)?;
    let arch = ccq_infer::arch::mlp_arch(&spec.mlp_dims);
    let pack = modules::pack_probe(&net, &arch, &val[0].images, crate::PROBE_REPS)?;
    crate::traced_result(
        opts,
        &plain.window.fastest(FAST_SHARE),
        &traced.window.fastest(FAST_SHARE),
        &tracer,
        pack,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_headline_parses() {
        let text = "CCQ: baseline 95.00% → quantized 93.75% (degradation 1.25 pts) at 5.12x compression in 6 steps\nrollbacks: 0\n";
        assert_eq!(parse_report(text), Some((0.9375, 5.12)));
    }

    #[test]
    fn stream_cycles_searchers_and_ladders() {
        let specs: Vec<JobSpec> = (0..CYCLE).map(|i| job_spec(3, i)).collect();
        for k in SEARCHERS {
            assert!(specs.iter().any(|s| s.searcher == k));
        }
        assert_eq!(job_spec(3, CYCLE).ladder, specs[0].ladder);
        assert_ne!(job_spec(3, 0).model_seed, job_spec(4, 0).model_seed);
    }
}
