//! The CCQ benchmark: two workloads measured end to end, plus a traced
//! run that times the calls into each module from the benchmark's own
//! code. See `README.md` beside this crate for the workload rationale
//! and the map from module metric to end-to-end metric.

pub mod descent;
pub mod infer;
pub mod measure;
pub mod modules;
pub mod report;
pub mod serve;
pub mod trace;

use modules::{ModuleFigures, PackProbe};
use report::{RunResult, Window};
use std::path::PathBuf;
use trace::Tracer;

/// Completed requests each half of a traced run waits for at least.
pub const MIN_TRACED_REQUESTS: usize = 20;

/// Repetitions behind each per-module call time (median reported).
pub const PROBE_REPS: usize = 5;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop job stream through the in-process daemon.
    Serve,
    /// Closed-loop packed-integer inference over a model rotation.
    Infer,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve" => Some(Workload::Serve),
            "infer" => Some(Workload::Infer),
            _ => None,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-module traced run instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for spools and artifacts (created and removed
    /// by the caller).
    pub work_dir: PathBuf,
}

/// Runs the workload `opts` names.
///
/// # Errors
///
/// Any set-up, program or I/O error, as text.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    match (opts.workload, opts.trace) {
        (Workload::Serve, false) => serve::run(opts),
        (Workload::Serve, true) => serve::run_traced(opts),
        (Workload::Infer, false) => infer::run(opts),
        (Workload::Infer, true) => infer::run_traced(opts),
    }
}

/// Tracing overhead: median request latency of the traced half over the
/// untraced half, minus one.
pub fn overhead_share(plain: &Window, traced: &Window) -> f64 {
    measure::median(&traced.latencies_ms()) / measure::median(&plain.latencies_ms()) - 1.0
}

/// Finishes a traced run: runs the probes every traced run shares (the
/// descent probe and the serve probe), prints the span tables, and
/// builds the result. `plain` and `traced` are the fastest slices of
/// the workload's untraced and traced half-windows, `spans` the traced
/// half's tracer, `pack` the deploy-path figures of the workload's own
/// models.
///
/// # Errors
///
/// Any probe error, as text.
pub fn traced_result(
    opts: &Opts,
    plain: &Window,
    traced: &Window,
    spans: &Tracer,
    pack: PackProbe,
) -> Result<RunResult, String> {
    let mut core_spans = Tracer::new(true);
    let d = descent::probe(opts.seed, &mut core_spans)?;
    let figures = ModuleFigures {
        core: d.core,
        nn: d.nn,
        pack,
        serve: modules::serve_probe(
            &opts.work_dir.join("probe-spool"),
            &serve::probe_specs(opts.seed),
        )?,
        sys_cpu_share: traced.cpu.sys_share(),
        trace_overhead_share: overhead_share(plain, traced),
    };
    eprint!("{}{}", spans.render_summary(), core_spans.render_summary());
    let attempted = plain.attempted + traced.attempted + d.segments;
    let ok = plain.ok + traced.ok + d.reproduced;
    Ok(RunResult {
        correct: ok == attempted,
        attempted,
        failed: attempted - ok,
        metrics: figures.metrics(),
    })
}
