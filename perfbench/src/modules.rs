//! Per-module probes: the benchmark's own calls into each module's
//! public functions, timed from outside.
//!
//! Nothing here reaches into a crate's internals. [`drive_descent`]
//! single-steps [`ccq::DescentEngine`] so every phase gets its own span;
//! the other probes time one public call at a time over fixed inputs, so
//! their counts repeat exactly at one seed.

use crate::measure::{self, fnv1a};
use crate::report::{metric, Metric};
use crate::trace::Tracer;
use ccq::{
    layer_profiles, CcqConfig, CcqReport, CcqRunner, DescentEvent, EventSink, NullSink, Phase,
    ProbeCacheStats, StartPoint,
};
use ccq_infer::{LayerPayload, PackedModel};
use ccq_nn::train::{evaluate, train_epoch, Batch};
use ccq_nn::{Mode, Network, PackedExec, Sgd};
use ccq_serve::{run_daemon, DaemonConfig, DaemonReport, JobSpec, Spool};
use ccq_tensor::{rng, Rng64, Tensor};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Span name for one whole descent, engine construction to report.
pub const JOB_SPAN: &str = "descent.job";

/// Span name for one segment of a descent: the phases from the end of
/// one checkpoint to the end of the next. A job's first segment is step
/// 0, the ladder-top initialization.
pub const STEP_SPAN: &str = "descent.step";

/// The five engine phases in trajectory order, with their span names.
pub const PHASES: [(Phase, &str); 5] = [
    (Phase::InitQuantize, "core.init"),
    (Phase::Compete, "core.compete"),
    (Phase::Quantize, "core.quantize"),
    (Phase::Recover, "core.recover"),
    (Phase::Checkpoint, "core.checkpoint"),
];

fn phase_span(p: Phase) -> &'static str {
    PHASES
        .iter()
        .find(|(q, _)| *q == p)
        .map_or("core.done", |(_, n)| n)
}

/// Event counts of a descent, folded by a benchmark-owned sink. Probe
/// time is the wall time from the start of the Compete phase (or the
/// previous round) to each probe round's event, split over its probes.
#[derive(Debug, Default, Clone)]
pub struct CoreSink {
    /// Competition probes evaluated.
    pub probes: u64,
    /// Collaboration epochs run for quantization steps (the step-0
    /// recovery after the ladder-top initialization excluded).
    pub recovery_epochs: u64,
    /// Guard rollbacks.
    pub rollbacks: u64,
    /// Quantization steps completed.
    pub steps: u64,
    /// Per-probe milliseconds, one entry per probe round.
    pub probe_ms: Vec<f64>,
    mark: Option<Instant>,
}

impl EventSink for CoreSink {
    fn on_event(&mut self, ev: &DescentEvent) {
        match ev {
            DescentEvent::PhaseStarted { phase, .. } => {
                self.mark = (*phase == Phase::Compete).then(Instant::now);
            }
            DescentEvent::ProbeRound { probes, .. } => {
                self.probes += probes.len() as u64;
                if let (Some(m), false) = (self.mark, probes.is_empty()) {
                    self.probe_ms
                        .push(m.elapsed().as_secs_f64() * 1e3 / probes.len() as f64);
                }
                self.mark = Some(Instant::now());
            }
            DescentEvent::RecoveryEpoch { step, .. } => {
                self.recovery_epochs += u64::from(*step > 0)
            }
            DescentEvent::GuardRollback { .. } => self.rollbacks += 1,
            DescentEvent::StepCompleted { .. } => self.steps += 1,
            _ => {}
        }
    }
}

/// How a descent driven by [`drive_descent`] ended.
#[derive(Debug)]
pub struct JobEnd {
    /// The final report, when the descent reached `Done`.
    pub report: Option<CcqReport>,
    /// The searcher's probe-cache accounting.
    pub cache: ProbeCacheStats,
}

/// Runs one fresh descent of `net` one segment at a time.
///
/// A segment is the run of phases that ends with a `Checkpoint`: step 0
/// (baseline, ladder-top quantization and its recovery) and then one
/// per quantization step. After each segment `on_segment` gets a digest
/// of the step record and learning-curve point it produced.
///
/// # Errors
///
/// Any engine error, as text.
pub fn drive_descent(
    config: &CcqConfig,
    net: &mut Network,
    train: &[Batch],
    val: &[Batch],
    sink: &mut dyn EventSink,
    tracer: &mut Tracer,
    on_segment: &mut dyn FnMut(u64),
) -> Result<JobEnd, String> {
    let job = tracer.enter(JOB_SPAN);
    let mut runner = CcqRunner::new(config.clone());
    let mut provider = |_: &mut Rng64| train.to_vec();
    let mut engine = runner
        .engine(net, &mut provider, val, sink, StartPoint::Fresh)
        .map_err(|e| format!("engine: {e}"))?;
    while engine.phase() != Phase::Done {
        tracer.next_request();
        let segment = tracer.enter(STEP_SPAN);
        loop {
            let phase = engine.phase();
            let span = tracer.enter(phase_span(phase));
            engine.step().map_err(|e| format!("{phase:?}: {e}"))?;
            tracer.exit(span);
            if phase == Phase::Checkpoint || engine.phase() == Phase::Done {
                break;
            }
        }
        tracer.exit(segment);
        let digest =
            fnv1a(format!("{:?}|{:?}", engine.steps().last(), engine.trace().last()).as_bytes());
        on_segment(digest);
    }
    let report = engine.into_report();
    tracer.exit(job);
    Ok(JobEnd {
        report,
        cache: runner.probe_cache_stats().clone(),
    })
}

/// Median wall time of `reps` calls of `f`, in milliseconds, after one
/// warm-up call.
///
/// # Errors
///
/// The first error `f` returns, as text.
pub fn median_ms<E: std::fmt::Display>(
    reps: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, String> {
    f().map_err(|e| e.to_string())?;
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f().map_err(|e| e.to_string())?;
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(measure::median(&v))
}

/// Per-sample forward MACs of `net` (runs one forward on `x` so the
/// layer profiles are populated).
///
/// # Errors
///
/// A forward error, as text.
pub fn forward_macs(net: &mut Network, x: &Tensor) -> Result<u64, String> {
    net.forward(x, Mode::Eval).map_err(|e| e.to_string())?;
    Ok(layer_profiles(net).iter().map(|p| p.macs).sum())
}

/// Per-step descent figures: span times amortized over quantization
/// steps, plus the exact counts of reference descents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreTrace {
    /// Milliseconds per quantization step spent in each phase, in
    /// [`PHASES`] order (step-0 initialization amortized over the steps).
    pub phase_ms: [f64; 5],
    /// Share of descent wall time (every [`JOB_SPAN`]) outside every
    /// phase span: engine construction, request bookkeeping, tracing.
    pub unaccounted_share: f64,
    /// Median per-probe wall time, in milliseconds.
    pub probe_ms: f64,
    /// Competition probes per quantization step.
    pub probes_per_step: f64,
    /// Collaboration epochs per quantization step (step-0 recovery
    /// excluded).
    pub recovery_epochs_per_step: f64,
    /// Guard rollbacks over the reference descents.
    pub rollbacks: f64,
    /// Fraction of full-forward segment work the probes executed.
    pub forward_fraction: f64,
    /// Computed f32 MACs per quantization step (see [`f32_macs_per_step`]).
    pub f32_macs_per_step: f64,
}

/// Computed f32 multiply-accumulates of one quantization step from its
/// counts: each recovery epoch trains on every training sample
/// (forward plus two backward GEMMs, 3× the forward MACs) and evaluates
/// the validation set; the valley is one more validation pass; each
/// probe forwards the probe set through `forward_fraction` of the net.
pub fn f32_macs_per_step(
    macs_per_sample: u64,
    epochs_per_step: f64,
    probes_per_step: f64,
    forward_fraction: f64,
    samples: (usize, usize, usize),
) -> f64 {
    let (train, val, probe) = (samples.0 as f64, samples.1 as f64, samples.2 as f64);
    macs_per_sample as f64
        * (epochs_per_step * (3.0 * train + val) + val + probes_per_step * probe * forward_fraction)
}

impl CoreTrace {
    /// Folds the phase spans of `tracer` and the counts of reference
    /// descents (`sink`, `cache`) into per-step figures. The caller
    /// fills in [`CoreTrace::f32_macs_per_step`].
    pub fn new(tracer: &Tracer, sink: &CoreSink, cache: &ProbeCacheStats) -> CoreTrace {
        let jobs = tracer.durations(JOB_SPAN);
        let segments = tracer.durations(STEP_SPAN).len();
        let n = segments.saturating_sub(jobs.len()).max(1) as f64;
        let mut phase_ms = [0.0; 5];
        for (slot, (_, name)) in phase_ms.iter_mut().zip(PHASES) {
            *slot = tracer.total_ms(name) / n;
        }
        let wall: f64 = jobs.iter().sum();
        let steps = sink.steps.max(1) as f64;
        CoreTrace {
            phase_ms,
            unaccounted_share: 1.0 - phase_ms.iter().sum::<f64>() * n / wall,
            probe_ms: measure::median(&sink.probe_ms),
            probes_per_step: sink.probes as f64 / steps,
            recovery_epochs_per_step: sink.recovery_epochs as f64 / steps,
            rollbacks: sink.rollbacks as f64,
            forward_fraction: cache.forward_fraction(),
            f32_macs_per_step: 0.0,
        }
    }
}

/// Median times of the training-side `nn` calls on one net and its data.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NnProbe {
    /// One `train_epoch` over the training batches.
    pub train_epoch_ms: f64,
    /// One `evaluate` over the validation batches.
    pub evaluate_ms: f64,
}

/// Times `train_epoch` and `evaluate` on a copy of `net`.
///
/// # Errors
///
/// A training or evaluation error, as text.
pub fn nn_probe(
    net: &Network,
    train: &[Batch],
    val: &[Batch],
    reps: usize,
) -> Result<NnProbe, String> {
    let mut net = net.clone();
    let mut opt = Sgd::new(0.01).momentum(0.9);
    let mut r = rng(0);
    let train_epoch_ms = median_ms(reps, || {
        train_epoch(&mut net, train, &mut opt, &mut r).map(drop)
    })?;
    let evaluate_ms = median_ms(reps, || evaluate(&mut net, val).map(drop))?;
    Ok(NnProbe {
        train_epoch_ms,
        evaluate_ms,
    })
}

/// Packing, artifact decoding and packed-forward figures of one model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PackProbe {
    /// `PackedModel::capture`.
    pub pack_ms: f64,
    /// `PackedModel::from_bytes` on the serialized artifact.
    pub decode_ms: f64,
    /// `PackedModel::instantiate`.
    pub instantiate_ms: f64,
    /// Fake-quant `Eval` forward of one batch.
    pub fakequant_ms: f64,
    /// Packed integer forward of the same batch.
    pub integer_ms: f64,
    /// Weight payload bytes of the artifact.
    pub payload_bytes: f64,
    /// `f32` bytes the same weights would take.
    pub f32_bytes: f64,
    /// Computed MACs of the integer-executed layers for one batch.
    pub int_macs_per_batch: f64,
    /// Computed packed weight bytes those layers read per batch.
    pub int_weight_bytes_per_batch: f64,
}

/// Packs a copy of `net` under `arch` and times the deploy path on the
/// batch `x`.
///
/// # Errors
///
/// A packing, decoding or forward error, as text.
pub fn pack_probe(net: &Network, arch: &str, x: &Tensor, reps: usize) -> Result<PackProbe, String> {
    let mut net = net.clone();
    let mut model = None;
    let pack_ms = median_ms(reps, || {
        model = Some(PackedModel::capture(&mut net, arch)?);
        Ok::<(), ccq_infer::InferError>(())
    })?;
    let model = model.ok_or("capture produced no model")?;
    let bytes = model.to_bytes();
    let decode_ms = median_ms(reps, || PackedModel::from_bytes(&bytes).map(drop))?;
    let mut deployed = None;
    let instantiate_ms = median_ms(reps, || {
        deployed = Some(model.instantiate()?);
        Ok::<(), ccq_infer::InferError>(())
    })?;
    let mut deployed = deployed.ok_or("instantiate produced no network")?;
    let fakequant_ms = median_ms(reps, || net.forward(x, Mode::Eval).map(drop))?;
    let integer_ms = median_ms(reps, || {
        deployed.forward_packed(x, PackedExec::Integer).map(drop)
    })?;
    let batch = x.shape()[0] as f64;
    let (mut int_macs, mut int_bytes, mut f32_bytes) = (0.0, 0.0, 0.0);
    for (profile, layer) in layer_profiles(&mut net).iter().zip(model.layers()) {
        f32_bytes += 4.0 * profile.weight_count as f64;
        if let LayerPayload::Packed(_) = layer.payload {
            if !layer.spec.weight_bits.is_pruned() {
                int_macs += profile.macs as f64 * batch;
                int_bytes += layer.payload_bytes() as f64;
            }
        }
    }
    Ok(PackProbe {
        pack_ms,
        decode_ms,
        instantiate_ms,
        fakequant_ms,
        integer_ms,
        payload_bytes: model.payload_bytes() as f64,
        f32_bytes,
        int_macs_per_batch: int_macs,
        int_weight_bytes_per_batch: int_bytes,
    })
}

/// Field-wise mean of several pack probes.
pub fn mean_pack(probes: &[PackProbe]) -> PackProbe {
    let n = probes.len().max(1) as f64;
    let sum = |f: fn(&PackProbe) -> f64| probes.iter().map(f).sum::<f64>() / n;
    PackProbe {
        pack_ms: sum(|p| p.pack_ms),
        decode_ms: sum(|p| p.decode_ms),
        instantiate_ms: sum(|p| p.instantiate_ms),
        fakequant_ms: sum(|p| p.fakequant_ms),
        integer_ms: sum(|p| p.integer_ms),
        payload_bytes: sum(|p| p.payload_bytes),
        f32_bytes: sum(|p| p.f32_bytes),
        int_macs_per_batch: sum(|p| p.int_macs_per_batch),
        int_weight_bytes_per_batch: sum(|p| p.int_weight_bytes_per_batch),
    }
}

/// Spool-side figures of a fixed batch of jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeProbe {
    /// Median `Spool::enqueue` time.
    pub enqueue_ms: f64,
    /// Mean in-process time of the same specs run without a spool.
    pub inprocess_job_ms: f64,
    /// Mean per-job wall time of a one-worker draining daemon.
    pub daemon_job_ms: f64,
    /// Bytes the process passed to `write` per job while the daemon ran.
    pub bytes_written_per_job: f64,
    /// The draining daemon's counters.
    pub report: DaemonReport,
}

/// Runs `spec` the way a daemon worker does — pre-train, descend, pack
/// — but in process with no spool, event log or autosave, and returns
/// the finished net.
///
/// # Errors
///
/// Any spec, training, engine or packing error, as text, or a descent
/// that did not finish.
pub fn run_inprocess(spec: &JobSpec) -> Result<Network, String> {
    let config = spec.to_config().map_err(|e| e.to_string())?;
    let (train, val) = spec.build_batches();
    let mut net = spec.build_net();
    let mut opt = Sgd::new(spec.pretrain_lr).momentum(spec.pretrain_momentum);
    let mut r = rng(spec.pretrain_seed);
    for _ in 0..spec.pretrain_epochs {
        train_epoch(&mut net, &train, &mut opt, &mut r).map_err(|e| e.to_string())?;
    }
    let end = drive_descent(
        &config,
        &mut net,
        &train,
        &val,
        &mut NullSink,
        &mut Tracer::new(false),
        &mut |_| {},
    )?;
    end.report.ok_or("in-process job did not finish")?;
    PackedModel::capture(&mut net, &ccq_infer::arch::mlp_arch(&spec.mlp_dims))
        .map_err(|e| e.to_string())?;
    Ok(net)
}

/// Times the serve path on `specs`: each spec once in process, then all
/// of them enqueued into a fresh spool at `root` and drained by a
/// one-worker daemon.
///
/// # Errors
///
/// Any job or spool error, or a job the daemon did not finish.
pub fn serve_probe(root: &Path, specs: &[JobSpec]) -> Result<ServeProbe, String> {
    let mut inprocess = Vec::new();
    for spec in specs {
        let t = Instant::now();
        run_inprocess(spec)?;
        inprocess.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let spool = Spool::new(root);
    spool.init().map_err(|e| e.to_string())?;
    let written0 = measure::bytes_written();
    let mut enqueue = Vec::new();
    for spec in specs {
        let t = Instant::now();
        spool.enqueue(spec).map_err(|e| e.to_string())?;
        enqueue.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let cfg = DaemonConfig {
        workers: 1,
        drain: true,
        ..DaemonConfig::default()
    };
    let t = Instant::now();
    let report = run_daemon(&spool, &cfg, &AtomicBool::new(false)).map_err(|e| e.to_string())?;
    let daemon_ms = t.elapsed().as_secs_f64() * 1e3;
    let written = measure::bytes_written() - written0;
    if report.done != specs.len() {
        return Err(format!(
            "daemon finished {} of {} jobs: {report:?}",
            report.done,
            specs.len()
        ));
    }
    let n = specs.len() as f64;
    Ok(ServeProbe {
        enqueue_ms: measure::median(&enqueue),
        inprocess_job_ms: measure::mean(&inprocess),
        daemon_job_ms: daemon_ms / n,
        bytes_written_per_job: written as f64 / n,
        report,
    })
}

/// Everything a traced run reports, before naming.
#[derive(Debug, Clone, Default)]
pub struct ModuleFigures {
    /// Descent figures, from the descent probe.
    pub core: CoreTrace,
    /// Training-side `nn` call times, from the descent probe.
    pub nn: NnProbe,
    /// Deploy-path figures, averaged over the workload's models.
    pub pack: PackProbe,
    /// Serve-path figures.
    pub serve: ServeProbe,
    /// Kernel share of CPU time over the traced window.
    pub sys_cpu_share: f64,
    /// Traced over untraced request latency, minus one.
    pub trace_overhead_share: f64,
}

impl ModuleFigures {
    /// The per-module metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.core;
        let mut out: Vec<Metric> = PHASES
            .iter()
            .zip(c.phase_ms)
            .map(|((_, span), ms)| metric(phase_metric(span), ms, "ms"))
            .collect();
        out.extend([
            metric("core.unaccounted_share", c.unaccounted_share, "fraction"),
            metric("core.probes_per_step", c.probes_per_step, "count"),
            metric("core.probe_ms", c.probe_ms, "ms"),
            metric(
                "core.recovery_epochs_per_step",
                c.recovery_epochs_per_step,
                "count",
            ),
            metric("core.rollbacks", c.rollbacks, "count"),
            metric(
                "core.probe_forward_fraction",
                c.forward_fraction,
                "fraction",
            ),
            metric("nn.train_epoch_ms", self.nn.train_epoch_ms, "ms"),
            metric("nn.evaluate_ms", self.nn.evaluate_ms, "ms"),
            metric("nn.forward_packed_integer_ms", self.pack.integer_ms, "ms"),
            metric("nn.forward_fakequant_ms", self.pack.fakequant_ms, "ms"),
            metric("tensor.f32_macs_per_step", c.f32_macs_per_step, "count"),
            metric(
                "tensor.int_macs_per_batch",
                self.pack.int_macs_per_batch,
                "count",
            ),
            metric(
                "tensor.int_weight_bytes_per_batch",
                self.pack.int_weight_bytes_per_batch,
                "bytes",
            ),
            metric("infer.decode_ms", self.pack.decode_ms, "ms"),
            metric("infer.instantiate_ms", self.pack.instantiate_ms, "ms"),
            metric("quant.pack_ms", self.pack.pack_ms, "ms"),
            metric("infer.payload_bytes", self.pack.payload_bytes, "bytes"),
            metric("serve.enqueue_ms", self.serve.enqueue_ms, "ms"),
            metric("serve.inprocess_job_ms", self.serve.inprocess_job_ms, "ms"),
            metric(
                "serve.overhead_ms",
                self.serve.daemon_job_ms - self.serve.inprocess_job_ms,
                "ms",
            ),
            metric(
                "serve.bytes_written_per_job",
                self.serve.bytes_written_per_job,
                "bytes",
            ),
            metric("serve.daemon_done", self.serve.report.done as f64, "count"),
            metric(
                "serve.daemon_retries",
                self.serve.report.retries as f64,
                "count",
            ),
            metric(
                "serve.daemon_resumes",
                self.serve.report.resumes as f64,
                "count",
            ),
            metric("proc.sys_cpu_share", self.sys_cpu_share, "fraction"),
            metric(
                "trace.overhead_share",
                self.trace_overhead_share,
                "fraction",
            ),
        ]);
        out
    }
}

fn phase_metric(span: &str) -> &'static str {
    match span {
        "core.init" => "core.init_ms",
        "core.compete" => "core.compete_ms",
        "core.quantize" => "core.quantize_ms",
        "core.recover" => "core.recover_ms",
        _ => "core.checkpoint_ms",
    }
}
