//! Structured descent events and pluggable observers.
//!
//! The staged engine ([`crate::DescentEngine`]) narrates a run as a stream
//! of [`DescentEvent`]s: the baseline measurement, every competition probe
//! round (with per-expert losses ξ and the Hedge weights π), each quantize
//! decision and recovery epoch, guard rollbacks, and autosaves. Anything
//! that wants to observe a run — trace collection, CSV/JSONL export, live
//! dashboards — implements [`EventSink`] and receives the stream without
//! the orchestration loop knowing it exists.
//!
//! The engine always feeds an internal [`TraceBuffer`], which reproduces
//! the legacy [`TracePoint`]/[`StepRecord`] vectors bit-for-bit (including
//! discarding the points of a rolled-back step); the report's CSV emitters
//! are thin renderers over those vectors, shared with [`CsvSink`].
//!
//! # Sink contract
//!
//! - Events arrive in trajectory order, one stream per run; a sink
//!   attached to a resumed run sees only the continuation.
//! - Sinks are passive: they cannot alter the descent, and the trajectory
//!   is bit-identical whatever sink is attached.
//! - A [`DescentEvent::GuardRollback`] *retracts* the current step's
//!   earlier `QuantizeDecision`/`RecoveryEpoch` events (the guard rolled
//!   the step back); `discarded_trace_points` counts exactly how many
//!   trace points they contributed. Append-only sinks like [`JsonlSink`]
//!   keep the retracted events and record the rollback marker instead.

use crate::{ExpertKind, Phase, ProbeRecord};
use ccq_quant::BitWidth;
use std::fmt::Write as _;
use std::path::PathBuf;

/// What happened at a point of the learning curve (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Baseline evaluation of the incoming full-precision network.
    Baseline,
    /// The initial everything-to-`N(0)` quantization.
    InitQuantize,
    /// A competition winner was quantized (a valley).
    QuantStep {
        /// The quantized layer index.
        layer: usize,
        /// Its new precision.
        to_bits: BitWidth,
    },
    /// One collaboration (fine-tuning) epoch (a climb back up).
    Recovery,
}

/// One point of the CCQ learning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Global fine-tuning epoch count when the point was taken.
    pub epoch: usize,
    /// Validation accuracy.
    pub val_accuracy: f32,
    /// Learning rate in effect.
    pub lr: f32,
    /// What produced the point.
    pub event: TraceEvent,
}

/// Record of one quantization step (competition + collaboration).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Step index `t` (1-based; 0 is the ladder-top initialization).
    pub step: usize,
    /// Winning layer index.
    pub layer: usize,
    /// Which operand the step lowered.
    pub kind: ExpertKind,
    /// Winning layer label.
    pub label: String,
    /// Precision before.
    pub from_bits: BitWidth,
    /// Precision after.
    pub to_bits: BitWidth,
    /// Validation accuracy entering the step.
    pub accuracy_before: f32,
    /// Validation accuracy right after quantizing (the valley).
    pub accuracy_after_quant: f32,
    /// Validation accuracy after collaboration recovered it.
    pub accuracy_after_recovery: f32,
    /// Fine-tuning epochs the recovery used (`S_t`).
    pub recovery_epochs: usize,
    /// Weight-compression ratio after the step.
    pub compression: f64,
    /// λ in effect during the step.
    pub lambda: f32,
}

/// One structured event in a descent's narration.
///
/// Events carry everything an observer needs; none of them borrow engine
/// state, so sinks may retain them.
#[derive(Debug, Clone, PartialEq)]
pub enum DescentEvent {
    /// The engine is about to execute a phase. Emitted before every
    /// [`crate::DescentEngine::step`] body, so observers (notably
    /// [`crate::MetricsSink`]) can attribute wall/virtual time to exact
    /// phase spans without guessing from payload events.
    PhaseStarted {
        /// The phase about to run.
        phase: Phase,
        /// The quantization step `t` in flight (0 before the first
        /// competition).
        step: usize,
    },
    /// The incoming full-precision network was measured.
    Baseline {
        /// Validation accuracy of the fp32 network.
        accuracy: f32,
        /// The configured base learning rate.
        lr: f32,
    },
    /// Every unfrozen layer was moved to the ladder's top rung `N(0)`.
    InitQuantize {
        /// Validation accuracy right after the initial quantization.
        accuracy: f32,
        /// The configured base learning rate.
        lr: f32,
    },
    /// One competition probe round finished: per-expert validation losses
    /// ξ and the Hedge weights π after the round's multiplicative updates
    /// (before the end-of-competition rescaling).
    ProbeRound {
        /// Quantization step `t` the round belongs to (1-based).
        step: usize,
        /// Round index `u` within the step.
        round: usize,
        /// The round's probes in expert order (one per draw in the
        /// sampled regime).
        probes: Vec<ProbeRecord>,
        /// π after this round's updates.
        pi: Vec<f32>,
    },
    /// The competition drew a winner and its precision was lowered.
    QuantizeDecision {
        /// Quantization step `t` (1-based).
        step: usize,
        /// Global fine-tuning epoch count at the decision.
        epoch: usize,
        /// Winning layer index.
        layer: usize,
        /// Which operand was lowered.
        kind: ExpertKind,
        /// Winning layer label.
        label: String,
        /// Precision before.
        from_bits: BitWidth,
        /// Precision after.
        to_bits: BitWidth,
        /// The λ-blended draw distribution over π slots.
        probabilities: Vec<f32>,
        /// Validation accuracy right after the cut (the valley).
        valley_accuracy: f32,
        /// Learning rate in effect.
        lr: f32,
        /// Label of the searcher that made this decision (e.g.
        /// `"hedge"`, `"releq"`).
        searcher: String,
    },
    /// One collaboration (fine-tuning) epoch completed.
    RecoveryEpoch {
        /// Quantization step `t` being recovered (0 = the initial
        /// post-ladder-top stage).
        step: usize,
        /// Global fine-tuning epoch count after this epoch.
        epoch: usize,
        /// Mean training loss of the epoch.
        train_loss: f32,
        /// Validation accuracy after the epoch.
        val_accuracy: f32,
        /// Learning rate used for the epoch.
        lr: f32,
    },
    /// The divergence guard rolled the current step back to its pre-step
    /// snapshot, retracting the step's earlier events.
    GuardRollback {
        /// The step that diverged.
        step: usize,
        /// Retry attempt count after this rollback (1-based).
        attempt: usize,
        /// How many trace points the retracted events contributed.
        discarded_trace_points: usize,
        /// The π slot quarantined by [`crate::GuardPolicy::Quarantine`],
        /// when that policy is active.
        quarantined_slot: Option<usize>,
    },
    /// A quantization step completed healthily.
    StepCompleted {
        /// The step's full record.
        record: StepRecord,
    },
    /// The run state was atomically written to the autosave path.
    Autosave {
        /// The next step the saved state resumes from.
        next_step: usize,
        /// The autosave path.
        path: PathBuf,
    },
    /// The descent finished and the report is final.
    Finished {
        /// Accuracy of the incoming full-precision network.
        baseline_accuracy: f32,
        /// Accuracy of the final mixed-precision network.
        final_accuracy: f32,
        /// Final weight-compression ratio vs fp32.
        final_compression: f64,
        /// Final per-layer bit pattern, e.g. `"6-4-3-…-2"`.
        bit_pattern: String,
    },
}

/// A passive observer of a descent's event stream.
pub trait EventSink {
    /// Receives the next event. Events arrive in trajectory order; see
    /// the [module docs](self) for the full contract.
    fn on_event(&mut self, ev: &DescentEvent);
}

/// A sink that discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn on_event(&mut self, _ev: &DescentEvent) {}
}

/// The default sink: folds the event stream back into the legacy
/// [`TracePoint`] / [`StepRecord`] vectors, bit-for-bit.
///
/// A [`DescentEvent::GuardRollback`] truncates the trace by the event's
/// `discarded_trace_points`, exactly as the pre-engine runner truncated to
/// its pre-step snapshot.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    trace: Vec<TracePoint>,
    steps: Vec<StepRecord>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer pre-seeded with an earlier run's vectors (resume).
    pub fn with_history(trace: Vec<TracePoint>, steps: Vec<StepRecord>) -> Self {
        TraceBuffer { trace, steps }
    }

    /// The learning-curve points collected so far.
    pub fn trace(&self) -> &[TracePoint] {
        &self.trace
    }

    /// The step records collected so far.
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// The learning curve as CSV — same bytes as
    /// [`crate::CcqReport::trace_csv`].
    pub fn trace_csv(&self) -> String {
        render_trace_csv(&self.trace)
    }

    /// The schedule as CSV — same bytes as
    /// [`crate::CcqReport::schedule_csv`].
    pub fn schedule_csv(&self) -> String {
        render_schedule_csv(&self.steps)
    }
}

impl EventSink for TraceBuffer {
    fn on_event(&mut self, ev: &DescentEvent) {
        match ev {
            DescentEvent::Baseline { accuracy, lr } => self.trace.push(TracePoint {
                epoch: 0,
                val_accuracy: *accuracy,
                lr: *lr,
                event: TraceEvent::Baseline,
            }),
            DescentEvent::InitQuantize { accuracy, lr } => self.trace.push(TracePoint {
                epoch: 0,
                val_accuracy: *accuracy,
                lr: *lr,
                event: TraceEvent::InitQuantize,
            }),
            DescentEvent::QuantizeDecision {
                epoch,
                layer,
                to_bits,
                valley_accuracy,
                lr,
                ..
            } => self.trace.push(TracePoint {
                epoch: *epoch,
                val_accuracy: *valley_accuracy,
                lr: *lr,
                event: TraceEvent::QuantStep {
                    layer: *layer,
                    to_bits: *to_bits,
                },
            }),
            DescentEvent::RecoveryEpoch {
                epoch,
                val_accuracy,
                lr,
                ..
            } => self.trace.push(TracePoint {
                epoch: *epoch,
                val_accuracy: *val_accuracy,
                lr: *lr,
                event: TraceEvent::Recovery,
            }),
            DescentEvent::GuardRollback {
                discarded_trace_points,
                ..
            } => {
                let keep = self.trace.len().saturating_sub(*discarded_trace_points);
                self.trace.truncate(keep);
            }
            DescentEvent::StepCompleted { record } => self.steps.push(record.clone()),
            DescentEvent::PhaseStarted { .. }
            | DescentEvent::ProbeRound { .. }
            | DescentEvent::Autosave { .. }
            | DescentEvent::Finished { .. } => {}
        }
    }
}

/// A [`TraceBuffer`] that exposes its contents as the legacy CSV strings;
/// attach one to get `trace_csv`/`schedule_csv` output byte-identical to
/// [`crate::CcqReport`]'s emitters.
#[derive(Debug, Clone, Default)]
pub struct CsvSink {
    buf: TraceBuffer,
}

impl CsvSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The learning curve as CSV (`epoch,val_accuracy,lr,event`).
    pub fn trace_csv(&self) -> String {
        self.buf.trace_csv()
    }

    /// The schedule as CSV, one row per quantization step.
    pub fn schedule_csv(&self) -> String {
        self.buf.schedule_csv()
    }
}

impl EventSink for CsvSink {
    fn on_event(&mut self, ev: &DescentEvent) {
        self.buf.on_event(ev);
    }
}

/// Fans one event stream out to several sinks, in push order.
///
/// This is how orthogonal observers compose: a [`CsvSink`] for the
/// figure, a [`JsonlSink`] for the raw log, and a
/// [`crate::MetricsSink`] for counters and timings can all watch the
/// same run.
///
/// # Example
///
/// ```
/// use ccq::{CsvSink, FanoutSink, MetricsSink};
///
/// let mut csv = CsvSink::new();
/// let mut metrics = MetricsSink::manual(1_000);
/// let mut sink = FanoutSink::new().with(&mut csv).with(&mut metrics);
/// // runner.run(&mut net, &mut provider, &val, &mut sink)?;
/// # let _ = &mut sink;
/// ```
#[derive(Default)]
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn EventSink>,
}

impl<'a> FanoutSink<'a> {
    /// An empty fanout (events are discarded until a sink is added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink (builder style).
    #[must_use]
    pub fn with(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: &'a mut dyn EventSink) {
        self.sinks.push(sink);
    }

    /// How many sinks are attached.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl EventSink for FanoutSink<'_> {
    fn on_event(&mut self, ev: &DescentEvent) {
        for sink in &mut self.sinks {
            sink.on_event(ev);
        }
    }
}

/// Streams every event as one JSON object per line (JSON Lines).
///
/// Each line is [`event_json`]: floats print in Rust's shortest
/// round-trip form, non-finite floats become `null`. Write errors are
/// sticky — the first one is retained and later events are dropped;
/// check [`JsonlSink::io_error`] when the run ends.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    out: W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps a writer (wrap files in a `BufWriter`).
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None }
    }

    /// The first write error, if any event failed to serialize.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Unwraps the writer, discarding any sticky error.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write> EventSink for JsonlSink<W> {
    fn on_event(&mut self, ev: &DescentEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event_json(ev);
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }
}

/// Renders the learning curve as CSV (`epoch,val_accuracy,lr,event`) —
/// the Fig. 2 series, one row per trace point.
pub fn render_trace_csv(trace: &[TracePoint]) -> String {
    let mut out = String::from("epoch,val_accuracy,lr,event\n");
    for p in trace {
        let event = match p.event {
            TraceEvent::Baseline => "baseline".to_string(),
            TraceEvent::InitQuantize => "init_quantize".to_string(),
            TraceEvent::QuantStep { layer, to_bits } => {
                format!("quant_layer{layer}_to_{to_bits}")
            }
            TraceEvent::Recovery => "recovery".to_string(),
        };
        let _ = writeln!(
            out,
            "{},{:.4},{:.6},{}",
            p.epoch, p.val_accuracy, p.lr, event
        );
    }
    out
}

/// Renders the quantization schedule as CSV, one row per step.
pub fn render_schedule_csv(steps: &[StepRecord]) -> String {
    let mut out = String::from(
        "step,layer,kind,label,from,to,acc_before,acc_valley,acc_recovered,epochs,compression,lambda\n",
    );
    for s in steps {
        let kind = kind_str(s.kind);
        let _ = writeln!(
            out,
            "{},{},{kind},{},{},{},{:.4},{:.4},{:.4},{},{:.2},{:.3}",
            s.step,
            s.layer,
            csv_field(&s.label),
            s.from_bits,
            s.to_bits,
            s.accuracy_before,
            s.accuracy_after_quant,
            s.accuracy_after_recovery,
            s.recovery_epochs,
            s.compression,
            s.lambda
        );
    }
    out
}

/// The wire spelling of an expert kind (CSV, JSONL and reports).
pub(crate) fn kind_str(kind: ExpertKind) -> &'static str {
    match kind {
        ExpertKind::Layer => "layer",
        ExpertKind::Weights => "weights",
        ExpertKind::Activations => "acts",
    }
}

/// The wire spelling of a phase (JSONL events and metric labels).
pub(crate) fn phase_str(phase: Phase) -> &'static str {
    match phase {
        Phase::InitQuantize => "init_quantize",
        Phase::Compete => "compete",
        Phase::Quantize => "quantize",
        Phase::Recover => "recover",
        Phase::Checkpoint => "checkpoint",
        Phase::Done => "done",
    }
}

/// RFC-4180 escaping for one CSV field: fields containing a comma,
/// double quote, or line break are quoted, with embedded quotes doubled.
/// Everything else passes through unchanged, keeping the historical
/// bytes for ordinary labels.
fn csv_field(raw: &str) -> String {
    if raw.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(raw.len() + 2);
        out.push('"');
        for c in raw.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        raw.to_string()
    }
}

/// Serializes one event as a single-line JSON object (no trailing
/// newline) — the [`JsonlSink`] row format, read back by
/// [`crate::parse_event_line`].
pub fn event_json(ev: &DescentEvent) -> String {
    let mut s = String::with_capacity(128);
    crate::wire::write_event(ev, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantize_ev(epoch: usize, acc: f32) -> DescentEvent {
        DescentEvent::QuantizeDecision {
            step: 1,
            epoch,
            layer: 2,
            kind: ExpertKind::Layer,
            label: "fc2".into(),
            from_bits: BitWidth::of(8),
            to_bits: BitWidth::of(4),
            probabilities: vec![0.25, 0.75],
            valley_accuracy: acc,
            lr: 0.02,
            searcher: "hedge".into(),
        }
    }

    fn recovery_ev(epoch: usize) -> DescentEvent {
        DescentEvent::RecoveryEpoch {
            step: 1,
            epoch,
            train_loss: 0.5,
            val_accuracy: 0.9,
            lr: 0.01,
        }
    }

    #[test]
    fn trace_buffer_folds_events_into_legacy_vectors() {
        let mut buf = TraceBuffer::new();
        buf.on_event(&DescentEvent::Baseline {
            accuracy: 0.95,
            lr: 0.02,
        });
        buf.on_event(&DescentEvent::InitQuantize {
            accuracy: 0.91,
            lr: 0.02,
        });
        buf.on_event(&quantize_ev(0, 0.7));
        buf.on_event(&recovery_ev(1));
        assert_eq!(buf.trace().len(), 4);
        assert!(matches!(buf.trace()[0].event, TraceEvent::Baseline));
        assert!(matches!(
            buf.trace()[2].event,
            TraceEvent::QuantStep { layer: 2, .. }
        ));
        assert_eq!(buf.trace()[3].epoch, 1);
        assert!(buf.steps().is_empty());
    }

    #[test]
    fn guard_rollback_retracts_the_discarded_points() {
        let mut buf = TraceBuffer::new();
        buf.on_event(&DescentEvent::Baseline {
            accuracy: 0.95,
            lr: 0.02,
        });
        buf.on_event(&quantize_ev(0, 0.7));
        buf.on_event(&recovery_ev(1));
        buf.on_event(&recovery_ev(2));
        buf.on_event(&DescentEvent::GuardRollback {
            step: 1,
            attempt: 1,
            discarded_trace_points: 3,
            quarantined_slot: None,
        });
        assert_eq!(buf.trace().len(), 1, "only the baseline survives");
        assert!(matches!(buf.trace()[0].event, TraceEvent::Baseline));
    }

    #[test]
    fn json_escapes_strings_and_maps_non_finite_to_null() {
        let ev = DescentEvent::Finished {
            baseline_accuracy: f32::NAN,
            final_accuracy: 0.5,
            final_compression: 8.0,
            bit_pattern: "4b-\"x\"\n".into(),
        };
        let json = event_json(&ev);
        assert!(json.contains("\"baseline_accuracy\":null"));
        assert!(json.contains("\"bit_pattern\":\"4b-\\\"x\\\"\\n\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_event(&recovery_ev(1));
        sink.on_event(&quantize_ev(1, 0.8));
        assert!(sink.io_error().is_none());
        let out = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(out.lines().count(), 2);
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
