//! The staged descent engine: paper Algorithm 1 as an explicit state
//! machine.
//!
//! ```text
//!               ┌────────────── fresh start
//!               ▼
//!         InitQuantize ──┐            ┌── resume (RunState)
//!                        ▼            ▼
//!               ┌──► Checkpoint ──► Done        (ladder exhausted,
//!               │        │                       compression target,
//!               │        ▼                       or step cap)
//!               │     Compete ──────► Done      (every expert asleep)
//!               │        │
//!               │        ▼
//!               │     Quantize
//!               │        │
//!               │        ▼
//!               └───── Recover ──┐
//!                        ▲       │ guard rollback
//!                        └───────┘ (back to Compete)
//! ```
//!
//! Each [`DescentEngine::step`] call executes exactly one phase and
//! returns a [`StepOutcome`]; [`DescentEngine::run_to_completion`] loops
//! to [`Phase::Done`] and yields the [`CcqReport`]. Every phase narrates
//! itself through an [`EventSink`] (see [`crate::event`]); the engine's
//! internal [`TraceBuffer`] folds the same stream into the legacy
//! trace/step vectors, which keeps the refactored engine bit-identical to
//! the pre-engine monolithic runner (enforced by the `engine_equivalence`
//! golden tests).

use crate::fault::{inject_nan, FaultPlan};
use crate::guard::{capture_velocities, restore_velocities, StepSnapshot};
use crate::run_state::RunState;
use crate::runner::{CcqConfig, CcqReport};
use crate::searcher::Searcher;
use crate::{
    layer_profiles, CcqError, Collaboration, CompetitionOutcome, DescentEvent, EventSink,
    ExpertGranularity, GuardPolicy, ProbeRecord, ProbeRegime, RecoveryRecord, Result, StepRecord,
    TraceBuffer,
};
use ccq_hw::model_size;
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::schedule::HybridRestart;
use ccq_nn::train::{evaluate, Batch};
use ccq_nn::{Network, Sgd};
use ccq_tensor::{rng, rng_from_state, rng_state, Rng64};

/// The engine's stages, in trajectory order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Measure the fp32 baseline, move every unfrozen layer to the
    /// ladder's top rung, and run the step-0 collaboration (fresh runs
    /// only; resumed runs skip straight to [`Phase::Checkpoint`]).
    InitQuantize,
    /// Run the Hedge competition (probe rounds + λ-blended draw) and
    /// lower the winner one rung. Captures the guard snapshot first.
    Compete,
    /// Measure the post-cut valley and commit the quantize decision to
    /// the trace.
    Quantize,
    /// Collaborative recovery (QAT fine-tuning); on divergence the guard
    /// rolls back to the pre-step snapshot and re-enters
    /// [`Phase::Compete`].
    Recover,
    /// Autosave the run state, then decide: next step, or finish.
    Checkpoint,
    /// The run is complete and the report is ready.
    Done,
}

/// Where a descent starts.
#[derive(Debug, Clone)]
pub enum StartPoint {
    /// A fresh run over a pre-trained full-precision network.
    Fresh,
    /// Continue bit-for-bit from an autosaved [`RunState`] (boxed: a
    /// state carries full network tensors and dwarfs the `Fresh` arm).
    FromRunState(Box<RunState>),
}

/// How a driver steers a descent mid-run — consulted by
/// [`DescentEngine::run_with_control`] before every phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep stepping.
    Continue,
    /// Finish the quantization step in flight, then stop right after the
    /// next [`Phase::Checkpoint`] executes — the autosave on disk is
    /// current at that instant, so a later resume repeats nothing. The
    /// request latches: once returned it cannot be rescinded.
    Pause,
    /// Abandon the run immediately with [`CcqError::Canceled`]. The last
    /// completed autosave (if any) remains valid; resuming from it
    /// re-runs only the abandoned step.
    Cancel,
}

/// What [`DescentEngine::run_with_control`] produced.
#[derive(Debug)]
pub enum DriveOutcome {
    /// The descent reached [`Phase::Done`] (boxed: a report carries the
    /// full trace and dwarfs the `Paused` arm).
    Finished(Box<CcqReport>),
    /// The driver requested [`RunControl::Pause`] and the engine stopped
    /// at a checkpoint boundary with a fresh autosave on disk.
    Paused {
        /// The quantization step a resumed run will execute next.
        next_step: usize,
    },
}

/// What one [`DescentEngine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The engine executed `ran` and is now at `next`.
    Advanced {
        /// The phase that just executed.
        ran: Phase,
        /// The phase the next `step()` call will execute.
        next: Phase,
    },
    /// The engine is at [`Phase::Done`]; take the report with
    /// [`DescentEngine::into_report`].
    Finished,
}

/// The mutable state one descent carries between quantization steps —
/// everything a [`RunState`] checkpoint captures and a rollback restores.
struct DescentState {
    r: Rng64,
    opt: Sgd,
    hybrid: HybridRestart,
    collab: Collaboration,
    buf: TraceBuffer,
    epoch: usize,
    baseline: f32,
    last_acc: f32,
    /// The next quantization step `t` to run (1-based).
    next_step: usize,
}

/// A competition outcome awaiting its valley measurement and recovery.
struct PendingStep {
    outcome: CompetitionOutcome,
    valley: f32,
}

/// One staged descent over a network: borrows the runner's configuration
/// and searcher, the network, and the data sources for the duration of
/// the run. Built by [`crate::CcqRunner::engine`].
pub struct DescentEngine<'a> {
    config: &'a CcqConfig,
    searcher: &'a mut dyn Searcher,
    fault: Option<&'a FaultPlan>,
    net: &'a mut Network,
    train: &'a mut dyn FnMut(&mut Rng64) -> Vec<Batch>,
    val: &'a [Batch],
    probe_val: &'a [Batch],
    sink: &'a mut dyn EventSink,
    st: DescentState,
    phase: Phase,
    /// The quantization step `t` currently in flight (1-based).
    t: usize,
    /// Guard retry attempts consumed for step `t`.
    attempt: usize,
    /// π slots quarantined for step `t` (quarantine policy).
    quarantined: Vec<usize>,
    snap: Option<StepSnapshot>,
    lambda_now: f32,
    pending: Option<PendingStep>,
    /// Compression after the step just completed, checked against the
    /// target at the next [`Phase::Checkpoint`].
    target_check: Option<f64>,
    /// Guard rollbacks taken so far (carried across resume).
    rollbacks: u64,
    report: Option<CcqReport>,
}

impl<'a> DescentEngine<'a> {
    pub(crate) fn new(
        config: &'a CcqConfig,
        searcher: &'a mut dyn Searcher,
        net: &'a mut Network,
        train: &'a mut dyn FnMut(&mut Rng64) -> Vec<Batch>,
        val: &'a [Batch],
        sink: &'a mut dyn EventSink,
        start: StartPoint,
    ) -> Result<Self> {
        check_inputs(config, val)?;
        let collab = if config.use_hybrid_lr {
            Collaboration::new(config.recovery)
        } else {
            Collaboration::new(config.recovery).with_constant_lr()
        };
        let (st, phase, target_check, rollbacks) = match start {
            StartPoint::Fresh => {
                if let Some(t) = &config.targets {
                    let m = net.quant_layer_count();
                    if t.len() != m {
                        return Err(CcqError::InvalidConfig(format!(
                            "{} targets for {m} quantizable layers",
                            t.len()
                        )));
                    }
                }
                let st = DescentState {
                    r: rng(config.seed),
                    opt: Sgd::new(config.lr)
                        .momentum(config.momentum)
                        .weight_decay(config.weight_decay),
                    hybrid: HybridRestart::new(config.lr),
                    collab,
                    buf: TraceBuffer::new(),
                    epoch: 0,
                    baseline: 0.0,
                    last_acc: 0.0,
                    next_step: 1,
                };
                (st, Phase::InitQuantize, None, 0)
            }
            StartPoint::FromRunState(state) => {
                validate_resume(config, &state, net)?;
                state.ckpt.apply(net).map_err(|e| {
                    CcqError::ResumeMismatch(format!("checkpoint does not fit this network: {e}"))
                })?;
                restore_velocities(net, &state.velocities);
                // A pristine state (the autosave after the initial
                // ladder-top recovery, before the first competition)
                // resets the searcher exactly as a fresh run would.
                let slots = expert_slots(config.granularity, net.quant_layer_count());
                searcher.restore(&state.searcher, slots).map_err(|e| {
                    CcqError::ResumeMismatch(format!("saved searcher state rejected: {e}"))
                })?;
                let mut hybrid = HybridRestart::new(state.base_lr);
                hybrid.set_plateau_state(state.plateau);
                let mut opt = Sgd::new(config.lr)
                    .momentum(config.momentum)
                    .weight_decay(config.weight_decay);
                opt.set_lr(state.lr);
                // The autosave this state came from ran *before* the
                // checkpoint's compression-target decision, so that check
                // is still pending on resume. Re-arm it from the last
                // committed step (the exact f64 the interrupted run would
                // have compared) or a kill between the final autosave and
                // `finalize` would resume past its target.
                let pending_target = state.steps.last().map(|s| s.compression);
                let st = DescentState {
                    r: rng_from_state(state.rng),
                    opt,
                    hybrid,
                    collab,
                    buf: TraceBuffer::with_history(state.trace, state.steps),
                    epoch: state.epoch,
                    baseline: state.baseline_accuracy,
                    last_acc: state.last_accuracy,
                    next_step: state.next_step,
                };
                (st, Phase::Checkpoint, pending_target, state.rollbacks)
            }
        };
        let probe_val = if config.probe_val_batches == 0 {
            val
        } else {
            &val[..config.probe_val_batches.min(val.len())]
        };
        Ok(DescentEngine {
            config,
            searcher,
            fault: None,
            net,
            train,
            val,
            probe_val,
            sink,
            st,
            phase,
            t: 0,
            attempt: 0,
            quarantined: Vec::new(),
            snap: None,
            lambda_now: 0.0,
            pending: None,
            target_check,
            rollbacks,
            report: None,
        })
    }

    /// Arms a fault plan for this run (builder style).
    pub(crate) fn with_faults(mut self, plan: Option<&'a FaultPlan>) -> Self {
        self.fault = plan;
        self
    }

    /// The phase the next [`DescentEngine::step`] call will execute.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Forward-work accounting for the searcher's probe evaluations —
    /// see [`crate::ProbeCacheStats`]. Fold it into a
    /// [`crate::MetricsRegistry`] with
    /// [`crate::MetricsRegistry::record_probe_cache`] after the run.
    pub fn probe_cache_stats(&self) -> &crate::ProbeCacheStats {
        self.searcher.cache_stats()
    }

    /// The learning-curve points collected so far.
    pub fn trace(&self) -> &[crate::TracePoint] {
        self.st.buf.trace()
    }

    /// The step records collected so far.
    pub fn steps(&self) -> &[StepRecord] {
        self.st.buf.steps()
    }

    /// Executes the current phase and advances the machine.
    ///
    /// # Errors
    ///
    /// Any [`CcqError`] a full run can surface: evaluation failures,
    /// [`CcqError::Diverged`] on an exhausted guard budget, or
    /// [`CcqError::CheckpointIo`] from a failed autosave.
    pub fn step(&mut self) -> Result<StepOutcome> {
        let ran = self.phase;
        if ran != Phase::Done {
            // Narrate the phase boundary first: sinks that time phases
            // (MetricsSink) close the previous span exactly here.
            self.emit(DescentEvent::PhaseStarted {
                phase: ran,
                step: self.t,
            });
        }
        match self.phase {
            Phase::InitQuantize => self.phase_init()?,
            Phase::Compete => self.phase_compete()?,
            Phase::Quantize => self.phase_quantize()?,
            Phase::Recover => self.phase_recover()?,
            Phase::Checkpoint => self.phase_checkpoint()?,
            Phase::Done => return Ok(StepOutcome::Finished),
        }
        Ok(StepOutcome::Advanced {
            ran,
            next: self.phase,
        })
    }

    /// Steps until [`Phase::Done`] and returns the report.
    ///
    /// # Errors
    ///
    /// Same contract as [`DescentEngine::step`].
    pub fn run_to_completion(self) -> Result<CcqReport> {
        match self.run_with_control(&mut |_, _| RunControl::Continue)? {
            DriveOutcome::Finished(report) => Ok(*report),
            DriveOutcome::Paused { .. } => Err(CcqError::EngineInvariant(
                "a never-pausing control cannot pause",
            )),
        }
    }

    /// Steps to completion under a driver's control: `control` is
    /// consulted with the upcoming phase and the step in flight before
    /// every [`DescentEngine::step`] call. [`RunControl::Pause`] latches
    /// and stops the run right after the next [`Phase::Checkpoint`]
    /// executes (autosave current on disk); [`RunControl::Cancel`] aborts
    /// immediately. Control decisions never perturb the trajectory — a
    /// paused-then-resumed run is bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Everything [`DescentEngine::step`] can surface, plus
    /// [`CcqError::Canceled`] when the control requests it.
    pub fn run_with_control(
        mut self,
        control: &mut dyn FnMut(Phase, usize) -> RunControl,
    ) -> Result<DriveOutcome> {
        let mut pause_requested = false;
        while self.phase != Phase::Done {
            match control(self.phase, self.t) {
                RunControl::Continue => {}
                RunControl::Pause => pause_requested = true,
                RunControl::Cancel => return Err(CcqError::Canceled { step: self.t }),
            }
            let ran = self.phase;
            self.step()?;
            if pause_requested && ran == Phase::Checkpoint && self.phase != Phase::Done {
                return Ok(DriveOutcome::Paused {
                    next_step: self.st.next_step,
                });
            }
        }
        let report = self
            .report
            .take()
            .ok_or(CcqError::EngineInvariant("Done implies a finished report"))?;
        Ok(DriveOutcome::Finished(Box::new(report)))
    }

    /// The final report, once the engine reached [`Phase::Done`].
    pub fn into_report(self) -> Option<CcqReport> {
        self.report
    }

    /// Applies an event to the internal trace buffer and the attached
    /// sink, in that order.
    fn emit(&mut self, ev: DescentEvent) {
        self.st.buf.on_event(&ev);
        self.sink.on_event(&ev);
    }

    /// [`Phase::InitQuantize`]: baseline, ladder-top init (Algorithm 1
    /// line 3, honoring full-precision freezes), step-0 collaboration.
    fn phase_init(&mut self) -> Result<()> {
        let baseline = evaluate(self.net, self.val)?.accuracy;
        self.st.baseline = baseline;
        self.emit(DescentEvent::Baseline {
            accuracy: baseline,
            lr: self.config.lr,
        });
        let top = self.config.ladder.top();
        let infos = self.net.quant_layer_info();
        for (m, info) in infos.iter().enumerate() {
            let frozen = self
                .config
                .targets
                .as_ref()
                .map(|t| t[m].is_full_precision())
                .unwrap_or(false);
            if !frozen && info.spec.weight_bits > top {
                self.net.set_quant_spec(m, info.spec.with_bits(top, top));
            }
        }
        let after_init = evaluate(self.net, self.val)?.accuracy;
        self.emit(DescentEvent::InitQuantize {
            accuracy: after_init,
            lr: self.config.lr,
        });
        self.st.last_acc = after_init;
        let rec = self.collaborate(0)?;
        self.st.last_acc = rec.final_accuracy;
        self.phase = Phase::Checkpoint;
        Ok(())
    }

    /// [`Phase::Compete`]: guard snapshot, probe rounds (narrated per
    /// round), then the searcher's draw lowers the winner one rung.
    fn phase_compete(&mut self) -> Result<()> {
        let t = self.t;
        self.lambda_now = self.config.lambda.value(t - 1);
        self.snap = if self.config.guard.is_off() {
            None
        } else {
            Some(StepSnapshot::capture(
                self.net,
                self.searcher.state(),
                &self.st.r,
                &self.st.opt,
                &self.st.hybrid,
                self.st.epoch,
                self.st.buf.trace().len(),
            ))
        };
        let outcome = {
            let DescentState { r, buf, .. } = &mut self.st;
            let sink: &mut dyn EventSink = &mut *self.sink;
            let mut observer = |round: usize, records: &[ProbeRecord], pi: &[f32]| {
                let ev = DescentEvent::ProbeRound {
                    step: t,
                    round,
                    probes: records.to_vec(),
                    pi: pi.to_vec(),
                };
                buf.on_event(&ev);
                sink.on_event(&ev);
            };
            self.searcher.compete(
                self.net,
                &self.config.ladder,
                self.config.targets.as_deref(),
                &self.config.lambda,
                t - 1,
                self.probe_val,
                r,
                &self.quarantined,
                Some(&mut observer),
            )?
        };
        match outcome {
            Some(outcome) => {
                self.pending = Some(PendingStep {
                    outcome,
                    valley: 0.0,
                });
                self.phase = Phase::Quantize;
            }
            // Every expert is asleep: fully quantized.
            None if self.quarantined.is_empty() => self.finalize()?,
            // Only quarantined experts remain: nothing left to draw.
            None => {
                return Err(CcqError::Diverged {
                    step: t,
                    retries: self.attempt,
                })
            }
        }
        Ok(())
    }

    /// [`Phase::Quantize`]: measure the valley and commit the decision to
    /// the trace.
    fn phase_quantize(&mut self) -> Result<()> {
        let valley = evaluate(self.net, self.val)?.accuracy;
        let ev = {
            let pending = self.pending.as_mut().ok_or(CcqError::EngineInvariant(
                "Quantize requires the outcome staged by Compete",
            ))?;
            pending.valley = valley;
            let o = &pending.outcome;
            DescentEvent::QuantizeDecision {
                step: self.t,
                epoch: self.st.epoch,
                layer: o.winner,
                kind: o.winner_kind,
                label: o.winner_label.clone(),
                from_bits: o.from_bits,
                to_bits: o.to_bits,
                probabilities: o.probabilities.clone(),
                valley_accuracy: valley,
                lr: self.st.opt.lr(),
                searcher: self.searcher.label().to_string(),
            }
        };
        self.emit(ev);
        self.phase = Phase::Recover;
        Ok(())
    }

    /// [`Phase::Recover`]: collaboration, health check, and — on
    /// divergence — the guard rollback back into [`Phase::Compete`].
    fn phase_recover(&mut self) -> Result<()> {
        let t = self.t;
        let rec = self.collaborate(t)?;
        let healthy = self.config.guard.is_off()
            || (!rec.diverged && rec.final_accuracy.is_finite() && self.net.all_finite());
        let PendingStep { outcome, valley } = self.pending.take().ok_or(
            CcqError::EngineInvariant("Recover requires the outcome staged by Quantize"),
        )?;
        if healthy {
            self.snap = None;
            let compression = model_size(&layer_profiles(self.net)).compression;
            let record = StepRecord {
                step: t,
                layer: outcome.winner,
                kind: outcome.winner_kind,
                label: outcome.winner_label,
                from_bits: outcome.from_bits,
                to_bits: outcome.to_bits,
                accuracy_before: self.st.last_acc,
                accuracy_after_quant: valley,
                accuracy_after_recovery: rec.final_accuracy,
                recovery_epochs: rec.epochs,
                compression,
                lambda: self.lambda_now,
            };
            self.emit(DescentEvent::StepCompleted { record });
            self.st.last_acc = rec.final_accuracy;
            self.st.next_step = t + 1;
            self.target_check = Some(compression);
            self.phase = Phase::Checkpoint;
            return Ok(());
        }
        // Divergence: roll everything back to the pre-step snapshot and
        // apply the guard policy.
        let snap = self.snap.take().ok_or(CcqError::EngineInvariant(
            "an armed guard implies a pre-step snapshot",
        ))?;
        let discarded = self.st.buf.trace().len() - snap.trace_len;
        self.restore_snapshot(&snap)?;
        self.rollbacks += 1;
        self.attempt += 1;
        if self.attempt > self.config.guard.max_retries() {
            return Err(CcqError::Diverged {
                step: t,
                retries: self.attempt - 1,
            });
        }
        let mut quarantined_slot = None;
        match self.config.guard {
            GuardPolicy::RollbackRetry { lr_factor, .. } => {
                self.st.hybrid.scale_base_lr(lr_factor);
                self.st.opt.set_lr(self.st.hybrid.base_lr());
            }
            GuardPolicy::Quarantine { .. } => {
                self.quarantined.push(outcome.winner_slot);
                quarantined_slot = Some(outcome.winner_slot);
            }
            GuardPolicy::Off => {
                return Err(CcqError::EngineInvariant(
                    "GuardPolicy::Off cannot reach the rollback path",
                ))
            }
        }
        self.emit(DescentEvent::GuardRollback {
            step: t,
            attempt: self.attempt,
            discarded_trace_points: discarded,
            quarantined_slot,
        });
        self.phase = Phase::Compete;
        Ok(())
    }

    /// [`Phase::Checkpoint`]: autosave, then either schedule the next
    /// step or finish (compression target, step cap).
    fn phase_checkpoint(&mut self) -> Result<()> {
        self.autosave()?;
        let completed = self.target_check.take();
        if let (Some(compression), Some(target)) = (completed, self.config.target_compression) {
            if compression >= target {
                return self.finalize();
            }
        }
        if self.st.next_step > self.config.max_steps {
            return self.finalize();
        }
        self.t = self.st.next_step;
        self.attempt = 0;
        self.quarantined.clear();
        self.phase = Phase::Compete;
        Ok(())
    }

    /// Final evaluation and report assembly; transitions to
    /// [`Phase::Done`].
    fn finalize(&mut self) -> Result<()> {
        let final_accuracy = evaluate(self.net, self.val)?.accuracy;
        let final_compression = model_size(&layer_profiles(self.net)).compression;
        let bit_assignment = self
            .net
            .quant_layer_info()
            .into_iter()
            .map(|i| (i.label, i.spec.weight_bits, i.spec.act_bits))
            .collect();
        let report = CcqReport {
            baseline_accuracy: self.st.baseline,
            final_accuracy,
            final_compression,
            steps: self.st.buf.steps().to_vec(),
            trace: self.st.buf.trace().to_vec(),
            bit_assignment,
            rollbacks: self.rollbacks,
        };
        self.emit(DescentEvent::Finished {
            baseline_accuracy: report.baseline_accuracy,
            final_accuracy,
            final_compression,
            bit_pattern: report.bit_pattern(),
        });
        self.report = Some(report);
        self.phase = Phase::Done;
        Ok(())
    }

    /// Restores a pre-step snapshot after a divergent attempt: network
    /// and momentum, searcher state, RNG stream, LR schedule, and the
    /// epoch cursor. The trace retraction travels as the
    /// [`DescentEvent::GuardRollback`] event.
    fn restore_snapshot(&mut self, snap: &StepSnapshot) -> Result<()> {
        snap.restore_network(self.net)?;
        let slots = expert_slots(self.config.granularity, self.net.quant_layer_count());
        self.searcher.restore(&snap.searcher, slots)?;
        self.st.r = rng_from_state(snap.rng);
        let mut hybrid = HybridRestart::new(snap.base_lr);
        hybrid.set_plateau_state(snap.plateau);
        self.st.hybrid = hybrid;
        self.st.opt.set_lr(snap.lr);
        self.st.epoch = snap.epoch;
        Ok(())
    }

    /// One collaboration stage; narrates every recovery epoch and returns
    /// the full [`RecoveryRecord`]. `step` identifies the quantization
    /// step for the fault plan's coordinates (0 = the initial
    /// post-ladder-top stage).
    fn collaborate(&mut self, step: usize) -> Result<RecoveryRecord> {
        let train = (self.train)(&mut self.st.r);
        let fault = self.fault;
        let mut hook = |e: usize, n: &mut Network| {
            if fault.is_some_and(|plan| plan.take_nan_grad(step, e)) {
                inject_nan(n);
            }
        };
        let rec = self.st.collab.recover(
            self.net,
            &train,
            self.val,
            self.st.baseline,
            &mut self.st.opt,
            &mut self.st.hybrid,
            &mut self.st.r,
            Some(&mut hook),
        )?;
        for e in &rec.trace {
            self.st.epoch += 1;
            self.emit(DescentEvent::RecoveryEpoch {
                step,
                epoch: self.st.epoch,
                train_loss: e.train_loss,
                val_accuracy: e.val_accuracy,
                lr: e.lr,
            });
        }
        Ok(rec)
    }

    /// Atomically writes the current run state to the configured autosave
    /// path, retrying failed writes up to [`CcqConfig::autosave_retries`]
    /// times. A no-op when autosave is off.
    fn autosave(&mut self) -> Result<()> {
        let Some(path) = self.config.autosave.clone() else {
            return Ok(());
        };
        let state = self.capture_run_state();
        let mut attempts = 0usize;
        loop {
            // An injected write failure preempts the write, so it consumes
            // no directory-fsync fault.
            let (fail_write, fail_dir_sync) = self.fault.map_or((false, false), |p| {
                let fail_write = p.take_write_failure();
                (fail_write, !fail_write && p.take_dir_sync_failure())
            });
            let result = if fail_write {
                Err(CcqError::CheckpointIo(format!(
                    "injected write failure for {}",
                    path.display()
                )))
            } else {
                state.write_atomic(&path, fail_dir_sync)
            };
            match result {
                Ok(()) => break,
                Err(_) if attempts < self.config.autosave_retries => attempts += 1,
                Err(e) => return Err(e),
            }
        }
        self.emit(DescentEvent::Autosave {
            next_step: self.st.next_step,
            path,
        });
        Ok(())
    }

    /// Packages the current descent state as a [`RunState`].
    fn capture_run_state(&mut self) -> RunState {
        RunState {
            seed: self.config.seed,
            gamma: self.config.gamma,
            ladder: self
                .config
                .ladder
                .rungs()
                .iter()
                .map(|b| b.bits())
                .collect(),
            granularity_code: granularity_code(self.config.granularity),
            regime_code: regime_code(self.config.probe_regime),
            targets: self
                .config
                .targets
                .as_ref()
                .map(|t| t.iter().map(|b| b.bits()).collect()),
            next_step: self.st.next_step,
            epoch: self.st.epoch,
            baseline_accuracy: self.st.baseline,
            last_accuracy: self.st.last_acc,
            lr: self.st.opt.lr(),
            base_lr: self.st.hybrid.base_lr(),
            rng: rng_state(&self.st.r),
            plateau: self.st.hybrid.plateau_state(),
            searcher: self.searcher.state(),
            rollbacks: self.rollbacks,
            velocities: capture_velocities(self.net),
            ckpt: Checkpoint::capture(self.net),
            trace: self.st.buf.trace().to_vec(),
            steps: self.st.buf.steps().to_vec(),
        }
    }
}

/// π slots for a network at the given granularity.
fn expert_slots(granularity: ExpertGranularity, layers: usize) -> usize {
    match granularity {
        ExpertGranularity::Layer => layers,
        ExpertGranularity::WeightAct => 2 * layers,
    }
}

/// The input checks every way into a descent shares, in order: an empty
/// validation set, then [`CcqConfig::validate`].
pub(crate) fn check_inputs(config: &CcqConfig, val: &[Batch]) -> Result<()> {
    if val.is_empty() {
        return Err(CcqError::EmptyValidationSet);
    }
    config.validate()
}

/// Rejects a [`RunState`] whose configuration fingerprint or network
/// structure does not match this run.
fn validate_resume(config: &CcqConfig, state: &RunState, net: &mut Network) -> Result<()> {
    let mismatch = |msg: String| Err(CcqError::ResumeMismatch(msg));
    if state.seed != config.seed {
        return mismatch(format!(
            "saved seed {} != configured {}",
            state.seed, config.seed
        ));
    }
    if state.gamma.to_bits() != config.gamma.to_bits() {
        return mismatch(format!(
            "saved γ {} != configured {}",
            state.gamma, config.gamma
        ));
    }
    let ladder: Vec<u32> = config.ladder.rungs().iter().map(|b| b.bits()).collect();
    if state.ladder != ladder {
        return mismatch(format!(
            "saved ladder {:?} != configured {ladder:?}",
            state.ladder
        ));
    }
    if state.granularity_code != granularity_code(config.granularity) {
        return mismatch("saved expert granularity differs".into());
    }
    if state.regime_code != regime_code(config.probe_regime) {
        return mismatch("saved probe regime differs".into());
    }
    let targets = config
        .targets
        .as_ref()
        .map(|t| t.iter().map(|b| b.bits()).collect::<Vec<u32>>());
    if state.targets != targets {
        return mismatch("saved per-layer targets differ".into());
    }
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    net.visit_params(&mut |p| shapes.push(p.velocity.shape().to_vec()));
    if shapes.len() != state.velocities.len() {
        return mismatch(format!(
            "saved run has {} momentum buffers, network has {}",
            state.velocities.len(),
            shapes.len()
        ));
    }
    for (i, (s, v)) in shapes.iter().zip(&state.velocities).enumerate() {
        if s != v.shape() {
            return mismatch(format!("momentum buffer {i} shape differs"));
        }
    }
    // Slot-dimension validation happens inside `Searcher::restore`; the
    // fingerprint check here is only that the state was written by the
    // searcher this run is configured for.
    if state.searcher.kind_str() != config.searcher.as_str() {
        return mismatch(format!(
            "saved searcher state is {:?}, this run is configured for {:?}",
            state.searcher.kind_str(),
            config.searcher.as_str()
        ));
    }
    Ok(())
}

pub(crate) fn granularity_code(g: ExpertGranularity) -> u8 {
    match g {
        ExpertGranularity::Layer => 0,
        ExpertGranularity::WeightAct => 1,
    }
}

pub(crate) fn regime_code(r: ProbeRegime) -> u8 {
    match r {
        ProbeRegime::FullInformation => 0,
        ProbeRegime::Sampled => 1,
    }
}
