//! The CCQ front door: configuration, report, and the [`CcqRunner`]
//! entry points over the staged [`DescentEngine`].

use crate::engine::{check_inputs, DescentEngine, StartPoint};
use crate::event::{render_schedule_csv, render_trace_csv, EventSink};
use crate::fault::FaultPlan;
use crate::run_state::RunState;
use crate::searcher::{Searcher, SearcherKind};
use crate::{
    CcqError, ExpertGranularity, GuardPolicy, LambdaSchedule, ProbeRegime, RecoveryMode, Result,
    StepRecord, TracePoint,
};
use ccq_nn::train::Batch;
use ccq_nn::Network;
use ccq_quant::{BitLadder, BitWidth};
use ccq_tensor::Rng64;
use std::fmt;
use std::path::{Path, PathBuf};

/// Configuration for a [`CcqRunner`].
#[derive(Debug, Clone)]
pub struct CcqConfig {
    /// The bit ladder `N(0) > … > N(K-1)`.
    pub ladder: BitLadder,
    /// Hedge learning rate γ for the competition.
    pub gamma: f32,
    /// Competition rounds `U` per quantization step; in the default
    /// full-information regime each round probes every active layer
    /// (0 = two rounds).
    pub probe_rounds: usize,
    /// Number of validation batches each competition probe evaluates (the
    /// paper's "small validation set"); the recovery threshold and final
    /// metrics always use the full validation set. 0 = all batches.
    pub probe_val_batches: usize,
    /// Probe/update regime: full information (default) or Algorithm 1's
    /// literal sampled updates.
    pub probe_regime: ProbeRegime,
    /// Expert granularity: whole layers (the paper) or independent
    /// weight/act experts (the natural extension).
    pub granularity: ExpertGranularity,
    /// Which search strategy drives the Compete phase — see
    /// [`SearcherKind`]. The default Hedge searcher reproduces the paper
    /// bit-for-bit.
    pub searcher: SearcherKind,
    /// Memory-aggressiveness schedule λ (Eq. 7).
    pub lambda: LambdaSchedule,
    /// Recovery mode for the collaboration stage.
    pub recovery: RecoveryMode,
    /// Whether to use the hybrid plateau/cosine-restart learning rate.
    pub use_hybrid_lr: bool,
    /// Base fine-tuning learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Safety cap on quantization steps.
    pub max_steps: usize,
    /// Stop once this weight-compression ratio is reached (e.g. `10.0`).
    pub target_compression: Option<f64>,
    /// Forced per-layer floor configuration (Table I mode): layer `m`
    /// never descends below `targets[m]`; full-precision targets freeze the
    /// layer entirely.
    pub targets: Option<Vec<BitWidth>>,
    /// Minibatch size for callers that build batches from a dataset.
    /// Must be at least 1 — see [`CcqConfig::validate`].
    pub batch_size: usize,
    /// Master seed (sampling, shuffling, augmentation).
    pub seed: u64,
    /// Divergence guard: what to do when a quantization step produces a
    /// non-finite loss, accuracy, or weights.
    pub guard: GuardPolicy,
    /// When set, the runner atomically writes a [`RunState`] to this path
    /// at every step boundary; [`CcqRunner::resume`] continues from it
    /// bit-for-bit.
    pub autosave: Option<PathBuf>,
    /// Additional attempts for a failed autosave write before the run
    /// surfaces [`CcqError::CheckpointIo`].
    pub autosave_retries: usize,
}

impl CcqConfig {
    /// Checks the invariants a run relies on; every entry point calls
    /// this once before touching data.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::InvalidConfig`] when `batch_size` is zero
    /// (previously clamped to 1 silently).
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(CcqError::InvalidConfig(
                "batch_size must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for CcqConfig {
    fn default() -> Self {
        CcqConfig {
            ladder: BitLadder::paper_default(),
            gamma: 0.5,
            probe_rounds: 0,
            probe_val_batches: 4,
            probe_regime: ProbeRegime::FullInformation,
            granularity: ExpertGranularity::Layer,
            searcher: SearcherKind::Hedge,
            lambda: LambdaSchedule::default(),
            recovery: RecoveryMode::default(),
            use_hybrid_lr: true,
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 5e-4,
            max_steps: 500,
            target_compression: None,
            targets: None,
            batch_size: 32,
            seed: 0,
            guard: GuardPolicy::default(),
            autosave: None,
            autosave_retries: 3,
        }
    }
}

/// The full outcome of a CCQ run.
#[derive(Debug, Clone)]
pub struct CcqReport {
    /// Accuracy of the incoming full-precision network.
    pub baseline_accuracy: f32,
    /// Accuracy of the final mixed-precision network.
    pub final_accuracy: f32,
    /// Final weight-compression ratio vs fp32.
    pub final_compression: f64,
    /// Every quantization step taken.
    pub steps: Vec<StepRecord>,
    /// The learning curve (Fig. 2 series).
    pub trace: Vec<TracePoint>,
    /// Final per-layer `(label, weight_bits, act_bits)`.
    pub bit_assignment: Vec<(String, BitWidth, BitWidth)>,
    /// Guard rollbacks taken over the whole run (0 when no step ever
    /// diverged).
    pub rollbacks: u64,
}

impl CcqReport {
    /// Accuracy degradation from baseline (positive = worse).
    pub fn degradation(&self) -> f32 {
        self.baseline_accuracy - self.final_accuracy
    }

    /// The bit pattern as a compact string, e.g. `"6-4-3-…-2"`.
    pub fn bit_pattern(&self) -> String {
        self.bit_assignment
            .iter()
            .map(|(_, w, _)| w.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }

    /// The learning curve as CSV (`epoch,val_accuracy,lr,event`), one row
    /// per trace point — the Fig. 2 series.
    pub fn trace_csv(&self) -> String {
        render_trace_csv(&self.trace)
    }

    /// The schedule as CSV, one row per quantization step.
    pub fn schedule_csv(&self) -> String {
        render_schedule_csv(&self.steps)
    }
}

impl fmt::Display for CcqReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CCQ: baseline {:.2}% → quantized {:.2}% (degradation {:.2} pts) at {:.2}x compression in {} steps",
            100.0 * self.baseline_accuracy,
            100.0 * self.final_accuracy,
            100.0 * self.degradation(),
            self.final_compression,
            self.steps.len()
        )?;
        // Always printed — even at zero — so summaries diff cleanly
        // across runs that did and did not roll back.
        writeln!(f, "rollbacks: {}", self.rollbacks)?;
        write!(f, "bit pattern: {}", self.bit_pattern())
    }
}

/// Orchestrates the competition/collaboration loop over a network.
///
/// [`CcqRunner::run`] and [`CcqRunner::resume`] step a
/// [`DescentEngine`] to completion from a fresh start or a saved
/// [`RunState`]; [`CcqRunner::engine`] hands the machine out for
/// single-stepping. All three check their inputs the same way.
#[derive(Debug)]
pub struct CcqRunner {
    config: CcqConfig,
    searcher: Box<dyn Searcher>,
    fault: Option<FaultPlan>,
}

impl CcqRunner {
    /// Creates a runner.
    ///
    /// # Panics
    ///
    /// Panics when the learning rate or γ is not positive.
    pub fn new(config: CcqConfig) -> Self {
        assert!(config.lr > 0.0, "learning rate must be positive");
        let searcher = config.searcher.build(&config);
        CcqRunner {
            config,
            searcher,
            fault: None,
        }
    }

    /// Arms a deterministic fault plan: the scheduled NaN
    /// gradients and write failures fire during the next run.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The configuration.
    pub fn config(&self) -> &CcqConfig {
        &self.config
    }

    /// The searcher's current per-slot selection weights (π for Hedge;
    /// empty before a run).
    pub fn expert_weights(&self) -> &[f32] {
        self.searcher.expert_weights()
    }

    /// Forward-work accounting for this runner's probe evaluations,
    /// accumulated across every run — how much forward work the
    /// incremental activation cache saved. Fold it into a
    /// [`crate::MetricsRegistry`] with
    /// [`crate::MetricsRegistry::record_probe_cache`].
    pub fn probe_cache_stats(&self) -> &crate::ProbeCacheStats {
        self.searcher.cache_stats()
    }

    /// The armed fault plan, when one was injected.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Loads a run state for resume, consulting the armed fault plan's
    /// read-path faults so injected load failures surface as the same
    /// typed [`CcqError::CheckpointIo`] a real one would.
    fn load_state(&self, path: &Path) -> Result<RunState> {
        // An injected read failure fails the load outright; an injected
        // corruption flips a byte of the current generation in memory,
        // and the load falls back to `<path>.prev` if that breaks it.
        if let Some(plan) = &self.fault {
            if plan.take_read_failure() {
                return Err(CcqError::CheckpointIo(format!(
                    "injected read failure for {}",
                    path.display()
                )));
            }
            let corrupt = plan.take_read_corruption();
            return ccq_tensor::codec::load_with_fallback(path, corrupt, RunState::from_bytes);
        }
        RunState::load_with_fallback(path)
    }

    /// Builds a [`DescentEngine`] borrowing this runner's configuration
    /// and searcher, for callers that want to single-step the phase
    /// machine. [`CcqRunner::run`] and [`CcqRunner::resume`] are the
    /// run-to-completion shortcuts.
    ///
    /// # Errors
    ///
    /// Returns a [`CcqError`] on empty validation data, an invalid
    /// configuration, or (for [`StartPoint::FromRunState`]) a state that
    /// does not match this configuration or network.
    pub fn engine<'a>(
        &'a mut self,
        net: &'a mut Network,
        train_provider: &'a mut dyn FnMut(&mut Rng64) -> Vec<Batch>,
        val: &'a [Batch],
        sink: &'a mut dyn EventSink,
        start: StartPoint,
    ) -> Result<DescentEngine<'a>> {
        let engine = DescentEngine::new(
            &self.config,
            &mut *self.searcher,
            net,
            train_provider,
            val,
            sink,
            start,
        )?;
        Ok(engine.with_faults(self.fault.as_ref()))
    }

    /// Runs CCQ from scratch, streaming events into `sink`.
    /// `train_provider` builds the training batches before every
    /// collaboration stage; `val` is the validation set.
    ///
    /// The network should arrive *pre-trained at full precision*; the
    /// runner measures it as the baseline and then walks the bit ladder.
    /// Sinks compose: wrap several observers in a [`crate::FanoutSink`]
    /// to stream CSV, JSONL, and derived metrics ([`crate::MetricsSink`])
    /// from one run without re-running it.
    ///
    /// # Errors
    ///
    /// Same contract as [`CcqRunner::engine`] plus anything a run can
    /// surface ([`CcqError::Diverged`], [`CcqError::CheckpointIo`], …).
    pub fn run(
        &mut self,
        net: &mut Network,
        train_provider: &mut dyn FnMut(&mut Rng64) -> Vec<Batch>,
        val: &[Batch],
        sink: &mut dyn EventSink,
    ) -> Result<CcqReport> {
        self.engine(net, train_provider, val, sink, StartPoint::Fresh)?
            .run_to_completion()
    }

    /// Resumes a run from a [`RunState`] autosaved by a previous
    /// (possibly crashed) run of the *same* configuration over a
    /// structurally identical, freshly built network. The continued run
    /// is bit-for-bit identical to one that never stopped; `sink` sees
    /// only events from the resume point on.
    ///
    /// # Errors
    ///
    /// Checks the inputs before it reads `path`, so an empty `val` or an
    /// invalid configuration fails as in [`CcqRunner::run`]. Returns
    /// [`CcqError::CheckpointIo`] when neither the state file nor its
    /// `.prev` generation loads, and [`CcqError::ResumeMismatch`] when
    /// the saved run does not match this configuration or network.
    pub fn resume(
        &mut self,
        path: &Path,
        net: &mut Network,
        train_provider: &mut dyn FnMut(&mut Rng64) -> Vec<Batch>,
        val: &[Batch],
        sink: &mut dyn EventSink,
    ) -> Result<CcqReport> {
        check_inputs(&self.config, val)?;
        let state = self.load_state(path)?;
        let start = StartPoint::FromRunState(Box::new(state));
        self.engine(net, train_provider, val, sink, start)?
            .run_to_completion()
    }
}
