//! The pluggable search strategy behind the Compete phase.
//!
//! The paper's Hedge competition is one point in a design space: ReLeQ
//! shows the layer/bit decision can be a learned RL policy, Bayesian
//! Bits shows a 0-bit rung unifies quantization with pruning, and DNQ's
//! one-shot sensitivity ordering is the cheap baseline. A [`Searcher`]
//! owns exactly that decision — *which layer, which bit next* — while
//! the probe, recovery, and guard machinery around it stays unchanged:
//! every implementation measures ξ through [`Competition`]'s probe path
//! (cache-aware, bit-identical, thread-count independent) and hands the
//! engine the same [`CompetitionOutcome`] shape.
//!
//! Searchers are selected by [`SearcherKind`] in
//! [`crate::CcqConfig::searcher`] and serialize their mutable state as a
//! tagged [`SearcherState`] inside the [`crate::RunState`], so resume
//! and guard rollback work identically for all of them. The default
//! [`HedgeSearcher`] delegates verbatim to [`Competition`] — a run
//! configured with it is bit-identical to the pre-trait engine.

use crate::competition::{sample_categorical, Expert, ProbeObserver};
use crate::runner::CcqConfig;
use crate::{
    CcqError, Competition, CompetitionOutcome, LambdaSchedule, ProbeCacheStats, ProbeRecord, Result,
};
use ccq_nn::cache::ActivationCache;
use ccq_nn::train::Batch;
use ccq_nn::Network;
use ccq_quant::{BitLadder, BitWidth};
use ccq_tensor::Rng64;
use std::fmt;

/// Which search strategy drives the Compete phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearcherKind {
    /// The paper's multiplicative-weights competition (the default).
    #[default]
    Hedge,
    /// Hedge over a ladder extended with the Bayesian-Bits 0-bit rung:
    /// layers can compete their way past the floor into *pruned*.
    ZeroBit,
    /// ReLeQ-style policy gradient: a softmax policy over layer×bit
    /// actions trained with ξ as the (negated) reward.
    ReleqRl,
    /// DNQ-style one-shot allocator: probe every expert once, then walk
    /// the fixed sensitivity ordering. The cheap baseline.
    OneShot,
}

impl SearcherKind {
    /// The stable spelling used in job specs, events, and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SearcherKind::Hedge => "hedge",
            SearcherKind::ZeroBit => "zero-bit",
            SearcherKind::ReleqRl => "releq",
            SearcherKind::OneShot => "one-shot",
        }
    }

    /// Parses the spelling produced by [`SearcherKind::as_str`].
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::InvalidConfig`] naming the unknown value and
    /// the accepted spellings.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "hedge" => Ok(SearcherKind::Hedge),
            "zero-bit" => Ok(SearcherKind::ZeroBit),
            "releq" => Ok(SearcherKind::ReleqRl),
            "one-shot" => Ok(SearcherKind::OneShot),
            other => Err(CcqError::InvalidConfig(format!(
                "unknown searcher {other:?} (expected hedge, zero-bit, releq, or one-shot)"
            ))),
        }
    }

    /// Builds the searcher this kind names, configured from `config`
    /// (γ, probe rounds, regime, granularity, ladder).
    pub fn build(&self, config: &CcqConfig) -> Box<dyn Searcher> {
        let comp = || {
            Competition::new(config.gamma, config.probe_rounds)
                .regime(config.probe_regime)
                .granularity(config.granularity)
        };
        match self {
            SearcherKind::Hedge => Box::new(HedgeSearcher::new(comp())),
            SearcherKind::ZeroBit => Box::new(ZeroBitSearcher::new(comp())),
            SearcherKind::ReleqRl => Box::new(ReleqSearcher::new(
                comp(),
                config.gamma,
                config.probe_rounds,
                config.ladder.len(),
            )),
            SearcherKind::OneShot => Box::new(OneShotSearcher::new(comp())),
        }
    }
}

impl fmt::Display for SearcherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A searcher's serializable mutable state — the tagged section a
/// [`crate::RunState`] carries and a guard snapshot restores. Empty
/// vectors mean *pristine*: the searcher has not competed yet and
/// re-initializes exactly as a fresh run would.
#[derive(Debug, Clone, PartialEq)]
pub enum SearcherState {
    /// Hedge expert weights π.
    Hedge {
        /// π, one weight per slot (empty before the first competition).
        pi: Vec<f32>,
    },
    /// Hedge weights π of the 0-bit-rung variant.
    ZeroBit {
        /// π, one weight per slot (empty before the first competition).
        pi: Vec<f32>,
    },
    /// ReLeQ policy parameters.
    ReleqRl {
        /// Logits θ, `slots × rungs` row-major (empty before the first
        /// competition).
        theta: Vec<f32>,
        /// The EMA reward baseline.
        baseline: f32,
        /// Policy-gradient updates applied so far.
        updates: u64,
    },
    /// One-shot allocator ordering.
    OneShot {
        /// Slots in ascending-sensitivity order (empty before the
        /// measurement pass).
        order: Vec<usize>,
        /// Measured per-slot probe losses (∞ for slots asleep at
        /// measurement time).
        sensitivities: Vec<f32>,
    },
}

impl SearcherState {
    /// The spelling of this state's searcher kind, for diagnostics.
    pub fn kind_str(&self) -> &'static str {
        match self {
            SearcherState::Hedge { .. } => "hedge",
            SearcherState::ZeroBit { .. } => "zero-bit",
            SearcherState::ReleqRl { .. } => "releq",
            SearcherState::OneShot { .. } => "one-shot",
        }
    }
}

/// A pluggable Compete-phase strategy: propose probes, observe the ξ
/// signals, decide the quantize action, and serialize/restore its own
/// state. Implementations must be deterministic — all randomness flows
/// through the `rng` handed to [`Searcher::compete`], and no
/// iteration-order-unstable containers (`HashMap`) or wall-clock reads
/// (`Instant`) are permitted.
pub trait Searcher: fmt::Debug + Send {
    /// The stable label carried by events, metrics, and reports.
    fn label(&self) -> &'static str;

    /// Runs one competition: decide which layer descends a rung and
    /// apply the move, returning `None` when every expert is asleep.
    /// The observer (when present) is called after each probe round with
    /// `(round, round_probes, weights)`.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::EmptyValidationSet`] when `val` is empty, or
    /// a network error from the probe evaluations.
    #[allow(clippy::too_many_arguments)]
    fn compete(
        &mut self,
        net: &mut Network,
        ladder: &BitLadder,
        targets: Option<&[BitWidth]>,
        lambda: &LambdaSchedule,
        step: usize,
        val: &[Batch],
        rng: &mut Rng64,
        quarantined: &[usize],
        observer: Option<&mut ProbeObserver>,
    ) -> Result<Option<CompetitionOutcome>>;

    /// The current per-slot selection weights (empty before the first
    /// competition). For Hedge this is π; for the RL searcher the last
    /// policy distribution; for the one-shot allocator a one-hot of the
    /// last pick.
    fn expert_weights(&self) -> &[f32];

    /// Snapshots the searcher's mutable state for checkpoints and guard
    /// rollback.
    fn state(&self) -> SearcherState;

    /// Restores a snapshot taken by [`Searcher::state`]. A pristine
    /// state resets the searcher; `expected_slots` validates the slot
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::InvalidConfig`] when the state's tag belongs
    /// to a different searcher, its dimensions do not match
    /// `expected_slots`, or it contains non-finite weights.
    fn restore(&mut self, state: &SearcherState, expected_slots: usize) -> Result<()>;

    /// Discards all learned state (fresh-run initialization).
    fn reset(&mut self);

    /// Forward-work accounting for this searcher's probe evaluations.
    fn cache_stats(&self) -> &ProbeCacheStats;
}

/// The error a [`Searcher::restore`] raises on a cross-searcher state.
fn tag_mismatch(state: &SearcherState, label: &str) -> CcqError {
    CcqError::InvalidConfig(format!(
        "saved searcher state is {:?}, this run is configured for {label:?}",
        state.kind_str()
    ))
}

// ---------------------------------------------------------------------
// Hedge (the default, bit-identical to the pre-trait engine)
// ---------------------------------------------------------------------

/// The paper's Hedge competition behind the [`Searcher`] contract.
/// A thin delegation layer: the trajectory is bit-identical to driving
/// [`Competition`] directly.
#[derive(Debug)]
pub struct HedgeSearcher {
    comp: Competition,
}

impl HedgeSearcher {
    /// Wraps a configured competition.
    pub fn new(comp: Competition) -> Self {
        HedgeSearcher { comp }
    }
}

impl Searcher for HedgeSearcher {
    fn label(&self) -> &'static str {
        "hedge"
    }

    fn compete(
        &mut self,
        net: &mut Network,
        ladder: &BitLadder,
        targets: Option<&[BitWidth]>,
        lambda: &LambdaSchedule,
        step: usize,
        val: &[Batch],
        rng: &mut Rng64,
        quarantined: &[usize],
        observer: Option<&mut ProbeObserver>,
    ) -> Result<Option<CompetitionOutcome>> {
        self.comp.run(
            net,
            ladder,
            targets,
            lambda,
            step,
            val,
            rng,
            quarantined,
            observer,
        )
    }

    fn expert_weights(&self) -> &[f32] {
        self.comp.expert_weights()
    }

    fn state(&self) -> SearcherState {
        SearcherState::Hedge {
            pi: self.comp.expert_weights().to_vec(),
        }
    }

    fn restore(&mut self, state: &SearcherState, expected_slots: usize) -> Result<()> {
        let SearcherState::Hedge { pi } = state else {
            return Err(tag_mismatch(state, self.label()));
        };
        if pi.is_empty() {
            self.comp.reset();
            return Ok(());
        }
        self.comp.set_expert_weights(pi.clone(), expected_slots)
    }

    fn reset(&mut self) {
        self.comp.reset();
    }

    fn cache_stats(&self) -> &ProbeCacheStats {
        self.comp.cache_stats()
    }
}

// ---------------------------------------------------------------------
// Zero-bit rung (Bayesian-Bits-inspired pruning extension)
// ---------------------------------------------------------------------

/// Hedge over the configured ladder extended with the 0-bit pruning
/// rung ([`BitLadder::with_zero_rung`]): a layer at the floor stays an
/// awake expert with one move left — to *pruned* — so channel pruning
/// falls out of the same competition that assigns bit widths.
#[derive(Debug)]
pub struct ZeroBitSearcher {
    comp: Competition,
}

impl ZeroBitSearcher {
    /// Wraps a configured competition.
    pub fn new(comp: Competition) -> Self {
        ZeroBitSearcher { comp }
    }
}

impl Searcher for ZeroBitSearcher {
    fn label(&self) -> &'static str {
        "zero-bit"
    }

    fn compete(
        &mut self,
        net: &mut Network,
        ladder: &BitLadder,
        targets: Option<&[BitWidth]>,
        lambda: &LambdaSchedule,
        step: usize,
        val: &[Batch],
        rng: &mut Rng64,
        quarantined: &[usize],
        observer: Option<&mut ProbeObserver>,
    ) -> Result<Option<CompetitionOutcome>> {
        let ladder = ladder.with_zero_rung();
        self.comp.run(
            net,
            &ladder,
            targets,
            lambda,
            step,
            val,
            rng,
            quarantined,
            observer,
        )
    }

    fn expert_weights(&self) -> &[f32] {
        self.comp.expert_weights()
    }

    fn state(&self) -> SearcherState {
        SearcherState::ZeroBit {
            pi: self.comp.expert_weights().to_vec(),
        }
    }

    fn restore(&mut self, state: &SearcherState, expected_slots: usize) -> Result<()> {
        let SearcherState::ZeroBit { pi } = state else {
            return Err(tag_mismatch(state, self.label()));
        };
        if pi.is_empty() {
            self.comp.reset();
            return Ok(());
        }
        self.comp.set_expert_weights(pi.clone(), expected_slots)
    }

    fn reset(&mut self) {
        self.comp.reset();
    }

    fn cache_stats(&self) -> &ProbeCacheStats {
        self.comp.cache_stats()
    }
}

// ---------------------------------------------------------------------
// ReLeQ-style policy gradient
// ---------------------------------------------------------------------

/// A softmax policy over layer×bit actions trained by full-information
/// policy gradient with ξ as the negated reward (ReLeQ's shaping,
/// without the paper's LSTM): each probe round probes every awake
/// expert through the shared cache-aware probe path, then applies
/// `θ[a_i] += α·p_i·(r_i − Σ_j p_j r_j)` with an EMA baseline absorbing
/// reward scale. The final draw samples the updated policy directly —
/// no λ blend, the size prior is the Hedge family's device.
#[derive(Debug)]
pub struct ReleqSearcher {
    comp: Competition,
    alpha: f32,
    rounds: usize,
    /// Rung count the θ table is dimensioned for (the configured
    /// ladder's length; off-ladder targets clamp to the last rung).
    n_rungs: usize,
    /// Logits, `slots × n_rungs` row-major (empty before first use).
    theta: Vec<f32>,
    baseline: f32,
    updates: u64,
    /// The last slot-level policy distribution (for observability).
    probabilities: Vec<f32>,
}

impl ReleqSearcher {
    /// Wraps a configured competition (probe machinery + stats) with a
    /// policy learning rate `alpha` and `rounds` probe rounds per step
    /// (0 = two rounds, matching the Hedge default).
    pub fn new(comp: Competition, alpha: f32, rounds: usize, ladder_rungs: usize) -> Self {
        ReleqSearcher {
            comp,
            alpha,
            rounds,
            n_rungs: ladder_rungs.max(1),
            theta: Vec::new(),
            baseline: 0.0,
            updates: 0,
            probabilities: Vec::new(),
        }
    }

    /// The θ index of an expert's action (slot × destination rung).
    fn action_index(&self, e: &Expert, ladder: &BitLadder) -> usize {
        let rung = ladder
            .level_of(e.to)
            .unwrap_or(self.n_rungs - 1)
            .min(self.n_rungs - 1);
        e.slot * self.n_rungs + rung
    }

    /// The softmax policy over the awake experts (expert order).
    fn policy(&self, experts: &[Expert], ladder: &BitLadder) -> Vec<f32> {
        let logits: Vec<f32> = experts
            .iter()
            .map(|e| self.theta[self.action_index(e, ladder)])
            .collect();
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.iter().map(|&x| x / sum).collect()
    }
}

impl Searcher for ReleqSearcher {
    fn label(&self) -> &'static str {
        "releq"
    }

    fn compete(
        &mut self,
        net: &mut Network,
        ladder: &BitLadder,
        targets: Option<&[BitWidth]>,
        _lambda: &LambdaSchedule,
        _step: usize,
        val: &[Batch],
        rng: &mut Rng64,
        quarantined: &[usize],
        mut observer: Option<&mut ProbeObserver>,
    ) -> Result<Option<CompetitionOutcome>> {
        if val.is_empty() {
            return Err(CcqError::EmptyValidationSet);
        }
        let info = net.quant_layer_info();
        let (experts, slots) = self.comp.experts(net, ladder, targets, quarantined);
        if self.theta.len() != slots * self.n_rungs {
            self.theta = vec![0.0; slots * self.n_rungs];
        }
        if experts.is_empty() {
            return Ok(None);
        }
        let cache = if self.comp.is_incremental() {
            Some(ActivationCache::fill(net, val).map_err(CcqError::from)?)
        } else {
            None
        };
        let segments = cache
            .as_ref()
            .map_or_else(|| net.segment_count(), ActivationCache::segments);
        let mut by_slot: Vec<Option<usize>> = vec![None; slots];
        for (i, e) in experts.iter().enumerate() {
            by_slot[e.slot] = Some(i);
        }
        let rounds = if self.rounds == 0 { 2 } else { self.rounds };

        let mut probes = Vec::with_capacity(rounds * experts.len());
        let mut skipped_probes = 0usize;
        for u in 0..rounds {
            let round_start = probes.len();
            let p = self.policy(&experts, ladder);
            let losses = Competition::probe_round(net, &experts, val, cache.as_ref())?;
            let mut rewards = Vec::with_capacity(experts.len());
            let mut finite_sum = 0.0f32;
            let mut finite_n = 0usize;
            for (e, &loss) in experts.iter().zip(&losses) {
                let saved = cache.as_ref().map_or(0, |c| c.segment_of(e.layer));
                self.comp.stats_mut().record(saved, segments);
                // A non-finite ξ would poison θ permanently; substitute
                // the baseline (zero advantage) and count the skip.
                if loss.is_finite() {
                    rewards.push(-loss);
                    finite_sum += -loss;
                    finite_n += 1;
                } else {
                    rewards.push(self.baseline);
                    skipped_probes += 1;
                }
                probes.push(ProbeRecord {
                    round: u,
                    layer: e.layer,
                    kind: e.kind,
                    val_loss: loss,
                });
            }
            let rbar: f32 = p.iter().zip(&rewards).map(|(&pi, &r)| pi * r).sum();
            for (i, e) in experts.iter().enumerate() {
                let idx = self.action_index(e, ladder);
                self.theta[idx] += self.alpha * p[i] * (rewards[i] - rbar);
            }
            if finite_n > 0 {
                self.baseline = 0.9 * self.baseline + 0.1 * (finite_sum / finite_n as f32);
            }
            self.updates += 1;
            if let Some(obs) = observer.as_deref_mut() {
                let p_after = self.policy(&experts, ladder);
                let mut q = vec![0.0f32; slots];
                for (i, e) in experts.iter().enumerate() {
                    q[e.slot] = p_after[i];
                }
                obs(u, &probes[round_start..], &q);
            }
        }

        let p = self.policy(&experts, ladder);
        let mut q = vec![0.0f32; slots];
        for (i, e) in experts.iter().enumerate() {
            q[e.slot] = p[i];
        }
        let slot = sample_categorical(&q, rng)
            .ok_or_else(|| CcqError::InvalidConfig("degenerate policy distribution".into()))?;
        // ccq-lint: allow(panic-surface) — the policy assigns zero mass to inactive slots, so a draw is always active
        let winner = experts[by_slot[slot].expect("drawn slot is active")];
        let _ = Competition::apply(net, &winner);
        self.probabilities = q.clone();
        Ok(Some(CompetitionOutcome {
            winner: winner.layer,
            winner_kind: winner.kind,
            winner_slot: winner.slot,
            winner_label: info[winner.layer].label.clone(),
            from_bits: winner.from,
            to_bits: winner.to,
            probabilities: q,
            probes,
            skipped_probes,
        }))
    }

    fn expert_weights(&self) -> &[f32] {
        &self.probabilities
    }

    fn state(&self) -> SearcherState {
        SearcherState::ReleqRl {
            theta: self.theta.clone(),
            baseline: self.baseline,
            updates: self.updates,
        }
    }

    fn restore(&mut self, state: &SearcherState, expected_slots: usize) -> Result<()> {
        let SearcherState::ReleqRl {
            theta,
            baseline,
            updates,
        } = state
        else {
            return Err(tag_mismatch(state, self.label()));
        };
        if theta.is_empty() {
            self.reset();
            return Ok(());
        }
        let expected = expected_slots * self.n_rungs;
        if theta.len() != expected {
            return Err(CcqError::InvalidConfig(format!(
                "saved θ has {} entries, this searcher needs {expected} ({expected_slots} slots × {} rungs)",
                theta.len(),
                self.n_rungs
            )));
        }
        if let Some(i) = theta.iter().position(|w| !w.is_finite()) {
            return Err(CcqError::InvalidConfig(format!(
                "saved θ entry {i} is non-finite ({})",
                theta[i]
            )));
        }
        if !baseline.is_finite() {
            return Err(CcqError::InvalidConfig(format!(
                "saved reward baseline is non-finite ({baseline})"
            )));
        }
        self.theta = theta.clone();
        self.baseline = *baseline;
        self.updates = *updates;
        self.probabilities.clear();
        Ok(())
    }

    fn reset(&mut self) {
        self.theta.clear();
        self.baseline = 0.0;
        self.updates = 0;
        self.probabilities.clear();
    }

    fn cache_stats(&self) -> &ProbeCacheStats {
        self.comp.cache_stats()
    }
}

// ---------------------------------------------------------------------
// DNQ-style one-shot allocator
// ---------------------------------------------------------------------

/// The cheap baseline: probe every expert exactly once on the first
/// competition, sort slots by that measured sensitivity (ascending —
/// least-damaging first), and thereafter walk the fixed order without
/// probing again. Search cost is one probe round total, against Hedge's
/// rounds-per-step; the price is a schedule that never adapts to how
/// the network changes as it quantizes.
#[derive(Debug)]
pub struct OneShotSearcher {
    comp: Competition,
    /// Slots in ascending-sensitivity order (empty until measured).
    order: Vec<usize>,
    /// Measured per-slot probe loss (∞ for slots asleep at measurement).
    sensitivities: Vec<f32>,
    /// One-hot of the last pick (for observability).
    probabilities: Vec<f32>,
}

impl OneShotSearcher {
    /// Wraps a configured competition (probe machinery + stats).
    pub fn new(comp: Competition) -> Self {
        OneShotSearcher {
            comp,
            order: Vec::new(),
            sensitivities: Vec::new(),
            probabilities: Vec::new(),
        }
    }
}

impl Searcher for OneShotSearcher {
    fn label(&self) -> &'static str {
        "one-shot"
    }

    fn compete(
        &mut self,
        net: &mut Network,
        ladder: &BitLadder,
        targets: Option<&[BitWidth]>,
        _lambda: &LambdaSchedule,
        _step: usize,
        val: &[Batch],
        _rng: &mut Rng64,
        quarantined: &[usize],
        observer: Option<&mut ProbeObserver>,
    ) -> Result<Option<CompetitionOutcome>> {
        if val.is_empty() {
            return Err(CcqError::EmptyValidationSet);
        }
        let info = net.quant_layer_info();
        let (experts, slots) = self.comp.experts(net, ladder, targets, quarantined);
        if experts.is_empty() {
            return Ok(None);
        }
        let mut by_slot: Vec<Option<usize>> = vec![None; slots];
        for (i, e) in experts.iter().enumerate() {
            by_slot[e.slot] = Some(i);
        }
        let mut probes = Vec::new();
        let mut skipped_probes = 0usize;
        if self.order.len() != slots {
            // The one measurement pass: every awake expert probed once.
            let cache = if self.comp.is_incremental() {
                Some(ActivationCache::fill(net, val).map_err(CcqError::from)?)
            } else {
                None
            };
            let segments = cache
                .as_ref()
                .map_or_else(|| net.segment_count(), ActivationCache::segments);
            let losses = Competition::probe_round(net, &experts, val, cache.as_ref())?;
            self.sensitivities = vec![f32::INFINITY; slots];
            for (e, &loss) in experts.iter().zip(&losses) {
                let saved = cache.as_ref().map_or(0, |c| c.segment_of(e.layer));
                self.comp.stats_mut().record(saved, segments);
                if loss.is_finite() {
                    self.sensitivities[e.slot] = loss;
                } else {
                    skipped_probes += 1;
                }
                probes.push(ProbeRecord {
                    round: 0,
                    layer: e.layer,
                    kind: e.kind,
                    val_loss: loss,
                });
            }
            let mut order: Vec<usize> = (0..slots).collect();
            order.sort_by(|&a, &b| {
                self.sensitivities[a]
                    .total_cmp(&self.sensitivities[b])
                    .then(a.cmp(&b))
            });
            self.order = order;
        }
        let slot = self
            .order
            .iter()
            .copied()
            .find(|&s| by_slot[s].is_some())
            .ok_or(CcqError::EngineInvariant(
                "an awake expert always appears in the one-shot order",
            ))?;
        // ccq-lint: allow(panic-surface) — the chosen slot was filtered on by_slot membership above
        let winner = experts[by_slot[slot].expect("chosen slot is active")];
        let mut onehot = vec![0.0f32; slots];
        onehot[slot] = 1.0;
        if !probes.is_empty() {
            if let Some(obs) = observer {
                obs(0, &probes, &onehot);
            }
        }
        let _ = Competition::apply(net, &winner);
        self.probabilities = onehot.clone();
        Ok(Some(CompetitionOutcome {
            winner: winner.layer,
            winner_kind: winner.kind,
            winner_slot: winner.slot,
            winner_label: info[winner.layer].label.clone(),
            from_bits: winner.from,
            to_bits: winner.to,
            probabilities: onehot,
            probes,
            skipped_probes,
        }))
    }

    fn expert_weights(&self) -> &[f32] {
        &self.probabilities
    }

    fn state(&self) -> SearcherState {
        SearcherState::OneShot {
            order: self.order.clone(),
            sensitivities: self.sensitivities.clone(),
        }
    }

    fn restore(&mut self, state: &SearcherState, expected_slots: usize) -> Result<()> {
        let SearcherState::OneShot {
            order,
            sensitivities,
        } = state
        else {
            return Err(tag_mismatch(state, self.label()));
        };
        if order.is_empty() {
            self.reset();
            return Ok(());
        }
        if order.len() != expected_slots || sensitivities.len() != expected_slots {
            return Err(CcqError::InvalidConfig(format!(
                "saved one-shot order covers {} slots, this run needs {expected_slots}",
                order.len()
            )));
        }
        if order.iter().any(|&s| s >= expected_slots) {
            return Err(CcqError::InvalidConfig(
                "saved one-shot order names an out-of-range slot".into(),
            ));
        }
        self.order = order.clone();
        self.sensitivities = sensitivities.clone();
        self.probabilities.clear();
        Ok(())
    }

    fn reset(&mut self) {
        self.order.clear();
        self.sensitivities.clear();
        self.probabilities.clear();
    }

    fn cache_stats(&self) -> &ProbeCacheStats {
        self.comp.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_data::{gaussian_blobs, BlobsConfig};
    use ccq_models::mlp;
    use ccq_quant::PolicyKind;
    use ccq_tensor::rng;

    fn setup() -> (Network, Vec<Batch>) {
        let net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 3);
        let val = gaussian_blobs(&BlobsConfig::default()).batches(32);
        (net, val)
    }

    fn comp() -> Competition {
        Competition::new(0.5, 2)
    }

    #[test]
    fn kind_spellings_round_trip() {
        for kind in [
            SearcherKind::Hedge,
            SearcherKind::ZeroBit,
            SearcherKind::ReleqRl,
            SearcherKind::OneShot,
        ] {
            assert_eq!(SearcherKind::parse(kind.as_str()).unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!(SearcherKind::parse("bandit").is_err());
        assert_eq!(SearcherKind::default(), SearcherKind::Hedge);
    }

    #[test]
    fn hedge_searcher_is_bit_identical_to_raw_competition() {
        let (mut net_a, val) = setup();
        let mut net_b = net_a.clone();
        let ladder = BitLadder::paper_default();
        let lambda = LambdaSchedule::constant(0.2);
        let mut raw = comp();
        let mut wrapped = HedgeSearcher::new(comp());
        let mut r_a = rng(7);
        let mut r_b = rng(7);
        for step in 0..4 {
            let a = raw
                .run(
                    &mut net_a,
                    &ladder,
                    None,
                    &lambda,
                    step,
                    &val,
                    &mut r_a,
                    &[],
                    None,
                )
                .unwrap();
            let b = wrapped
                .compete(
                    &mut net_b,
                    &ladder,
                    None,
                    &lambda,
                    step,
                    &val,
                    &mut r_b,
                    &[],
                    None,
                )
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(raw.expert_weights(), wrapped.expert_weights());
        }
    }

    #[test]
    fn zero_bit_searcher_can_prune_past_the_floor() {
        let (mut net, val) = setup();
        let ladder = BitLadder::new(&[4, 2]).unwrap();
        let mut s = ZeroBitSearcher::new(comp());
        let lambda = LambdaSchedule::constant(0.0);
        let mut r = rng(3);
        let mut steps = 0usize;
        while let Some(out) = s
            .compete(
                &mut net,
                &ladder,
                None,
                &lambda,
                steps,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
        {
            steps += 1;
            assert!(steps < 40, "must terminate");
            let _ = out;
        }
        // Every layer competed all the way down to pruned.
        for m in 0..net.quant_layer_count() {
            assert!(net.quant_spec(m).weight_bits.is_pruned());
        }
        assert_eq!(steps, 3 * ladder.with_zero_rung().len());
    }

    #[test]
    fn releq_searcher_is_deterministic_and_serializable() {
        let (mut net_a, val) = setup();
        let mut net_b = net_a.clone();
        let ladder = BitLadder::new(&[8, 4]).unwrap();
        let lambda = LambdaSchedule::constant(0.0);
        let mut a = ReleqSearcher::new(comp(), 0.5, 2, ladder.len());
        let mut b = ReleqSearcher::new(comp(), 0.5, 2, ladder.len());
        let mut r_a = rng(11);
        let mut r_b = rng(11);
        for step in 0..3 {
            let oa = a
                .compete(
                    &mut net_a,
                    &ladder,
                    None,
                    &lambda,
                    step,
                    &val,
                    &mut r_a,
                    &[],
                    None,
                )
                .unwrap();
            let ob = b
                .compete(
                    &mut net_b,
                    &ladder,
                    None,
                    &lambda,
                    step,
                    &val,
                    &mut r_b,
                    &[],
                    None,
                )
                .unwrap();
            assert_eq!(oa, ob, "same seed, same trajectory");
            assert_eq!(a.state(), b.state());
        }
        // State round-trips through restore into an identical policy.
        let snap = a.state();
        let slots = net_a.quant_layer_count();
        let mut c = ReleqSearcher::new(comp(), 0.5, 2, ladder.len());
        c.restore(&snap, slots).unwrap();
        assert_eq!(c.state(), snap);
        // Cross-searcher state is rejected.
        let alien = SearcherState::Hedge {
            pi: vec![1.0; slots],
        };
        assert!(c.restore(&alien, slots).is_err());
    }

    #[test]
    fn releq_policy_prefers_low_loss_actions() {
        let (mut net, val) = setup();
        let ladder = BitLadder::paper_default();
        let lambda = LambdaSchedule::constant(0.0);
        let mut s = ReleqSearcher::new(Competition::new(0.5, 4), 2.0, 4, ladder.len());
        let mut r = rng(5);
        let out = s
            .compete(&mut net, &ladder, None, &lambda, 0, &val, &mut r, &[], None)
            .unwrap()
            .unwrap();
        let mut sums = [0.0f32; 3];
        let mut counts = [0usize; 3];
        for p in &out.probes {
            sums[p.layer] += p.val_loss;
            counts[p.layer] += 1;
        }
        let means: Vec<f32> = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| s / c as f32)
            .collect();
        let best = (0..3)
            .min_by(|&x, &y| means[x].total_cmp(&means[y]))
            .unwrap();
        let top = (0..3)
            .max_by(|&x, &y| out.probabilities[x].total_cmp(&out.probabilities[y]))
            .unwrap();
        assert_eq!(best, top, "means={means:?} p={:?}", out.probabilities);
    }

    #[test]
    fn one_shot_probes_once_then_walks_the_order() {
        let (mut net, val) = setup();
        let ladder = BitLadder::new(&[8, 4]).unwrap();
        let lambda = LambdaSchedule::constant(0.0);
        let mut s = OneShotSearcher::new(comp());
        let mut r = rng(13);
        let mut total_probes = 0usize;
        let mut winners = Vec::new();
        while let Some(out) = s
            .compete(
                &mut net,
                &ladder,
                None,
                &lambda,
                winners.len(),
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
        {
            total_probes += out.probes.len();
            winners.push(out.winner_slot);
            assert!(winners.len() < 20, "must terminate");
        }
        // Exactly one measurement round (3 experts), then probe-free steps.
        assert_eq!(total_probes, 3);
        assert_eq!(winners.len(), 3 * ladder.len());
        // The order is fixed: each slot descends fully before a costlier one
        // starts only if ordering is per-draw; what must hold is that picks
        // follow the measured ascending-sensitivity order at every draw.
        let snap = s.state();
        let SearcherState::OneShot { order, .. } = &snap else {
            panic!("one-shot state tag")
        };
        assert_eq!(order.len(), 3);
        // Round-trip through restore.
        let mut fresh = OneShotSearcher::new(comp());
        fresh.restore(&snap, 3).unwrap();
        assert_eq!(fresh.state(), snap);
        assert!(fresh.restore(&snap, 5).is_err(), "slot mismatch rejected");
    }

    #[test]
    fn pristine_states_reset_searchers() {
        let mut h = HedgeSearcher::new(comp());
        h.restore(&SearcherState::Hedge { pi: vec![] }, 3).unwrap();
        assert!(h.expert_weights().is_empty());
        let mut rl = ReleqSearcher::new(comp(), 0.5, 2, 5);
        rl.restore(
            &SearcherState::ReleqRl {
                theta: vec![],
                baseline: 0.0,
                updates: 0,
            },
            3,
        )
        .unwrap();
        assert!(rl.expert_weights().is_empty());
        let mut os = OneShotSearcher::new(comp());
        os.restore(
            &SearcherState::OneShot {
                order: vec![],
                sensitivities: vec![],
            },
            3,
        )
        .unwrap();
        assert!(os.expert_weights().is_empty());
    }
}
