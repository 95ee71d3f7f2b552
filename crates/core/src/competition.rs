//! The competition stage: online learning over layers (paper §III-B.a).

use crate::{CcqError, LambdaSchedule, Result};
use ccq_nn::cache::ActivationCache;
use ccq_nn::train::{evaluate, evaluate_from, Batch};
use ccq_nn::Network;
use ccq_quant::{BitLadder, BitWidth};
use ccq_tensor::{par, Rng64};
use rand::Rng;
use std::collections::BTreeMap;

/// A per-round competition observer: called as `(round, round_probes, π)`
/// after each probe round's Hedge updates. See
/// [`Competition::run`].
pub type ProbeObserver<'a> = dyn FnMut(usize, &[ProbeRecord], &[f32]) + 'a;

/// One validation probe from the competition stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// Probe round `u` within this quantization step.
    pub round: usize,
    /// The layer whose precision was hypothetically lowered.
    pub layer: usize,
    /// Which operand the probe lowered.
    pub kind: ExpertKind,
    /// Validation loss of the resulting network (Eq. 4).
    pub val_loss: f32,
}

/// The result of one competition: a winning layer and the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitionOutcome {
    /// Index of the winning layer `m_t`.
    pub winner: usize,
    /// Which operand of the winner was lowered.
    pub winner_kind: ExpertKind,
    /// The winner's slot in the persistent π vector (equal to `winner` at
    /// layer granularity, `2·winner (+1)` at weight/act granularity). The
    /// guard's quarantine policy excludes this slot on a re-draw.
    pub winner_slot: usize,
    /// Label of the winning layer.
    pub winner_label: String,
    /// The winner's precision before this step.
    pub from_bits: BitWidth,
    /// The winner's precision after this step.
    pub to_bits: BitWidth,
    /// The final (λ-blended) selection distribution over all layers.
    pub probabilities: Vec<f32>,
    /// Every probe taken during the competition.
    pub probes: Vec<ProbeRecord>,
    /// Probes whose validation loss ξ came back non-finite and were
    /// therefore excluded from the Hedge update `π ← π·exp(−γξ)` (they
    /// still appear in `probes` for diagnosis).
    pub skipped_probes: usize,
}

/// The probe/update regime within one competition.
///
/// The paper's prose states the *full information* setting ("at each step,
/// we will have access to the full information from all layers") while its
/// Algorithm 1 line 7 samples a single layer per round. Both are
/// implemented; full information is the default because the sampled
/// variant carries a frequency bias (layers sampled more often shrink
/// faster regardless of their loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeRegime {
    /// Every active layer is probed and updated each round.
    FullInformation,
    /// One layer is sampled from `p` and only it is probed/updated
    /// (Algorithm 1 verbatim).
    Sampled,
}

/// What one expert controls in the competition.
///
/// The paper's experiments lower a layer's weight and activation widths
/// together; its Table II nevertheless reports W and A widths separately,
/// and treating them as separate experts is the natural extension — a
/// layer whose weights tolerate 2 bits may still need 4-bit activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpertGranularity {
    /// One expert per layer; weights and activations descend together
    /// (the paper's setting).
    Layer,
    /// Two experts per layer: weights and activations descend
    /// independently.
    WeightAct,
}

/// Which operand a competition expert (and the step it won) controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpertKind {
    /// Whole layer: weights and activations together.
    Layer,
    /// Weight operand only.
    Weights,
    /// Activation operand only.
    Activations,
}

/// Forward-work accounting for the incremental probe path, accumulated
/// across every competition a [`Competition`] runs.
///
/// A *hit* is a probe that re-entered the network at a cached segment
/// boundary (`segment > 0`); a *miss* ran the full stack (segment-0
/// probes and cache-off runs). `segments_run / segments_total` is the
/// fraction of forward work actually executed — the paper's probe cost
/// is proportional to it. These numbers are a pure function of the
/// expert set and the network topology, so they are deterministic at
/// any thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeCacheStats {
    /// Probes that re-used cached boundary activations.
    pub hits: u64,
    /// Probes that ran the network from the top.
    pub misses: u64,
    /// Top-level segments actually executed across all probes.
    pub segments_run: u64,
    /// Segments a full-forward implementation would have executed.
    pub segments_total: u64,
    /// Histogram: number of segments *skipped* per probe → probe count.
    pub depth_hist: BTreeMap<usize, u64>,
}

impl ProbeCacheStats {
    pub(crate) fn record(&mut self, skipped: usize, segments: usize) {
        if skipped > 0 {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.segments_run += (segments - skipped) as u64;
        self.segments_total += segments as u64;
        *self.depth_hist.entry(skipped).or_insert(0) += 1;
    }

    /// Fraction of full-forward segment work actually executed
    /// (1.0 when nothing was saved; NaN-free: 1.0 before any probe).
    pub fn forward_fraction(&self) -> f64 {
        if self.segments_total == 0 {
            return 1.0;
        }
        self.segments_run as f64 / self.segments_total as f64
    }
}

impl std::fmt::Display for ProbeCacheStats {
    /// One human-readable line for run reports, e.g.
    /// `probe cache: 34/36 probes incremental, 41.7% of full forward work executed`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let probes = self.hits + self.misses;
        write!(
            f,
            "probe cache: {}/{probes} probes incremental, {:.1}% of full forward work executed",
            self.hits,
            100.0 * self.forward_fraction()
        )
    }
}

/// One candidate move in the competition. `pub(crate)` so alternative
/// [`crate::Searcher`] implementations share the exact probe machinery
/// (and with it the cache-aware, bit-identical ξ measurement path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Expert {
    pub(crate) layer: usize,
    pub(crate) kind: ExpertKind,
    pub(crate) from: BitWidth,
    pub(crate) to: BitWidth,
    /// Slot in the persistent π vector.
    pub(crate) slot: usize,
    /// Layer size for the λ blend (Eq. 7 uses |Q_m|).
    pub(crate) size: usize,
}

/// Multiplicative-weights (Hedge) competition between layers, with
/// *sleeping experts*: layers already at the ladder floor (or at their
/// forced target) are excluded from sampling and never probed.
///
/// The expert weights `π` persist across quantization steps, exactly as in
/// the paper's Algorithm 1 where `π(0) = 1` is initialized once. See
/// [`ProbeRegime`] for the probe/update semantics.
#[derive(Debug, Clone)]
pub struct Competition {
    gamma: f32,
    rounds: usize,
    regime: ProbeRegime,
    granularity: ExpertGranularity,
    pi: Vec<f32>,
    incremental: bool,
    stats: ProbeCacheStats,
}

impl Competition {
    /// Creates a competition with Hedge rate `gamma` and `rounds` rounds
    /// per quantization step (`U` in the paper), in the full-information
    /// regime. `rounds == 0` means "two rounds over all active layers",
    /// the heuristic we default to.
    ///
    /// # Panics
    ///
    /// Panics when `gamma` is not finite and positive.
    pub fn new(gamma: f32, rounds: usize) -> Self {
        assert!(gamma.is_finite() && gamma > 0.0, "gamma must be positive");
        Competition {
            gamma,
            rounds,
            regime: ProbeRegime::FullInformation,
            granularity: ExpertGranularity::Layer,
            pi: Vec::new(),
            incremental: true,
            stats: ProbeCacheStats::default(),
        }
    }

    /// Enables or disables incremental probe evaluation (builder style).
    ///
    /// On by default. Every probe then re-enters the network at the
    /// cached boundary of the probed layer's segment instead of running
    /// a full forward — bit-identical by construction (a layer quantizes
    /// its own input and weights, so upstream activations are unchanged
    /// by the probe's spec flip). The full-forward path is kept for
    /// benchmarking the saving and as the bit-identity reference.
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Forward-work accounting accumulated across every run of this
    /// competition. See [`ProbeCacheStats`].
    pub fn cache_stats(&self) -> &ProbeCacheStats {
        &self.stats
    }

    /// Whether incremental probe evaluation is enabled.
    pub(crate) fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// Switches the probe regime (builder style).
    pub fn regime(mut self, regime: ProbeRegime) -> Self {
        self.regime = regime;
        self
    }

    /// Switches the expert granularity (builder style).
    pub fn granularity(mut self, granularity: ExpertGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// The Hedge learning rate γ.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Current expert weights (empty before the first run).
    pub fn expert_weights(&self) -> &[f32] {
        &self.pi
    }

    /// Resets the expert weights to uniform.
    pub fn reset(&mut self) {
        self.pi.clear();
    }

    /// Overwrites the expert weights (run-state resume, guard rollback).
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::InvalidConfig`] when `pi` does not have exactly
    /// `expected_slots` entries or contains a non-finite weight — a bad π
    /// would otherwise sit silently until the next [`Competition::run`]
    /// reset it (length mismatch) or poisoned the Hedge updates
    /// (NaN/∞ entries).
    pub fn set_expert_weights(&mut self, pi: Vec<f32>, expected_slots: usize) -> Result<()> {
        if pi.len() != expected_slots {
            return Err(CcqError::InvalidConfig(format!(
                "π has {} slots, this competition needs {expected_slots}",
                pi.len()
            )));
        }
        if let Some(i) = pi.iter().position(|w| !w.is_finite()) {
            return Err(CcqError::InvalidConfig(format!(
                "π slot {i} is non-finite ({})",
                pi[i]
            )));
        }
        self.pi = pi;
        Ok(())
    }

    /// The probe-cache accounting, mutable — shared with the other
    /// searcher implementations that drive the probe machinery directly.
    pub(crate) fn stats_mut(&mut self) -> &mut ProbeCacheStats {
        &mut self.stats
    }

    /// The next rung below `cur`, honoring an optional per-layer floor
    /// (`None` = sleeping). A full-precision target freezes the operand.
    fn next_rung(
        ladder: &BitLadder,
        cur: BitWidth,
        target: Option<BitWidth>,
    ) -> Option<(BitWidth, BitWidth)> {
        match target {
            Some(t) if t.is_full_precision() || cur <= t => None,
            Some(t) => {
                let next = ladder.next_below(cur).map(|n| n.max(t)).unwrap_or(t);
                Some((cur, next))
            }
            None => ladder.next_below(cur).map(|next| (cur, next)),
        }
    }

    /// Enumerates the awake experts for the current network state,
    /// excluding quarantined π slots (treated as sleeping for this step).
    pub(crate) fn experts(
        &self,
        net: &mut Network,
        ladder: &BitLadder,
        targets: Option<&[BitWidth]>,
        quarantined: &[usize],
    ) -> (Vec<Expert>, usize) {
        let info = net.quant_layer_info();
        let m_layers = info.len();
        let mut experts = Vec::new();
        for (m, li) in info.iter().enumerate() {
            let target = targets.map(|t| t.get(m).copied().unwrap_or(ladder.floor()));
            match self.granularity {
                ExpertGranularity::Layer => {
                    if let Some((from, to)) = Self::next_rung(ladder, li.spec.weight_bits, target) {
                        experts.push(Expert {
                            layer: m,
                            kind: ExpertKind::Layer,
                            from,
                            to,
                            slot: m,
                            size: li.weight_count,
                        });
                    }
                }
                ExpertGranularity::WeightAct => {
                    if let Some((from, to)) = Self::next_rung(ladder, li.spec.weight_bits, target) {
                        experts.push(Expert {
                            layer: m,
                            kind: ExpertKind::Weights,
                            from,
                            to,
                            slot: 2 * m,
                            size: li.weight_count,
                        });
                    }
                    if let Some((from, to)) = Self::next_rung(ladder, li.spec.act_bits, target) {
                        experts.push(Expert {
                            layer: m,
                            kind: ExpertKind::Activations,
                            from,
                            to,
                            slot: 2 * m + 1,
                            size: li.weight_count,
                        });
                    }
                }
            }
        }
        if !quarantined.is_empty() {
            experts.retain(|e| !quarantined.contains(&e.slot));
        }
        let slots = match self.granularity {
            ExpertGranularity::Layer => m_layers,
            ExpertGranularity::WeightAct => 2 * m_layers,
        };
        (experts, slots)
    }

    /// The spec an expert's move produces, given the spec currently in
    /// place. Pure — shared by [`Competition::apply`] (global indices)
    /// and the tail-clone probe workers (local indices).
    fn probe_target(spec: ccq_quant::QuantSpec, e: &Expert) -> ccq_quant::QuantSpec {
        match e.kind {
            ExpertKind::Layer => spec.with_bits(e.to, e.to),
            ExpertKind::Weights => spec.with_bits(e.to, spec.act_bits),
            ExpertKind::Activations => spec.with_bits(spec.weight_bits, e.to),
        }
    }

    /// Applies an expert's move to the network. Returns the spec that was
    /// in place before.
    pub(crate) fn apply(net: &mut Network, e: &Expert) -> ccq_quant::QuantSpec {
        let spec = net.quant_spec(e.layer);
        net.set_quant_spec(e.layer, Self::probe_target(spec, e));
        spec
    }

    /// [`Competition::probe_one`] on a network whose quant layer `local`
    /// corresponds to the expert's global layer — the original network
    /// (`local == e.layer`, `segment_base == 0`) or a tail clone starting
    /// at `segment_base`. Re-enters at the probed layer's own segment,
    /// so only the suffix the probe can affect is recomputed.
    fn probe_one_from(
        net: &mut Network,
        e: &Expert,
        local: usize,
        segment_base: usize,
        cache: &ActivationCache,
        val: &[Batch],
    ) -> Result<f32> {
        let before = net.quant_spec(local);
        net.set_quant_spec(local, Self::probe_target(before, e));
        let seg = cache.segment_of(e.layer);
        let result = evaluate_from(net, seg, segment_base, cache, val);
        net.set_quant_spec(local, before);
        Ok(result.map_err(CcqError::from)?.loss)
    }

    /// Hypothetically applies one expert's move, measures the validation
    /// loss (Eq. 4), and restores the previous spec. With a cache the
    /// measurement re-runs only the network suffix from the probed
    /// layer's segment — bit-identical to the full forward.
    fn probe_one(
        net: &mut Network,
        e: &Expert,
        val: &[Batch],
        cache: Option<&ActivationCache>,
    ) -> Result<f32> {
        match cache {
            Some(c) => Self::probe_one_from(net, e, e.layer, 0, c, val),
            None => {
                let before = Self::apply(net, e);
                let loss = evaluate(net, val).map_err(CcqError::from)?.loss;
                net.set_quant_spec(e.layer, before);
                Ok(loss)
            }
        }
    }

    /// Probes every expert in order on one network, returning the losses
    /// in expert order.
    fn probe_round_serial(
        net: &mut Network,
        experts: &[Expert],
        val: &[Batch],
        cache: Option<&ActivationCache>,
    ) -> Result<Vec<f32>> {
        experts
            .iter()
            .map(|e| Self::probe_one(net, e, val, cache))
            .collect()
    }

    /// Splits a round's experts over workers, keeping chunk 0 on the
    /// original network and flattening per-chunk losses back into expert
    /// order. With a cache each worker clones only the network *suffix*
    /// from its chunk's first re-entry segment (experts are in layer
    /// order, so that segment covers the whole chunk); without one it
    /// falls back to full-network clones.
    pub(crate) fn probe_round(
        net: &mut Network,
        experts: &[Expert],
        val: &[Batch],
        cache: Option<&ActivationCache>,
    ) -> Result<Vec<f32>> {
        let threads = par::num_threads();
        if threads <= 1 || experts.len() < 2 {
            return Self::probe_round_serial(net, experts, val, cache);
        }
        let chunks = experts.chunks(experts.len().div_ceil(threads));
        // `(worker, segment, quant layers before it)`; the original
        // network is the whole-net worker at segment 0.
        let mut workers: Vec<(Network, usize, usize)> = chunks
            .clone()
            .skip(1)
            .map(|ch| match cache {
                Some(c) => {
                    let seg = c.segment_of(ch[0].layer);
                    (net.clone_tail(seg), seg, c.quant_layers_before(seg))
                }
                None => (net.clone(), 0, 0),
            })
            .collect();
        let pieces: Vec<_> = std::iter::once((net, 0, 0))
            .chain(workers.iter_mut().map(|(w, seg, base)| (w, *seg, *base)))
            .zip(chunks)
            .collect();
        let per_chunk = par::map_pieces(pieces, |_, ((net, seg, base), chunk)| {
            chunk
                .iter()
                .map(|e| match cache {
                    Some(c) => Self::probe_one_from(net, e, e.layer - base, seg, c, val),
                    None => Self::probe_one(net, e, val, None),
                })
                .collect::<Result<Vec<f32>>>()
        });
        let mut losses = Vec::with_capacity(experts.len());
        for r in per_chunk {
            losses.extend(r?);
        }
        Ok(losses)
    }

    /// Runs one competition: `U` probe rounds of Hedge updates, then a draw
    /// from the λ-blended distribution, then the winning layer is
    /// *permanently* lowered one rung. Returns `None` when every layer is
    /// asleep (quantization is complete).
    ///
    /// `quarantined` π slots are treated as sleeping for this step only —
    /// never probed, never drawn; the guard's quarantine policy uses this
    /// to re-draw after a divergent recovery without permanently retiring
    /// the expert. An `observer` receives `(round, round_probes, π)` after
    /// every probe round — the round's per-expert losses ξ and the Hedge
    /// weights right after its multiplicative updates (before the final
    /// rescaling). Observation never perturbs the trajectory.
    ///
    /// # Errors
    ///
    /// Returns [`CcqError::EmptyValidationSet`] when `val` is empty, or a
    /// network error from the probe evaluations.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        net: &mut Network,
        ladder: &BitLadder,
        targets: Option<&[BitWidth]>,
        lambda: &LambdaSchedule,
        step: usize,
        val: &[Batch],
        rng: &mut Rng64,
        quarantined: &[usize],
        mut observer: Option<&mut ProbeObserver>,
    ) -> Result<Option<CompetitionOutcome>> {
        if val.is_empty() {
            return Err(CcqError::EmptyValidationSet);
        }
        let info = net.quant_layer_info();
        let (experts, slots) = self.experts(net, ladder, targets, quarantined);
        if self.pi.len() != slots {
            self.pi = vec![1.0; slots];
        }
        if experts.is_empty() {
            return Ok(None);
        }
        // One cache fill per competition step — a single full Eval
        // forward per validation batch, amortized over rounds × experts
        // partial-forward probes.
        let cache = if self.incremental {
            Some(ActivationCache::fill(net, val).map_err(CcqError::from)?)
        } else {
            None
        };
        let segments = cache
            .as_ref()
            .map_or_else(|| net.segment_count(), ActivationCache::segments);
        // Slot-indexed views for the λ blend.
        let mut sizes = vec![0usize; slots];
        let mut active = vec![false; slots];
        let mut by_slot: Vec<Option<usize>> = vec![None; slots];
        for (i, e) in experts.iter().enumerate() {
            sizes[e.slot] = e.size;
            active[e.slot] = true;
            by_slot[e.slot] = Some(i);
        }
        let n_active = experts.len();
        let (rounds, probes_per_round) = match self.regime {
            ProbeRegime::FullInformation => {
                (if self.rounds == 0 { 2 } else { self.rounds }, n_active)
            }
            ProbeRegime::Sampled => (
                if self.rounds == 0 {
                    2 * n_active
                } else {
                    self.rounds
                },
                1,
            ),
        };

        let mut probes = Vec::with_capacity(rounds * probes_per_round);
        let mut skipped_probes = 0usize;
        for u in 0..rounds {
            let round_start = probes.len();
            match self.regime {
                ProbeRegime::FullInformation => {
                    // A round's probe losses are mutually independent (each
                    // probe applies, measures, and restores its own move,
                    // and π is only read again after the round), so they
                    // can be evaluated concurrently; the Hedge updates
                    // π ← π·exp(−γξ) are then replayed in expert order,
                    // keeping every per-slot update sequence — and thus
                    // the float results — identical to a serial run.
                    let losses = Self::probe_round(net, &experts, val, cache.as_ref())?;
                    for (e, loss) in experts.iter().zip(losses) {
                        // Forward-work accounting: a pure function of the
                        // expert list and topology, so deterministic at
                        // any thread count.
                        let saved = cache.as_ref().map_or(0, |c| c.segment_of(e.layer));
                        self.stats.record(saved, segments);
                        // A non-finite ξ would poison π permanently
                        // (exp(−γ·NaN) = NaN); record the probe but skip
                        // the update.
                        if loss.is_finite() {
                            self.pi[e.slot] *= (-self.gamma * loss).exp();
                        } else {
                            skipped_probes += 1;
                        }
                        probes.push(ProbeRecord {
                            round: u,
                            layer: e.layer,
                            kind: e.kind,
                            val_loss: loss,
                        });
                    }
                }
                ProbeRegime::Sampled => {
                    // Each draw depends on the π updated by the previous
                    // probe, so this regime is inherently sequential.
                    let p = lambda.blend(step, &self.pi, &sizes, &active);
                    let slot = sample_categorical(&p, rng)
                        .ok_or_else(|| CcqError::InvalidConfig("degenerate distribution".into()))?;
                    // ccq-lint: allow(panic-surface) — the blend assigns zero mass to inactive slots, so a draw is always active
                    let e = experts[by_slot[slot].expect("sampled slot is active")];
                    let loss = Self::probe_one(net, &e, val, cache.as_ref())?;
                    let saved = cache.as_ref().map_or(0, |c| c.segment_of(e.layer));
                    self.stats.record(saved, segments);
                    if loss.is_finite() {
                        self.pi[e.slot] *= (-self.gamma * loss).exp();
                    } else {
                        skipped_probes += 1;
                    }
                    probes.push(ProbeRecord {
                        round: u,
                        layer: e.layer,
                        kind: e.kind,
                        val_loss: loss,
                    });
                }
            }
            if let Some(obs) = observer.as_deref_mut() {
                obs(u, &probes[round_start..], &self.pi);
            }
        }
        // Keep π well-scaled across many steps.
        let max_pi = self.pi.iter().copied().fold(0.0f32, f32::max);
        if max_pi > 0.0 && max_pi.is_finite() {
            for v in &mut self.pi {
                *v /= max_pi;
                *v = v.max(1e-30);
            }
        }

        let p = lambda.blend(step, &self.pi, &sizes, &active);
        let slot = sample_categorical(&p, rng)
            .ok_or_else(|| CcqError::InvalidConfig("degenerate distribution".into()))?;
        // ccq-lint: allow(panic-surface) — the blend assigns zero mass to inactive slots, so a draw is always active
        let winner = experts[by_slot[slot].expect("winning slot is active")];
        let _ = Self::apply(net, &winner);
        Ok(Some(CompetitionOutcome {
            winner: winner.layer,
            winner_kind: winner.kind,
            winner_slot: winner.slot,
            winner_label: info[winner.layer].label.clone(),
            from_bits: winner.from,
            to_bits: winner.to,
            probabilities: p,
            probes,
            skipped_probes,
        }))
    }
}

impl Default for Competition {
    /// γ = 0.5 with the adaptive round count (`U = 2 × active layers`).
    fn default() -> Self {
        Competition::new(0.5, 0)
    }
}

/// Samples an index from an unnormalized non-negative weight vector.
pub(crate) fn sample_categorical(p: &[f32], rng: &mut Rng64) -> Option<usize> {
    let total: f32 = p.iter().sum();
    // `<= 0.0` is false for NaN, but NaN is non-finite and still rejected.
    if total <= 0.0 || !total.is_finite() {
        return None;
    }
    let mut x: f32 = rng.gen::<f32>() * total;
    let mut last_positive = None;
    for (i, &v) in p.iter().enumerate() {
        if v > 0.0 {
            last_positive = Some(i);
            if x < v {
                return Some(i);
            }
            x -= v;
        }
    }
    last_positive
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

    #[test]
    fn sample_categorical_respects_support() {
        let mut r = rng(0);
        for _ in 0..100 {
            let i = sample_categorical(&[0.0, 1.0, 0.0], &mut r).unwrap();
            assert_eq!(i, 1);
        }
        assert_eq!(sample_categorical(&[0.0, 0.0], &mut r), None);
    }

    #[test]
    fn competition_picks_an_active_layer_and_applies_it() {
        let (mut net, val) = setup();
        let mut comp = Competition::new(0.5, 4);
        let ladder = BitLadder::paper_default();
        let lambda = LambdaSchedule::constant(0.0);
        let mut r = rng(1);
        let outcome = comp
            .run(&mut net, &ladder, None, &lambda, 0, &val, &mut r, &[], None)
            .unwrap()
            .unwrap();
        assert!(outcome.winner < 3);
        assert_eq!(
            outcome.to_bits,
            BitWidth::of(8),
            "fp layers descend to the top rung"
        );
        assert_eq!(net.quant_spec(outcome.winner).weight_bits, BitWidth::of(8));
        // Full information: 4 rounds × 3 active layers.
        assert_eq!(outcome.probes.len(), 12);
    }

    #[test]
    fn competition_returns_none_when_all_asleep() {
        let (mut net, val) = setup();
        let ladder = BitLadder::new(&[8, 4]).unwrap();
        // Put everything at the floor.
        net.set_all_quant_specs(ccq_quant::QuantSpec::new(
            PolicyKind::Pact,
            BitWidth::of(4),
            BitWidth::of(4),
        ));
        let mut comp = Competition::default();
        let mut r = rng(2);
        let out = comp
            .run(
                &mut net,
                &ladder,
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn targets_freeze_fp_layers() {
        let (mut net, val) = setup();
        let ladder = BitLadder::new(&[8, 4, 3]).unwrap();
        // fp-3b-fp pattern: first and last stay fp, middle goes to 3.
        let targets = vec![BitWidth::FP32, BitWidth::of(3), BitWidth::FP32];
        let mut comp = Competition::new(0.5, 3);
        let mut r = rng(3);
        let lambda = LambdaSchedule::constant(0.0);
        // Exhaust the ladder: middle layer needs 3 descents (fp→8→4→3).
        let mut winners = Vec::new();
        while let Some(out) = comp
            .run(
                &mut net,
                &ladder,
                Some(&targets),
                &lambda,
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
        {
            winners.push(out.winner);
            assert!(winners.len() < 20, "must terminate");
        }
        assert!(
            winners.iter().all(|&w| w == 1),
            "only the middle layer may move"
        );
        assert_eq!(net.quant_spec(1).weight_bits, BitWidth::of(3));
        assert!(net.quant_spec(0).weight_bits.is_full_precision());
        assert!(net.quant_spec(2).weight_bits.is_full_precision());
    }

    #[test]
    fn quarantined_slots_are_never_drawn() {
        let (mut net, val) = setup();
        let ladder = BitLadder::new(&[8, 4]).unwrap();
        let mut comp = Competition::new(0.5, 2);
        let lambda = LambdaSchedule::constant(0.0);
        let mut r = rng(21);
        // Quarantine layers 0 and 2: only layer 1 may win.
        for _ in 0..4 {
            let out = comp
                .run(
                    &mut net,
                    &ladder,
                    None,
                    &lambda,
                    0,
                    &val,
                    &mut r,
                    &[0, 2],
                    None,
                )
                .unwrap();
            let Some(out) = out else { break };
            assert_eq!(out.winner, 1, "quarantined experts must not be drawn");
            assert!(out.probes.iter().all(|p| p.layer == 1));
        }
        assert!(net.quant_spec(0).weight_bits.is_full_precision());
        assert!(net.quant_spec(2).weight_bits.is_full_precision());
    }

    #[test]
    fn quarantining_every_expert_returns_none() {
        let (mut net, val) = setup();
        let mut comp = Competition::default();
        let mut r = rng(22);
        let out = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &val,
                &mut r,
                &[0, 1, 2],
                None,
            )
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn non_finite_probe_losses_are_skipped_not_fed_to_hedge() {
        let (mut net, val) = setup();
        let mut comp = Competition::new(0.5, 2);
        let mut r = rng(23);
        // Poison the network input path so every probe loss is NaN.
        net.visit_params(&mut |p| p.value.fill(f32::NAN));
        let out = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(out.skipped_probes, out.probes.len());
        assert!(out.probes.iter().all(|p| !p.val_loss.is_finite()));
        // π was never touched by a NaN ξ: the draw distribution is still
        // finite and the winner well-defined.
        assert!(comp.expert_weights().iter().all(|w| w.is_finite()));
        assert!(out.probabilities.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn incremental_and_full_probe_paths_are_bit_identical() {
        // The same competition run twice — once re-entering at cached
        // segment boundaries, once with full forwards per probe — must
        // produce the same probe losses to the bit, the same winner, and
        // the same π trajectory.
        let (mut net_inc, val) = setup();
        let mut net_full = net_inc.clone();
        let ladder = BitLadder::paper_default();
        let lambda = LambdaSchedule::constant(0.2);
        let mut comp_inc = Competition::new(0.5, 3);
        let mut comp_full = Competition::new(0.5, 3).incremental(false);
        let mut r_inc = rng(7);
        let mut r_full = rng(7);
        for step in 0..3 {
            let a = comp_inc
                .run(
                    &mut net_inc,
                    &ladder,
                    None,
                    &lambda,
                    step,
                    &val,
                    &mut r_inc,
                    &[],
                    None,
                )
                .unwrap();
            let b = comp_full
                .run(
                    &mut net_full,
                    &ladder,
                    None,
                    &lambda,
                    step,
                    &val,
                    &mut r_full,
                    &[],
                    None,
                )
                .unwrap();
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.winner, b.winner);
                    assert_eq!(a.to_bits, b.to_bits);
                    for (pa, pb) in a.probes.iter().zip(&b.probes) {
                        assert_eq!(pa.layer, pb.layer);
                        assert_eq!(pa.val_loss.to_bits(), pb.val_loss.to_bits());
                    }
                }
                (None, None) => break,
                _ => panic!("paths diverged on completion"),
            }
            assert_eq!(comp_inc.expert_weights(), comp_full.expert_weights());
        }
        // The incremental run actually skipped forward work; the full run
        // recorded every probe as a miss.
        let si = comp_inc.cache_stats();
        assert!(si.hits > 0, "expected cache hits, got {si:?}");
        assert!(si.forward_fraction() < 1.0);
        assert_eq!(si.hits + si.misses, comp_full.cache_stats().misses);
        assert_eq!(
            si.depth_hist.values().sum::<u64>(),
            si.hits + si.misses,
            "histogram covers every probe"
        );
        assert!(comp_full.cache_stats().hits == 0);
        assert!((comp_full.cache_stats().forward_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_validation_set_is_an_error() {
        let (mut net, _) = setup();
        let mut comp = Competition::default();
        let mut r = rng(4);
        let err = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &[],
                &mut r,
                &[],
                None,
            )
            .unwrap_err();
        assert_eq!(err, CcqError::EmptyValidationSet);
    }

    #[test]
    fn probes_restore_the_network() {
        let (mut net, val) = setup();
        let before: Vec<_> = net.quant_layer_info().iter().map(|i| i.spec).collect();
        let mut comp = Competition::new(0.5, 6);
        let mut r = rng(5);
        let out = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
            .unwrap();
        let after: Vec<_> = net.quant_layer_info().iter().map(|i| i.spec).collect();
        // Exactly one layer changed: the winner.
        for (m, (b, a)) in before.iter().zip(&after).enumerate() {
            if m == out.winner {
                assert_ne!(b, a);
            } else {
                assert_eq!(b, a, "layer {m} must be restored after probing");
            }
        }
    }

    #[test]
    fn hedge_weights_prefer_low_loss_layers() {
        // In the full-information regime every active layer is probed each
        // round, so the layer with the smallest validation loss must end
        // with the largest probability — no frequency bias.
        let (mut net, val) = setup();
        let mut comp = Competition::new(2.0, 4);
        let mut r = rng(6);
        let out = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
            .unwrap();
        let mut sums = [0.0f32; 3];
        let mut counts = [0usize; 3];
        for p in &out.probes {
            sums[p.layer] += p.val_loss;
            counts[p.layer] += 1;
        }
        assert!(
            counts.iter().all(|&c| c == 4),
            "full information probes every layer each round"
        );
        let means: Vec<f32> = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| s / c as f32)
            .collect();
        let best_layer = (0..3)
            .min_by(|&a, &b| means[a].total_cmp(&means[b]))
            .unwrap();
        let max_prob_layer = (0..3)
            .max_by(|&a, &b| out.probabilities[a].total_cmp(&out.probabilities[b]))
            .unwrap();
        assert_eq!(
            best_layer, max_prob_layer,
            "means={means:?} p={:?}",
            out.probabilities
        );
    }

    #[test]
    fn sampled_regime_probes_one_layer_per_round() {
        let (mut net, val) = setup();
        let mut comp = Competition::new(0.5, 5).regime(ProbeRegime::Sampled);
        let mut r = rng(7);
        let out = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(out.probes.len(), 5);
    }

    #[test]
    fn weight_act_granularity_moves_operands_independently() {
        let (mut net, val) = setup();
        let ladder = BitLadder::new(&[8, 4]).unwrap();
        let mut comp = Competition::new(0.5, 1).granularity(ExpertGranularity::WeightAct);
        let lambda = LambdaSchedule::constant(0.3);
        let mut r = rng(11);
        let layers = net.quant_layer_count();
        // Exhaust: each layer has separate weight and act descents.
        let mut steps = 0;
        let mut weight_steps = 0;
        let mut act_steps = 0;
        while let Some(out) = comp
            .run(
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
            match out.winner_kind {
                ExpertKind::Weights => weight_steps += 1,
                ExpertKind::Activations => act_steps += 1,
                ExpertKind::Layer => panic!("split granularity must not emit Layer experts"),
            }
            steps += 1;
            assert!(steps <= 2 * layers * ladder.len() + 1, "must terminate");
        }
        assert_eq!(steps, 2 * layers * ladder.len());
        assert_eq!(weight_steps, act_steps);
        for i in 0..layers {
            assert_eq!(net.quant_spec(i).weight_bits, BitWidth::of(4));
            assert_eq!(net.quant_spec(i).act_bits, BitWidth::of(4));
        }
    }

    #[test]
    fn weight_act_probes_touch_only_their_operand() {
        let (mut net, val) = setup();
        let before: Vec<_> = net.quant_layer_info().iter().map(|i| i.spec).collect();
        let mut comp = Competition::new(0.5, 1).granularity(ExpertGranularity::WeightAct);
        let mut r = rng(12);
        let out = comp
            .run(
                &mut net,
                &BitLadder::paper_default(),
                None,
                &LambdaSchedule::constant(0.0),
                0,
                &val,
                &mut r,
                &[],
                None,
            )
            .unwrap()
            .unwrap();
        let after: Vec<_> = net.quant_layer_info().iter().map(|i| i.spec).collect();
        for (m, (b, a)) in before.iter().zip(&after).enumerate() {
            if m == out.winner {
                match out.winner_kind {
                    ExpertKind::Weights => {
                        assert_ne!(b.weight_bits, a.weight_bits);
                        assert_eq!(b.act_bits, a.act_bits);
                    }
                    ExpertKind::Activations => {
                        assert_eq!(b.weight_bits, a.weight_bits);
                        assert_ne!(b.act_bits, a.act_bits);
                    }
                    ExpertKind::Layer => unreachable!(),
                }
            } else {
                assert_eq!(b, a, "layer {m} must be restored");
            }
        }
    }
}
