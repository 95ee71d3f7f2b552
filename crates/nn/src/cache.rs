//! Layer-boundary activation caching for incremental probe evaluation.
//!
//! A CCQ competition probe differs from the baseline network in exactly
//! one layer's quantization spec, and a layer quantizes its *own* input
//! and weights internally — so every activation upstream of the probed
//! layer's top-level segment is byte-identical between the baseline and
//! the probe. [`ActivationCache`] records those boundary activations
//! once per competition (one `Eval` forward per validation batch) and
//! [`crate::train::evaluate_from`] then re-runs only the suffix of the
//! network a probe can actually affect.
//!
//! # Invalidation protocol
//!
//! The cache is valid exactly as long as the network's
//! [`Network::generation`] equals the generation recorded at fill time.
//! Weight mutation, backward passes, `Train`-mode forwards, and
//! snapshot restores all bump the generation; quantization-spec flips do
//! not (see the [`Network`] docs for why that is sound). As a second
//! line of defense, the cache also records every layer's [`QuantSpec`]
//! at fill time, and [`ActivationCache::validate_prefix`] checks that no
//! layer *upstream* of a probe's re-entry segment has had its spec
//! changed — catching misuse that the generation counter is
//! intentionally blind to.

use crate::train::Batch;
use crate::{Network, NnError, Result};
use ccq_quant::QuantSpec;
use ccq_tensor::Tensor;

/// Per-batch boundary activations of a network at a fixed generation,
/// plus the segment geometry needed to map a probed quant layer to its
/// re-entry point. See the module docs for the validity contract.
#[derive(Debug, Clone)]
pub struct ActivationCache {
    generation: u64,
    segments: usize,
    batch_count: usize,
    /// `boundaries[s - 1][b]` is the input of segment `s` for batch `b`
    /// (the output of segment `s - 1`); segment 0's input is the batch
    /// itself and is not stored.
    boundaries: Vec<Vec<Tensor>>,
    /// Quantization spec of every quant layer at fill time.
    specs: Vec<QuantSpec>,
    /// Quant-layer index → index of the top-level segment containing it.
    segment_of: Vec<usize>,
    /// `quant_before[s]` = number of quant layers in segments `< s`
    /// (length `segments + 1`).
    quant_before: Vec<usize>,
}

impl ActivationCache {
    /// Fills a cache by running one `Eval`-mode forward per batch on
    /// the current network, recording every top-level segment boundary.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors from the recording forwards.
    pub fn fill(net: &mut Network, batches: &[Batch]) -> Result<Self> {
        let segments = net.segment_count();
        let counts = net.segment_quant_counts();
        let mut segment_of = Vec::new();
        let mut quant_before = Vec::with_capacity(segments + 1);
        quant_before.push(0);
        for (s, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                segment_of.push(s);
            }
            quant_before.push(quant_before[s] + c);
        }
        let specs = net.quant_layer_info().iter().map(|i| i.spec).collect();
        // Capture the generation before the fill forwards: Eval-mode
        // forwards do not bump it, so filling is not self-invalidating.
        let generation = net.generation();
        let mut boundaries: Vec<Vec<Tensor>> = (1..segments)
            .map(|_| Vec::with_capacity(batches.len()))
            .collect();
        for batch in batches {
            net.forward_recording(&batch.images, &mut |s, out| {
                // The last segment's output is the logits; only the
                // inputs of segments 1..segments are re-entry points.
                if s + 1 < segments {
                    boundaries[s].push(out.clone());
                }
            })?;
        }
        Ok(ActivationCache {
            generation,
            segments,
            batch_count: batches.len(),
            boundaries,
            specs,
            segment_of,
            quant_before,
        })
    }

    /// Number of top-level segments of the filled network.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Number of batches the cache was filled from.
    pub fn batch_count(&self) -> usize {
        self.batch_count
    }

    /// The top-level segment containing quant layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    pub fn segment_of(&self, layer: usize) -> usize {
        self.segment_of[layer]
    }

    /// Number of quant layers in segments strictly before `segment`.
    ///
    /// # Panics
    ///
    /// Panics when `segment > segments()`.
    pub fn quant_layers_before(&self, segment: usize) -> usize {
        self.quant_before[segment]
    }

    /// The cached input of `segment` for batch `batch`.
    ///
    /// # Panics
    ///
    /// Panics when `segment` is 0 or out of range, or `batch` is out of
    /// range — [`crate::train::evaluate_from`] validates both before
    /// indexing.
    pub fn input(&self, segment: usize, batch: usize) -> &Tensor {
        &self.boundaries[segment - 1][batch]
    }

    /// Errors unless `net`'s generation still matches the fill-time
    /// generation and `batches` has the fill-time batch count.
    ///
    /// # Errors
    ///
    /// [`NnError::StaleCache`] on a generation mismatch,
    /// [`NnError::InvalidConfig`] on a batch-count mismatch.
    pub fn check_current(&self, net: &Network, batches: &[Batch]) -> Result<()> {
        if net.generation() != self.generation {
            return Err(NnError::StaleCache {
                cache_generation: self.generation,
                net_generation: net.generation(),
            });
        }
        if batches.len() != self.batch_count {
            return Err(NnError::InvalidConfig(format!(
                "activation cache was filled from {} batches, asked to serve {}",
                self.batch_count,
                batches.len()
            )));
        }
        Ok(())
    }

    /// Errors when any quant layer in a segment *before* `segment` has
    /// a different spec than at fill time — such a change would make
    /// the cached boundary activations wrong without bumping the
    /// generation. Only meaningful on the full network the cache was
    /// filled from (tail clones do not contain the prefix).
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] naming the first offending layer.
    pub fn validate_prefix(&self, net: &mut Network, segment: usize) -> Result<()> {
        let mut mismatch = None;
        let mut i = 0;
        net.visit_quant(&mut |h| {
            if mismatch.is_none()
                && i < self.segment_of.len()
                && self.segment_of[i] < segment
                && h.quant.spec() != self.specs[i]
            {
                mismatch = Some(i);
            }
            i += 1;
        });
        match mismatch {
            Some(layer) => Err(NnError::InvalidConfig(format!(
                "quant layer {layer} upstream of segment {segment} changed spec since cache fill"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{QLinear, Relu, Sequential};
    use crate::train::{evaluate, Batch};
    use crate::Mode;
    use ccq_quant::{BitWidth, PolicyKind};
    use ccq_tensor::{rng, Init, Tensor};

    fn net() -> Network {
        let mut r = rng(9);
        let spec = QuantSpec::full_precision(PolicyKind::Pact);
        Network::new(Sequential::new(vec![
            Box::new(QLinear::new("fc1", 4, 8, spec, &mut r)),
            Box::new(Relu::new()),
            Box::new(QLinear::new("fc2", 8, 6, spec, &mut r)),
            Box::new(Relu::new()),
            Box::new(QLinear::new("fc3", 6, 3, spec, &mut r)),
        ]))
    }

    fn batches(n: usize) -> Vec<Batch> {
        let mut r = rng(31);
        (0..n)
            .map(|_| {
                let images = Init::Normal {
                    mean: 0.0,
                    std: 1.0,
                }
                .sample(&[5, 4], &mut r);
                Batch::new(images, vec![0, 1, 2, 0, 1]).unwrap()
            })
            .collect()
    }

    #[test]
    fn segment_geometry_maps_quant_layers() {
        let mut n = net();
        let cache = ActivationCache::fill(&mut n, &batches(2)).unwrap();
        assert_eq!(cache.segments(), 5);
        assert_eq!(cache.segment_of(0), 0);
        assert_eq!(cache.segment_of(1), 2);
        assert_eq!(cache.segment_of(2), 4);
        assert_eq!(cache.quant_layers_before(0), 0);
        assert_eq!(cache.quant_layers_before(2), 1);
        assert_eq!(cache.quant_layers_before(5), 3);
    }

    #[test]
    fn cached_boundaries_match_a_plain_forward() {
        let mut n = net();
        let val = batches(3);
        let cache = ActivationCache::fill(&mut n, &val).unwrap();
        // Resuming from any boundary must reproduce the full forward
        // bit-for-bit.
        for (b, batch) in val.iter().enumerate() {
            let full = n.forward(&batch.images, Mode::Eval).unwrap();
            for s in 1..cache.segments() {
                let partial = n.forward_from(s, cache.input(s, b)).unwrap();
                assert_eq!(partial.as_slice(), full.as_slice(), "segment {s}");
            }
        }
    }

    #[test]
    fn generation_tracks_mutation_not_probes() {
        let mut n = net();
        let g0 = n.generation();
        // Spec flips (competition probes) never invalidate.
        let q = QuantSpec::new(PolicyKind::Pact, BitWidth::of(4), BitWidth::of(4));
        n.set_quant_spec(1, q);
        let x = Tensor::zeros(&[1, 4]);
        n.forward(&x, Mode::Eval).unwrap();
        assert_eq!(n.generation(), g0);
        // Weight mutation does.
        n.visit_params(&mut |_| {});
        assert!(n.generation() > g0);
        // Train forward does.
        let g1 = n.generation();
        n.forward(&x, Mode::Train).unwrap();
        assert!(n.generation() > g1);
    }

    #[test]
    fn check_current_rejects_stale_and_mismatched() {
        let mut n = net();
        let val = batches(2);
        let cache = ActivationCache::fill(&mut n, &val).unwrap();
        cache.check_current(&n, &val).unwrap();
        assert!(matches!(
            cache.check_current(&n, &val[..1]),
            Err(NnError::InvalidConfig(_))
        ));
        n.visit_params(&mut |p| p.value.map_in_place(|v| v + 0.5));
        assert!(matches!(
            cache.check_current(&n, &val),
            Err(NnError::StaleCache { .. })
        ));
    }

    #[test]
    fn validate_prefix_catches_upstream_spec_changes() {
        let mut n = net();
        let val = batches(2);
        let cache = ActivationCache::fill(&mut n, &val).unwrap();
        let q = QuantSpec::new(PolicyKind::Pact, BitWidth::of(4), BitWidth::of(4));
        // Changing the probed layer itself (fc2, segment 2) is fine for
        // a re-entry at its own segment...
        n.set_quant_spec(1, q);
        cache.validate_prefix(&mut n, 2).unwrap();
        // ...but poisons any re-entry *after* it.
        assert!(cache.validate_prefix(&mut n, 3).is_err());
        n.set_quant_spec(1, QuantSpec::full_precision(PolicyKind::Pact));
        cache.validate_prefix(&mut n, 3).unwrap();
    }

    #[test]
    fn clone_tail_shares_generation_and_evaluates_suffix() {
        let mut n = net();
        let val = batches(2);
        let cache = ActivationCache::fill(&mut n, &val).unwrap();
        let mut tail = n.clone_tail(2); // fc2, relu, fc3
        assert_eq!(tail.generation(), n.generation());
        assert_eq!(tail.segment_count(), 3);
        for (b, batch) in val.iter().enumerate() {
            let full = n.forward(&batch.images, Mode::Eval).unwrap();
            let part = tail.forward_from(0, cache.input(2, b)).unwrap();
            assert_eq!(part.as_slice(), full.as_slice());
        }
        // Sanity: the tail is a real network (evaluate works on it).
        assert!(evaluate(&mut n, &val).is_ok());
    }
}
