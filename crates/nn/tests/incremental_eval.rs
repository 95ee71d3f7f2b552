//! Property tests for incremental probe evaluation: for random networks,
//! random probed layers, and random cache states, `evaluate_from(seg,
//! cache)` must be **bit-identical** to a full `evaluate`, tail-clone
//! workers included — and any mutation of the network must invalidate
//! the cache rather than silently serve stale activations.

use ccq_nn::cache::ActivationCache;
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::layers::{QLinear, Relu, Sequential};
use ccq_nn::train::{evaluate, evaluate_from, train_epoch, Batch};
use ccq_nn::{Layer, Mode, Network, NnError, Sgd};
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::{rng, Init};
use proptest::prelude::*;

const IN_DIM: usize = 3;
const CLASSES: usize = 3;

/// An MLP with `depth` quantizable layers, each followed by a Relu
/// except the head — so quant layers never sit at consecutive segment
/// indices and the layer→segment map is exercised.
fn mlp_net(depth: usize, width: usize, policy: PolicyKind, seed: u64) -> Network {
    let mut r = rng(seed);
    let spec = QuantSpec::full_precision(policy);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut prev = IN_DIM;
    for d in 0..depth {
        let out = if d + 1 == depth { CLASSES } else { width };
        layers.push(Box::new(QLinear::new(
            format!("fc{d}"),
            prev,
            out,
            spec,
            &mut r,
        )));
        if d + 1 != depth {
            layers.push(Box::new(Relu::new()));
        }
        prev = out;
    }
    Network::new(Sequential::new(layers))
}

fn rand_batches(n: usize, seed: u64) -> Vec<Batch> {
    let mut r = rng(seed);
    (0..n)
        .map(|b| {
            let images = Init::Normal {
                mean: 0.0,
                std: 1.0,
            }
            .sample(&[6, IN_DIM], &mut r);
            let labels = (0..6).map(|i| (i + b) % CLASSES).collect();
            Batch::new(images, labels).unwrap()
        })
        .collect()
}

fn probe_spec(policy: PolicyKind, bits: u32) -> QuantSpec {
    QuantSpec::new(policy, BitWidth::of(bits), BitWidth::of(bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A probe evaluated from the cached boundary of its own segment is
    /// bit-identical to a full forward of the probed network.
    #[test]
    fn evaluate_from_matches_full_evaluate(
        depth in 2usize..5,
        width in 2usize..8,
        n_batches in 1usize..5,
        layer_sel in 0usize..64,
        bits_sel in 0usize..3,
        policy_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        let bits = [2u32, 4, 8][bits_sel];
        let policy = [PolicyKind::Pact, PolicyKind::MaxAbs][policy_sel];
        let mut net = mlp_net(depth, width, policy, seed);
        let val = rand_batches(n_batches, seed ^ 0x9e37_79b9);
        let cache = ActivationCache::fill(&mut net, &val).unwrap();
        let layer = layer_sel % depth;
        let before = net.quant_spec(layer);
        net.set_quant_spec(layer, probe_spec(policy, bits));
        let seg = cache.segment_of(layer);
        let inc = evaluate_from(&mut net, seg, 0, &cache, &val).unwrap();
        let full = evaluate(&mut net, &val).unwrap();
        prop_assert_eq!(inc.loss.to_bits(), full.loss.to_bits());
        prop_assert_eq!(inc.accuracy.to_bits(), full.accuracy.to_bits());
        // Restore and confirm the cache still serves the baseline.
        net.set_quant_spec(layer, before);
        let base_inc = evaluate_from(&mut net, seg, 0, &cache, &val).unwrap();
        let base_full = evaluate(&mut net, &val).unwrap();
        prop_assert_eq!(base_inc.loss.to_bits(), base_full.loss.to_bits());
    }

    /// The parallel probe worker's shape: a tail clone starting at the
    /// probed layer's segment, fed from the cache, matches a full
    /// evaluation of the probed full network bit-for-bit.
    #[test]
    fn tail_clone_probe_matches_full_evaluate(
        depth in 2usize..5,
        width in 2usize..8,
        n_batches in 1usize..4,
        layer_sel in 0usize..64,
        bits_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let bits = [2u32, 4, 8][bits_sel];
        let policy = PolicyKind::Pact;
        let mut net = mlp_net(depth, width, policy, seed);
        let val = rand_batches(n_batches, seed ^ 0x51f1_5ead);
        let cache = ActivationCache::fill(&mut net, &val).unwrap();
        let layer = layer_sel % depth;
        let seg = cache.segment_of(layer);
        let mut tail = net.clone_tail(seg);
        let local = layer - cache.quant_layers_before(seg);
        tail.set_quant_spec(local, probe_spec(policy, bits));
        let inc = evaluate_from(&mut tail, seg, seg, &cache, &val).unwrap();
        net.set_quant_spec(layer, probe_spec(policy, bits));
        let full = evaluate(&mut net, &val).unwrap();
        prop_assert_eq!(inc.loss.to_bits(), full.loss.to_bits());
        prop_assert_eq!(inc.accuracy.to_bits(), full.accuracy.to_bits());
    }

    /// Every mutation class — optimizer step, train-mode epoch, weight
    /// visit, checkpoint apply — bumps the generation and makes
    /// `evaluate_from` refuse the cache instead of serving stale
    /// activations. A mismatched batch set is refused too.
    #[test]
    fn stale_caches_are_rejected(
        depth in 2usize..4,
        n_batches in 2usize..4,
        mutation in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut net = mlp_net(depth, 4, PolicyKind::MaxAbs, seed);
        let val = rand_batches(n_batches, seed ^ 0xdead_beef);
        let cache = ActivationCache::fill(&mut net, &val).unwrap();
        // Valid right after fill.
        evaluate_from(&mut net, 0, 0, &cache, &val).unwrap();
        // Batch-count mismatch is a config error, not silent reuse.
        prop_assert!(matches!(
            evaluate_from(&mut net, 0, 0, &cache, &val[..1]),
            Err(NnError::InvalidConfig(_))
        ));
        match mutation {
            0 => {
                let mut opt = Sgd::new(0.1);
                let mut r = rng(seed);
                train_epoch(&mut net, &val, &mut opt, &mut r).unwrap();
            }
            1 => net.visit_params(&mut |p| p.value.map_in_place(|v| v * 1.5)),
            2 => {
                let snap = Checkpoint::capture(&mut net);
                snap.apply(&mut net).unwrap();
            }
            _ => {
                net.forward(&val[0].images, Mode::Train).unwrap();
            }
        }
        let res = evaluate_from(&mut net, depth.min(1), 0, &cache, &val);
        let stale = matches!(res, Err(NnError::StaleCache { .. }));
        prop_assert!(stale, "expected StaleCache");
    }

    /// Changing a quant spec *upstream* of the re-entry segment is the
    /// one hazard the generation counter is blind to; the spec-prefix
    /// check must catch it.
    #[test]
    fn upstream_spec_change_is_rejected(
        width in 2usize..8,
        bits_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let bits = [2u32, 4, 8][bits_sel];
        let mut net = mlp_net(3, width, PolicyKind::Pact, seed);
        let val = rand_batches(2, seed ^ 0x0bad_cafe);
        let cache = ActivationCache::fill(&mut net, &val).unwrap();
        // Probe layer 2 while layer 0's spec was changed underneath.
        net.set_quant_spec(0, probe_spec(PolicyKind::Pact, bits));
        let seg = cache.segment_of(2);
        prop_assert!(matches!(
            evaluate_from(&mut net, seg, 0, &cache, &val),
            Err(NnError::InvalidConfig(_))
        ));
    }
}
