//! HAWQ-style Hessian-aware mixed-precision baseline (Table II).
//!
//! HAWQ (Dong et al., 2019) ranks layers by second-order sensitivity —
//! the Hessian spectrum of the loss w.r.t. each layer's weights — and
//! gives sensitive layers more bits. Computing Hessian eigenvalues needs
//! autodiff-of-autodiff, which our substrate does not have, so this module
//! estimates the per-layer **Hessian trace** with Hutchinson probes built
//! from finite-difference Hessian-vector products:
//! `vᵀHv ≈ (∇L(w + εv) − ∇L(w))·v / ε` with Rademacher `v`.
//! Bits are then assigned greedily: repeatedly lower the layer with the
//! smallest `trace × quantization-error` penalty until the compression
//! target is met, then fine-tune once. This is the same sensitivity signal
//! HAWQ uses, at our scale (see DESIGN.md §2).

use crate::{layer_profiles, CcqError, Result};
use ccq_hw::model_size;
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::loss::cross_entropy;
use ccq_nn::train::{evaluate, Batch};
use ccq_nn::{Mode, Network, Sgd};
use ccq_quant::{quantization_mse, BitLadder, BitWidth};
use ccq_tensor::{rng, Rng64, Tensor};
use rand::Rng;

/// Configuration for [`hawq_assign`].
#[derive(Debug, Clone)]
pub struct HawqConfig {
    /// Candidate bit widths (descending).
    pub ladder: BitLadder,
    /// Stop lowering bits once this weight-compression ratio is reached.
    pub target_compression: f64,
    /// Number of Hutchinson probes per layer-trace estimate.
    pub hutchinson_probes: usize,
    /// Finite-difference step ε for the Hessian-vector products.
    pub probe_epsilon: f32,
    /// Fine-tuning epochs after assignment.
    pub fine_tune_epochs: usize,
    /// Fine-tuning learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Probe/shuffle seed.
    pub seed: u64,
}

impl Default for HawqConfig {
    fn default() -> Self {
        HawqConfig {
            ladder: BitLadder::paper_default(),
            target_compression: 8.0,
            hutchinson_probes: 4,
            probe_epsilon: 1e-2,
            fine_tune_epochs: 10,
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 5e-4,
            seed: 0,
        }
    }
}

/// Result of the HAWQ-proxy baseline.
#[derive(Debug, Clone)]
pub struct HawqReport {
    /// Accuracy of the incoming full-precision network.
    pub baseline_accuracy: f32,
    /// Accuracy after assignment and fine-tuning.
    pub final_accuracy: f32,
    /// Weight-compression ratio vs fp32.
    pub compression: f64,
    /// Estimated Hessian trace per layer (unnormalized).
    pub traces: Vec<f32>,
    /// The chosen per-layer bit widths.
    pub assignment: Vec<BitWidth>,
}

impl HawqReport {
    /// Accuracy degradation from baseline (positive = worse).
    pub fn degradation(&self) -> f32 {
        self.baseline_accuracy - self.final_accuracy
    }
}

/// Collects the per-quant-layer weight gradients on one batch.
fn layer_grads(net: &mut Network, batch: &Batch) -> Result<Vec<Tensor>> {
    net.zero_grad();
    let logits = net.forward(&batch.images, Mode::Train)?;
    let (_, grad) = cross_entropy(&logits, &batch.labels)?;
    net.backward(&grad)?;
    let mut grads = Vec::new();
    net.visit_quant(&mut |h| grads.push(h.weight.grad.clone()));
    net.zero_grad();
    Ok(grads)
}

/// Estimates the per-layer Hessian trace via Hutchinson probes.
///
/// The network state (including batch-norm running statistics perturbed by
/// the train-mode probe passes) is captured as a [`Checkpoint`] and
/// applied back after the estimation.
///
/// # Errors
///
/// Propagates network errors from the probe passes.
pub fn estimate_hessian_traces(
    net: &mut Network,
    batch: &Batch,
    probes: usize,
    epsilon: f32,
    r: &mut Rng64,
) -> Result<Vec<f32>> {
    let snapshot = Checkpoint::capture(net);
    let g0 = layer_grads(net, batch)?;
    let m = g0.len();
    let mut traces = vec![0.0f32; m];
    for _ in 0..probes.max(1) {
        // Rademacher direction per layer; perturb all layers at once.
        let mut vs: Vec<Tensor> = Vec::with_capacity(m);
        {
            let mut i = 0;
            net.visit_quant(&mut |h| {
                let v = Tensor::from_fn(h.weight.value.shape(), |_| {
                    if r.gen::<bool>() {
                        1.0
                    } else {
                        -1.0
                    }
                });
                // ccq-lint: allow(panic-surface) — v is built from this weight's shape two lines up
                h.weight.value.add_scaled(&v, epsilon).expect("same shape");
                vs.push(v);
                i += 1;
            });
            debug_assert_eq!(i, m);
        }
        let g1 = layer_grads(net, batch)?;
        // Restore weights.
        {
            let mut i = 0;
            net.visit_quant(&mut |h| {
                h.weight
                    .value
                    .add_scaled(&vs[i], -epsilon)
                    // ccq-lint: allow(panic-surface) — vs[i] was built from this weight's shape
                    .expect("same shape");
                i += 1;
            });
        }
        for i in 0..m {
            let hv = g1[i]
                .zip_map(&g0[i], |a, b| (a - b) / epsilon)
                // ccq-lint: allow(panic-surface) — g0 and g1 come from the same layer walk
                .expect("same shape");
            // ccq-lint: allow(panic-surface) — hv inherits the gradient shape vs[i] was built from
            traces[i] += hv.dot(&vs[i]).expect("same shape") / probes.max(1) as f32;
        }
    }
    snapshot.apply(net)?;
    Ok(traces)
}

/// Runs the HAWQ-proxy pipeline: estimate traces, assign bits greedily
/// under the compression target, fine-tune, report.
///
/// # Errors
///
/// Returns [`CcqError::EmptyValidationSet`] / [`CcqError::InvalidConfig`]
/// on bad inputs, or a network error from training.
pub fn hawq_assign(
    net: &mut Network,
    cfg: &HawqConfig,
    train: &[Batch],
    val: &[Batch],
) -> Result<HawqReport> {
    if val.is_empty() {
        return Err(CcqError::EmptyValidationSet);
    }
    let probe_batch = train
        .first()
        .ok_or_else(|| CcqError::InvalidConfig("empty training set".into()))?;
    let mut r = rng(cfg.seed);
    let baseline = evaluate(net, val)?.accuracy;
    let traces = estimate_hessian_traces(
        net,
        probe_batch,
        cfg.hutchinson_probes,
        cfg.probe_epsilon,
        &mut r,
    )?;

    // Start everything at the top rung.
    let infos = net.quant_layer_info();
    let m = infos.len();
    let top = cfg.ladder.top();
    let mut assignment: Vec<BitWidth> = vec![top; m];
    for (i, info) in infos.iter().enumerate() {
        net.set_quant_spec(i, info.spec.with_bits(top, top));
    }
    // Snapshot the weights once for penalty computation.
    let mut weights: Vec<Tensor> = Vec::with_capacity(m);
    net.visit_quant(&mut |h| weights.push(h.weight.value.clone()));

    // Greedy descent: always lower the layer with the smallest
    // trace × Δquant-error penalty, until the target compression holds.
    loop {
        let compression = model_size(&layer_profiles(net)).compression;
        if compression >= cfg.target_compression {
            break;
        }
        let mut best: Option<(usize, BitWidth, f32)> = None;
        for i in 0..m {
            let Some(next) = cfg.ladder.next_below(assignment[i]) else {
                continue;
            };
            // Penalty: sensitivity (trace, floored at 0) × quantization MSE
            // introduced by the move, weighted by layer size.
            let mut probe_quant = ccq_quant::LayerQuant::new(infos[i].spec.with_bits(next, next));
            probe_quant.set_spec(infos[i].spec.with_bits(next, next));
            let q = probe_quant.quantize_weights(&weights[i]);
            let err = quantization_mse(&weights[i], &q) * weights[i].len() as f32;
            let penalty = traces[i].max(0.0) * err;
            if best.map(|(_, _, p)| penalty < p).unwrap_or(true) {
                best = Some((i, next, penalty));
            }
        }
        let Some((i, next, _)) = best else {
            break; // everything at the floor; target unreachable
        };
        assignment[i] = next;
        let spec = net.quant_spec(i);
        net.set_quant_spec(i, spec.with_bits(next, next));
    }

    // One fine-tuning pass, like the other baselines.
    let mut opt = Sgd::new(cfg.lr)
        .momentum(cfg.momentum)
        .weight_decay(cfg.weight_decay);
    for _ in 0..cfg.fine_tune_epochs {
        let _ = ccq_nn::train::train_epoch(net, train, &mut opt, &mut r)?;
    }
    let final_accuracy = evaluate(net, val)?.accuracy;
    let compression = model_size(&layer_profiles(net)).compression;
    Ok(HawqReport {
        baseline_accuracy: baseline,
        final_accuracy,
        compression,
        traces,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_data::{gaussian_blobs, BlobsConfig};
    use ccq_models::mlp;
    use ccq_quant::{PolicyKind, QuantSpec};

    fn setup(policy: PolicyKind) -> (Network, Vec<Batch>, Vec<Batch>) {
        let ds = gaussian_blobs(&BlobsConfig {
            samples_per_class: 48,
            seed: 33,
            ..Default::default()
        });
        let (train, val) = ds.split_at(96);
        let (train_b, val_b) = (train.batches(32), val.batches(32));
        let mut net = mlp(&[8, 16, 4], policy, 4);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut r = rng(8);
        for _ in 0..12 {
            let _ = ccq_nn::train::train_epoch(&mut net, &train_b, &mut opt, &mut r).unwrap();
        }
        (net, train_b, val_b)
    }

    /// Every quantizer scalar in traversal order: `α`, weight step,
    /// activation step.
    fn quant_scalars(net: &mut Network) -> Vec<u32> {
        let mut out = Vec::new();
        net.visit_quant(&mut |h| {
            out.extend(
                [h.quant.alpha(), h.quant.weight_step(), h.quant.act_step()].map(f32::to_bits),
            )
        });
        out
    }

    /// The probes leave the network as they found it: the same Eval
    /// forward bit for bit, the same `α` and LSQ steps, and no quantizer
    /// gradient for fine-tuning's first SGD step to apply.
    #[test]
    fn traces_are_finite_and_probe_restores_the_network() {
        for (policy, bits) in [(PolicyKind::Pact, 32), (PolicyKind::Lsq, 4)] {
            let (mut net, train, _) = setup(policy);
            // PACT at full precision, as `hawq_assign` probes it; LSQ at
            // 4 bits, where the probes calibrate and train both steps.
            let spec = QuantSpec::new(policy, BitWidth::of(bits), BitWidth::of(bits));
            net.set_all_quant_specs(spec);
            let x = train[1].images.clone();
            let y_before = net.forward(&x, Mode::Eval).unwrap();
            let scalars_before = quant_scalars(&mut net);
            let mut r = rng(0);
            let traces = estimate_hessian_traces(&mut net, &train[0], 3, 1e-2, &mut r).unwrap();
            assert_eq!(traces.len(), 2);
            assert!(traces.iter().all(|t| t.is_finite()));
            let y_after = net.forward(&x, Mode::Eval).unwrap();
            let bits_of = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits_of(&y_before), bits_of(&y_after), "{policy}");
            assert_eq!(scalars_before, quant_scalars(&mut net), "{policy}");
            net.visit_quant(&mut |h| h.quant.step_alpha(1.0, 0.0));
            assert_eq!(scalars_before, quant_scalars(&mut net), "{policy} gradient");
        }
    }

    #[test]
    fn trace_of_convex_quadratic_is_positive() {
        // Near a well-trained optimum the loss is locally convex, so the
        // trace estimates should be mostly positive.
        let (mut net, train, _) = setup(PolicyKind::Pact);
        let mut r = rng(1);
        let traces = estimate_hessian_traces(&mut net, &train[0], 6, 1e-2, &mut r).unwrap();
        let positive = traces.iter().filter(|&&t| t > 0.0).count();
        assert!(
            positive >= 1,
            "at least one layer should show positive curvature: {traces:?}"
        );
    }

    #[test]
    fn assignment_reaches_compression_target() {
        let (mut net, train, val) = setup(PolicyKind::Pact);
        let cfg = HawqConfig {
            target_compression: 6.0,
            fine_tune_epochs: 4,
            ladder: BitLadder::new(&[8, 6, 4, 3, 2]).unwrap(),
            ..Default::default()
        };
        let report = hawq_assign(&mut net, &cfg, &train, &val).unwrap();
        assert!(report.compression >= 6.0, "got {}", report.compression);
        assert_eq!(report.assignment.len(), 2);
        assert!(report.baseline_accuracy > 0.8);
    }

    #[test]
    fn assignment_is_mixed_precision_when_sensitivities_differ() {
        let (mut net, train, val) = setup(PolicyKind::Pact);
        let cfg = HawqConfig {
            target_compression: 7.0,
            fine_tune_epochs: 0,
            ..Default::default()
        };
        let report = hawq_assign(&mut net, &cfg, &train, &val).unwrap();
        // At least verify all assigned widths are on the ladder.
        for b in &report.assignment {
            assert!(cfg.ladder.level_of(*b).is_some(), "{b} not on ladder");
        }
    }

    #[test]
    fn empty_val_is_rejected() {
        let (mut net, train, _) = setup(PolicyKind::Pact);
        let cfg = HawqConfig::default();
        assert!(matches!(
            hawq_assign(&mut net, &cfg, &train, &[]),
            Err(CcqError::EmptyValidationSet)
        ));
    }
}
