//! Stochastic gradient descent.

use crate::Network;

/// L2 decay applied to PACT `α` values on every step.
const ALPHA_DECAY: f32 = 2e-4;

/// SGD with momentum and decoupled per-parameter weight decay, plus the
/// PACT `α` update (PACT's clipping values are learnable scalars that ride
/// along with the regular parameters).
///
/// # Example
///
/// ```
/// use ccq_nn::Sgd;
///
/// let mut opt = Sgd::new(0.1).momentum(0.9).weight_decay(5e-4);
/// assert_eq!(opt.lr(), 0.1);
/// opt.set_lr(0.01);
/// assert_eq!(opt.lr(), 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate (no momentum/decay).
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// Sets the momentum coefficient (builder style).
    pub fn momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight decay (builder style).
    pub fn weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (driven by a schedule between epochs).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step from the accumulated gradients, then clears
    /// them.
    pub fn step(&mut self, net: &mut Network) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        net.visit_params(&mut |p| {
            let decay = if p.decay { wd } else { 0.0 };
            let (vv, gv, wv) = (
                p.velocity.as_mut_slice(),
                p.grad.as_slice(),
                p.value.as_slice(),
            );
            for ((v, &g), &w) in vv.iter_mut().zip(gv).zip(wv) {
                *v = mu * *v + g + decay * w;
            }
            // Second loop borrows value mutably after velocity settled.
            let step: Vec<f32> = p.velocity.as_slice().iter().map(|&v| lr * v).collect();
            for (w, s) in p.value.as_mut_slice().iter_mut().zip(step) {
                *w -= s;
            }
            p.grad.fill(0.0);
        });
        let alr = self.lr;
        net.visit_quant(&mut |h| {
            h.quant.step_alpha(alr, ALPHA_DECAY);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{QLinear, Sequential};
    use crate::{Mode, Network};
    use ccq_quant::{PolicyKind, QuantSpec};
    use ccq_tensor::{rng, Tensor};

    fn tiny_net() -> Network {
        let mut r = rng(0);
        Network::new(Sequential::new(vec![Box::new(QLinear::new(
            "fc",
            2,
            1,
            QuantSpec::full_precision(PolicyKind::MaxAbs),
            &mut r,
        ))]))
    }

    #[test]
    fn step_moves_against_gradient_and_clears() {
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 2]);
        let y = net.forward(&x, Mode::Train).unwrap();
        let before = y.as_slice()[0];
        net.backward(&Tensor::ones(&[1, 1])).unwrap();
        let mut opt = Sgd::new(0.1);
        opt.step(&mut net);
        let after = net.forward(&x, Mode::Eval).unwrap().as_slice()[0];
        assert!(after < before, "output should decrease when grad is +1");
        // Gradients cleared.
        net.visit_params(&mut |p| assert_eq!(p.grad.norm_l2(), 0.0));
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut net = tiny_net();
        let x = Tensor::ones(&[1, 2]);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let mut deltas = Vec::new();
        let mut prev = net.forward(&x, Mode::Eval).unwrap().as_slice()[0];
        for _ in 0..3 {
            let _ = net.forward(&x, Mode::Train).unwrap();
            net.backward(&Tensor::ones(&[1, 1])).unwrap();
            opt.step(&mut net);
            let cur = net.forward(&x, Mode::Eval).unwrap().as_slice()[0];
            deltas.push(prev - cur);
            prev = cur;
        }
        // With constant gradients, momentum makes steps grow.
        assert!(deltas[1] > deltas[0]);
        assert!(deltas[2] > deltas[1]);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut net = tiny_net();
        let mut norm_before = 0.0;
        net.visit_params(&mut |p| {
            if p.decay {
                norm_before += p.value.norm_l2();
            }
        });
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        opt.step(&mut net); // zero grads, only decay acts
        let mut norm_after = 0.0;
        net.visit_params(&mut |p| {
            if p.decay {
                norm_after += p.value.norm_l2();
            }
        });
        assert!(norm_after < norm_before);
    }
}
