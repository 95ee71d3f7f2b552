//! The memory-aggressiveness parameter λ (paper Eq. 7).

/// Linear decay schedule for the model-compression weight λ.
///
/// Eq. 7 blends the learned layer-selection distribution with a
/// size-proportional one:
/// `p_new = (1 − λ)·p + λ·|layer| / Σ|layers|`.
/// High λ compresses big layers first; the paper decays λ linearly because
/// early steps recover easily (be size-greedy) while late steps need to be
/// accuracy-driven.
///
/// # Example
///
/// ```
/// use ccq::LambdaSchedule;
///
/// let s = LambdaSchedule::linear(0.8, 0.2, 4);
/// assert_eq!(s.value(0), 0.8);
/// assert!((s.value(4) - 0.2).abs() < 1e-6);
/// assert!((s.average() - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaSchedule {
    start: f32,
    end: f32,
    total_steps: usize,
}

impl LambdaSchedule {
    /// A constant λ.
    ///
    /// # Panics
    ///
    /// Panics when `value` is outside `[0, 1]`.
    pub fn constant(value: f32) -> Self {
        LambdaSchedule::linear(value, value, 1)
    }

    /// Linear decay from `start` to `end` over `total_steps` quantization
    /// steps (clamped at `end` afterwards).
    ///
    /// # Panics
    ///
    /// Panics when either endpoint is outside `[0, 1]`.
    pub fn linear(start: f32, end: f32, total_steps: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&start),
            "lambda start must be in [0, 1]"
        );
        assert!((0.0..=1.0).contains(&end), "lambda end must be in [0, 1]");
        LambdaSchedule {
            start,
            end,
            total_steps: total_steps.max(1),
        }
    }

    /// λ at quantization step `step`.
    pub fn value(&self, step: usize) -> f32 {
        let t = (step as f32 / self.total_steps as f32).min(1.0);
        self.start + (self.end - self.start) * t
    }

    /// The average λ over the schedule (the x-axis of Fig. 1).
    pub fn average(&self) -> f32 {
        0.5 * (self.start + self.end)
    }

    /// Blends a probability vector with the size-proportional distribution
    /// (Eq. 7), restricted to `active` layers, and renormalizes.
    ///
    /// `sizes[i]` is the weight count of layer `i`; inactive layers get
    /// probability zero. Returns a uniform distribution over active layers
    /// when everything degenerates (e.g. all-zero weights).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    pub fn blend(&self, step: usize, p: &[f32], sizes: &[usize], active: &[bool]) -> Vec<f32> {
        assert_eq!(p.len(), sizes.len(), "probability/size length mismatch");
        assert_eq!(p.len(), active.len(), "probability/active length mismatch");
        let lambda = self.value(step);
        let active_size: f32 = sizes
            .iter()
            .zip(active)
            .filter(|&(_, &a)| a)
            .map(|(&s, _)| s as f32)
            .sum();
        let active_p: f32 = p
            .iter()
            .zip(active)
            .filter(|&(_, &a)| a)
            .map(|(&v, _)| v)
            .sum();
        let n_active = active.iter().filter(|&&a| a).count();
        if n_active == 0 {
            return vec![0.0; p.len()];
        }
        let mut out = vec![0.0f32; p.len()];
        for i in 0..p.len() {
            if !active[i] {
                continue;
            }
            let p_norm = if active_p > 0.0 {
                p[i] / active_p
            } else {
                1.0 / n_active as f32
            };
            let s_norm = if active_size > 0.0 {
                sizes[i] as f32 / active_size
            } else {
                1.0 / n_active as f32
            };
            out[i] = (1.0 - lambda) * p_norm + lambda * s_norm;
        }
        // Guard against numeric drift.
        let total: f32 = out.iter().sum();
        if total > 0.0 {
            for v in &mut out {
                *v /= total;
            }
        }
        out
    }
}

impl Default for LambdaSchedule {
    /// The paper's best-performing neighbourhood: average λ ≈ 0.65,
    /// decaying linearly (Fig. 1).
    fn default() -> Self {
        LambdaSchedule::linear(0.9, 0.4, 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_decay_endpoints() {
        let s = LambdaSchedule::linear(1.0, 0.0, 10);
        assert_eq!(s.value(0), 1.0);
        assert_eq!(s.value(10), 0.0);
        assert_eq!(s.value(99), 0.0);
        assert!((s.value(5) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn constant_never_moves() {
        let s = LambdaSchedule::constant(0.3);
        assert_eq!(s.value(0), 0.3);
        assert_eq!(s.value(1000), 0.3);
        assert_eq!(s.average(), 0.3);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_out_of_range() {
        let _ = LambdaSchedule::constant(1.5);
    }

    #[test]
    fn blend_zero_lambda_is_pure_p() {
        let s = LambdaSchedule::constant(0.0);
        let out = s.blend(0, &[0.7, 0.3], &[1, 999], &[true, true]);
        assert!((out[0] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn blend_full_lambda_is_pure_size() {
        let s = LambdaSchedule::constant(1.0);
        let out = s.blend(0, &[0.9, 0.1], &[100, 300], &[true, true]);
        assert!((out[0] - 0.25).abs() < 1e-6);
        assert!((out[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn blend_masks_inactive_layers() {
        let s = LambdaSchedule::constant(0.5);
        let out = s.blend(0, &[0.5, 0.3, 0.2], &[10, 10, 10], &[true, false, true]);
        assert_eq!(out[1], 0.0);
        let total: f32 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn blend_all_inactive_is_zero_vector() {
        let s = LambdaSchedule::constant(0.5);
        let out = s.blend(0, &[1.0], &[10], &[false]);
        assert_eq!(out, vec![0.0]);
    }

    #[test]
    fn blend_is_a_distribution() {
        let s = LambdaSchedule::linear(0.8, 0.1, 5);
        for step in 0..6 {
            let out = s.blend(step, &[0.2, 0.5, 0.3], &[5, 50, 500], &[true, true, true]);
            let total: f32 = out.iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "step {step}");
            assert!(out.iter().all(|&v| v >= 0.0));
        }
    }
}
