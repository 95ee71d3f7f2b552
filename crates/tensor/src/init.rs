//! Random tensor initializers.

use crate::Tensor;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

thread_local! {
    static PLACEHOLDER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every random [`Init`] sampled on this thread returning
/// zeros, without drawing from (or advancing) the generator. For
/// networks built only to have their weights overwritten, such as a
/// packed artifact's structure check and deploy target, where the draws
/// are most of the build time.
pub fn with_placeholder_weights<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            PLACEHOLDER.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(PLACEHOLDER.with(|c| c.replace(true)));
    f()
}

/// The deterministic RNG used across the workspace.
///
/// All experiments seed a `Rng64` explicitly so that every table and figure
/// is exactly reproducible from the command line.
pub type Rng64 = rand::rngs::StdRng;

/// Creates a seeded [`Rng64`].
///
/// # Example
///
/// ```
/// use ccq_tensor::{Init, rng};
///
/// let mut r = rng(42);
/// let w = Init::KaimingNormal { fan_in: 9 }.sample(&[4, 1, 3, 3], &mut r);
/// assert_eq!(w.shape(), &[4, 1, 3, 3]);
/// ```
pub fn rng(seed: u64) -> Rng64 {
    Rng64::seed_from_u64(seed)
}

/// Captures the raw generator state of an [`Rng64`] so a long run can be
/// checkpointed and resumed bit-for-bit.
///
/// # Example
///
/// ```
/// use ccq_tensor::{rng, rng_from_state, rng_state};
/// use rand::Rng;
///
/// let mut a = rng(7);
/// let _: f32 = a.gen();
/// let mut b = rng_from_state(rng_state(&a));
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn rng_state(r: &Rng64) -> [u64; 4] {
    r.state()
}

/// Rebuilds an [`Rng64`] from a state captured with [`rng_state`],
/// continuing the random stream exactly where the capture left off.
pub fn rng_from_state(state: [u64; 4]) -> Rng64 {
    Rng64::from_state(state)
}

/// Weight/bias initialization schemes.
///
/// # Example
///
/// ```
/// use ccq_tensor::{Init, rng};
///
/// let mut r = rng(0);
/// let t = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[1000], &mut r);
/// assert!(t.max() <= 1.0 && t.min() >= -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros.
    Zeros,
    /// All ones.
    Ones,
    /// Every element set to the given constant.
    Constant(f32),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f32,
        /// Upper bound (exclusive).
        hi: f32,
    },
    /// Gaussian with the given mean and standard deviation.
    Normal {
        /// Mean of the distribution.
        mean: f32,
        /// Standard deviation of the distribution.
        std: f32,
    },
    /// He/Kaiming normal: `N(0, sqrt(2 / fan_in))`, the standard choice for
    /// ReLU networks (and the one the ResNet paper uses).
    KaimingNormal {
        /// Number of input connections per output unit.
        fan_in: usize,
    },
    /// Glorot/Xavier uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform {
        /// Number of input connections per output unit.
        fan_in: usize,
        /// Number of output connections per input unit.
        fan_out: usize,
    },
}

impl Init {
    /// Samples a tensor of the given shape from this initializer (all
    /// zeros for a random one inside [`with_placeholder_weights`]).
    pub fn sample(&self, dims: &[usize], rng: &mut Rng64) -> Tensor {
        match *self {
            Init::Zeros => Tensor::zeros(dims),
            Init::Ones => Tensor::ones(dims),
            Init::Constant(c) => Tensor::full(dims, c),
            _ if PLACEHOLDER.with(Cell::get) => Tensor::zeros(dims),
            Init::Uniform { lo, hi } => Tensor::from_fn(dims, |_| rng.gen_range(lo..hi)),
            Init::Normal { mean, std } => {
                Tensor::from_fn(dims, |_| mean + std * sample_standard_normal(rng))
            }
            Init::KaimingNormal { fan_in } => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                Tensor::from_fn(dims, |_| std * sample_standard_normal(rng))
            }
            Init::XavierUniform { fan_in, fan_out } => {
                let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                Tensor::from_fn(dims, |_| rng.gen_range(-a..a))
            }
        }
    }
}

/// One standard-normal sample via the Box–Muller transform (avoids a
/// `rand_distr` dependency).
fn sample_standard_normal(rng: &mut Rng64) -> f32 {
    // u1 in (0, 1] so ln is finite.
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = Init::Normal {
            mean: 0.0,
            std: 1.0,
        }
        .sample(&[32], &mut rng(7));
        let b = Init::Normal {
            mean: 0.0,
            std: 1.0,
        }
        .sample(&[32], &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Init::Uniform { lo: 0.0, hi: 1.0 }.sample(&[32], &mut rng(1));
        let b = Init::Uniform { lo: 0.0, hi: 1.0 }.sample(&[32], &mut rng(2));
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let t = Init::Normal {
            mean: 2.0,
            std: 0.5,
        }
        .sample(&[20000], &mut rng(3));
        assert!((t.mean() - 2.0).abs() < 0.05, "mean was {}", t.mean());
        assert!((t.std() - 0.5).abs() < 0.05, "std was {}", t.std());
    }

    #[test]
    fn kaiming_std_tracks_fan_in() {
        let t = Init::KaimingNormal { fan_in: 8 }.sample(&[20000], &mut rng(4));
        let expected = (2.0f32 / 8.0).sqrt();
        assert!((t.std() - expected).abs() < 0.02, "std was {}", t.std());
    }

    #[test]
    fn xavier_respects_bound() {
        let t = Init::XavierUniform {
            fan_in: 3,
            fan_out: 3,
        }
        .sample(&[1000], &mut rng(5));
        let a = (6.0f32 / 6.0).sqrt();
        assert!(t.max() < a && t.min() > -a);
    }

    #[test]
    fn placeholder_weights_skip_draws_inside_the_scope_only() {
        let kaiming = Init::KaimingNormal { fan_in: 4 };
        let mut r = rng(9);
        let zeros = with_placeholder_weights(|| {
            assert_eq!(Init::Ones.sample(&[2], &mut r).as_slice(), &[1.0; 2]);
            kaiming.sample(&[8], &mut r)
        });
        assert_eq!(zeros.as_slice(), &[0.0; 8]);
        assert_eq!(
            kaiming.sample(&[8], &mut r),
            kaiming.sample(&[8], &mut rng(9)),
            "the generator was not advanced and drawing resumes after the scope"
        );
    }

    #[test]
    fn constant_and_zeros() {
        assert_eq!(
            Init::Constant(4.0).sample(&[3], &mut rng(0)).as_slice(),
            &[4.0; 3]
        );
        assert_eq!(Init::Zeros.sample(&[3], &mut rng(0)).as_slice(), &[0.0; 3]);
    }
}
