//! Serial/parallel bit-identity: every kernel must produce byte-for-byte
//! identical output at any thread count. The parallel paths only partition
//! disjoint output regions and never reorder per-element accumulation, so
//! equality here is exact (`assert_eq!` on the raw `f32` slices), not
//! approximate.

use ccq_tensor::ops::{
    col2im, im2col, matmul, matmul_a_bt, matmul_at_b, transpose2d, Conv2dGeometry,
};
use ccq_tensor::par::with_threads;
use ccq_tensor::{rng, Init, Tensor};
use proptest::prelude::*;

/// Thread counts to compare; 1 pins the sequential code path.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Asserts `op` yields bit-identical tensors at every thread count.
fn assert_thread_invariant(op: impl Fn() -> Tensor + Sync) {
    let baseline = with_threads(1, &op);
    for &t in &THREADS[1..] {
        let out = with_threads(t, &op);
        assert_eq!(
            baseline.as_slice(),
            out.as_slice(),
            "output differs at {t} threads"
        );
        assert_eq!(baseline.shape(), out.shape());
    }
}

fn sample(shape: &[usize], seed: u64) -> Tensor {
    let mut r = rng(seed);
    Init::Uniform { lo: -2.0, hi: 2.0 }.sample(shape, &mut r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` is bit-identical across thread counts, including shapes
    /// past the parallel work threshold.
    #[test]
    fn matmul_is_thread_invariant((m, k, n) in (1usize..48, 1usize..48, 1usize..48),
                                  seed in 0u64..1000) {
        let a = sample(&[m, k], seed);
        let b = sample(&[k, n], seed.wrapping_add(1));
        assert_thread_invariant(|| matmul(&a, &b).unwrap());
    }

    /// `matmul_at_b` (AᵀB) is bit-identical across thread counts.
    #[test]
    fn matmul_at_b_is_thread_invariant((m, k, n) in (1usize..48, 1usize..48, 1usize..48),
                                       seed in 0u64..1000) {
        let a = sample(&[k, m], seed);
        let b = sample(&[k, n], seed.wrapping_add(1));
        assert_thread_invariant(|| matmul_at_b(&a, &b).unwrap());
    }

    /// `matmul_a_bt` (ABᵀ) is bit-identical across thread counts.
    #[test]
    fn matmul_a_bt_is_thread_invariant((m, k, n) in (1usize..48, 1usize..48, 1usize..48),
                                       seed in 0u64..1000) {
        let a = sample(&[m, k], seed);
        let b = sample(&[n, k], seed.wrapping_add(1));
        assert_thread_invariant(|| matmul_a_bt(&a, &b).unwrap());
    }

    /// `transpose2d` is bit-identical across thread counts.
    #[test]
    fn transpose2d_is_thread_invariant((m, n) in (1usize..70, 1usize..70),
                                       seed in 0u64..1000) {
        let a = sample(&[m, n], seed);
        assert_thread_invariant(|| transpose2d(&a).unwrap());
    }

    /// `im2col` is bit-identical across thread counts.
    #[test]
    fn im2col_is_thread_invariant((n, c, h, w) in (1usize..3, 1usize..5, 3usize..10, 3usize..10),
                                  (kernel, stride, padding) in (1usize..4, 1usize..3, 0usize..2),
                                  seed in 0u64..1000) {
        let geom = Conv2dGeometry { kernel_h: kernel, kernel_w: kernel, stride, padding };
        let input = sample(&[n, c, h, w], seed);
        assert_thread_invariant(|| im2col(&input, geom).unwrap());
    }

    /// `col2im` (the scatter-add adjoint) is bit-identical across thread
    /// counts — the strongest case, since its output elements accumulate
    /// multiple column entries.
    #[test]
    fn col2im_is_thread_invariant((n, c, h, w) in (1usize..3, 1usize..5, 3usize..10, 3usize..10),
                                  (kernel, stride, padding) in (1usize..4, 1usize..3, 0usize..2),
                                  seed in 0u64..1000) {
        let geom = Conv2dGeometry { kernel_h: kernel, kernel_w: kernel, stride, padding };
        let (oh, ow) = geom.output_hw(h, w).unwrap();
        let cols = sample(&[c * kernel * kernel, n * oh * ow], seed);
        assert_thread_invariant(|| col2im(&cols, n, c, h, w, geom).unwrap());
    }
}

/// A fixed large case well past the parallel threshold, so the chunked
/// microkernel path is exercised even if the property shapes land small.
#[test]
fn large_matmul_family_is_thread_invariant() {
    let a = sample(&[96, 64], 7);
    let b = sample(&[64, 80], 8);
    assert_thread_invariant(|| matmul(&a, &b).unwrap());
    let at = sample(&[64, 96], 9);
    assert_thread_invariant(|| matmul_at_b(&at, &b).unwrap());
    let bt = sample(&[80, 64], 10);
    assert_thread_invariant(|| matmul_a_bt(&a, &bt).unwrap());
}

/// Environment-driven thread counts behave like explicit pools: whatever
/// `RAYON_NUM_THREADS` resolves to, results match the 1-thread baseline.
#[test]
fn ambient_pool_matches_single_thread() {
    let a = sample(&[40, 33], 11);
    let b = sample(&[33, 57], 12);
    let baseline = with_threads(1, || matmul(&a, &b).unwrap());
    let ambient = matmul(&a, &b).unwrap();
    assert_eq!(baseline.as_slice(), ambient.as_slice());
}
