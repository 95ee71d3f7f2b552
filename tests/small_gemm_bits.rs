//! The three f32 products equal a naive ascending-`p` sum bit for bit on
//! every shape up to 17×17×17, all of which fall below the packed path's
//! size threshold: the 8-, 4- and 1-wide column blocks, the row tails
//! and the empty dimensions are all covered. Each output element is
//! `((+0.0 + a₀b₀) + a₁b₁) + …` in that order, so reordering the sum, or
//! starting it from anything but `+0.0`, shows as a changed bit. The
//! data are random values salted with `±0.0` and subnormals.
//!
//! `matmul_at_b` leaves out the products of a zero `A` entry: its second
//! pass puts `±inf` and NaN into `B`, where `0 · inf` would turn a finite
//! output into NaN. `matmul` and `matmul_a_bt` skip nothing, and their
//! passes with the same `B` pin that too. Any NaN equals any NaN here:
//! Rust does not specify NaN payloads.

use ccq_tensor::ops::{matmul, matmul_a_bt, matmul_at_b};
use ccq_tensor::Tensor;

/// Largest `m`, `k` and `n` tried.
const MAX_DIM: usize = 17;

/// A xorshift64* stream of test values.
struct Values(u64);

impl Values {
    fn bits(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Mostly values of either sign with a full mantissa and a
    /// magnitude in `[2⁻⁴, 2⁵)`; one in eight is `±0.0` and one in
    /// sixteen a subnormal of either sign.
    fn finite(&mut self) -> f32 {
        let r = self.bits();
        let sign = ((r >> 63) as u32) << 31;
        let mantissa = (r >> 8) as u32 & 0x007f_ffff;
        let exponent = 123 + (r >> 40) as u32 % 9;
        match r % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(sign | mantissa | 1),
            _ => f32::from_bits(sign | exponent << 23 | mantissa),
        }
    }

    /// As [`Values::finite`], with one in eight `+inf`, `-inf` or NaN.
    fn with_specials(&mut self) -> f32 {
        match self.bits() % 24 {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => f32::NAN,
            _ => self.finite(),
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize, f: fn(&mut Self) -> f32) -> Tensor {
        Tensor::from_fn(&[rows, cols], |_| f(self))
    }
}

/// `C[i, j] = Σ_p A(i, p)·B(p, j)` summed from `+0.0` over ascending
/// `p`, with `A(i, p)` and `B(p, j)` read through the given closures;
/// `skip_zero` leaves out the products of a zero `A(i, p)`.
fn naive(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    skip_zero: bool,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let x = a(i, p);
                if skip_zero && x == 0.0 {
                    continue;
                }
                acc += x * b(p, j);
            }
            out.push(acc);
        }
    }
    out
}

fn assert_same_bits(got: &Tensor, want: &[f32], what: &str, (m, k, n): (usize, usize, usize)) {
    assert_eq!(got.shape(), &[m, n], "{what} shape at m={m} k={k} n={n}");
    for (e, (&x, &y)) in got.as_slice().iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what} at m={m} k={k} n={n}, element ({}, {}): {x:e} ({:#010x}) vs naive {y:e} ({:#010x})",
            e / n,
            e % n,
            x.to_bits(),
            y.to_bits()
        );
    }
}

fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    (0..=MAX_DIM)
        .flat_map(|m| (0..=MAX_DIM).flat_map(move |k| (0..=MAX_DIM).map(move |n| (m, k, n))))
}

#[test]
fn matmul_equals_the_naive_sum_on_every_small_shape() {
    let mut v = Values(0x9e37_79b9_7f4a_7c15);
    for dims @ (m, k, n) in shapes() {
        let a = v.matrix(m, k, Values::finite);
        for b in [
            v.matrix(k, n, Values::finite),
            v.matrix(k, n, Values::with_specials),
        ] {
            let want = naive(dims, |i, p| a.at(&[i, p]), |p, j| b.at(&[p, j]), false);
            assert_same_bits(&matmul(&a, &b).unwrap(), &want, "matmul", dims);
        }
    }
}

#[test]
fn matmul_a_bt_equals_the_naive_sum_on_every_small_shape() {
    let mut v = Values(0x6a09_e667_f3bc_c908);
    for dims @ (m, k, n) in shapes() {
        let a = v.matrix(m, k, Values::finite);
        for b in [
            v.matrix(n, k, Values::finite),
            v.matrix(n, k, Values::with_specials),
        ] {
            let want = naive(dims, |i, p| a.at(&[i, p]), |p, j| b.at(&[j, p]), false);
            assert_same_bits(&matmul_a_bt(&a, &b).unwrap(), &want, "matmul_a_bt", dims);
        }
    }
}

#[test]
fn matmul_at_b_equals_the_naive_sum_and_skips_zero_a_entries() {
    let mut v = Values(0xbb67_ae85_84ca_a73b);
    let mut skips_seen = 0usize;
    for dims @ (m, k, n) in shapes() {
        let a = v.matrix(k, m, Values::finite);
        let b = v.matrix(k, n, Values::finite);
        let want = naive(dims, |i, p| a.at(&[p, i]), |p, j| b.at(&[p, j]), true);
        assert_same_bits(&matmul_at_b(&a, &b).unwrap(), &want, "matmul_at_b", dims);

        let b = v.matrix(k, n, Values::with_specials);
        let want = naive(dims, |i, p| a.at(&[p, i]), |p, j| b.at(&[p, j]), true);
        let unskipped = naive(dims, |i, p| a.at(&[p, i]), |p, j| b.at(&[p, j]), false);
        skips_seen += (want.iter().zip(&unskipped))
            .filter(|(w, u)| !w.is_nan() && u.is_nan())
            .count();
        assert_same_bits(
            &matmul_at_b(&a, &b).unwrap(),
            &want,
            "matmul_at_b (inf/NaN in B)",
            dims,
        );
    }
    assert!(
        skips_seen > 1000,
        "only {skips_seen} outputs depend on the zero skip; the data do not pin it"
    );
}
