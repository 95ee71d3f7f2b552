//! The dense `f32` tensor type.

use crate::{Result, Shape, TensorError};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor with dynamic shape.
///
/// This is the single numeric container used across the CCQ workspace:
/// network weights, activations, and gradients are all `Tensor`s. The layout
/// convention is NCHW for activations and `[out_ch, in_ch, kh, kw]` for
/// convolution weights.
///
/// Checked operations return [`Result`]; the `std::ops` arithmetic
/// implementations panic on shape mismatch (documented per-impl) so that
/// numeric code stays readable once shapes are known correct.
///
/// # Example
///
/// ```
/// use ccq_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 2], 3.0);
/// let y = x.map(|v| v * 2.0);
/// assert_eq!(y.as_slice(), &[6.0, 6.0, 6.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// The tensor shape as a dimension slice.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The tensor shape object (for stride/offset helpers).
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the index is out of bounds or of the
    /// wrong rank.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the index is out of bounds or of the
    /// wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Reshapes in place (no copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<()> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.shape.expect_eq(&other.shape)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Adds `other` into `self` elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.shape.expect_eq(&other.shape)?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Adds `scale * other` into `self` elementwise (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        self.shape.expect_eq(&other.shape)?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_in_place(&mut self, scale: f32) {
        for v in &mut self.data {
            *v *= scale;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value of any element (0 for an empty tensor).
    /// NaN elements are skipped.
    ///
    /// The fold keeps thirty-two independent running maxima and updates
    /// them with a plain comparison, which compiles to one vector max
    /// per eight elements; `f32::max` adds NaN handling to every step.
    /// A running maximum is never NaN (a NaN element fails the
    /// comparison), every operand is non-negative, and the maximum of
    /// such a set does not depend on the order it is taken in, so the
    /// result is the same bits as the serial `f32::max` fold.
    pub fn max_abs(&self) -> f32 {
        const LANES: usize = 32;
        let mut lanes = [0.0f32; LANES];
        let chunks = self.data.chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (m, &v) in lanes.iter_mut().zip(chunk) {
                let a = v.abs();
                *m = if a > *m { a } else { *m };
            }
        }
        let m = tail.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        lanes.iter().fold(m, |m, &l| m.max(l))
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Mean of `|x|` over all elements (0 for an empty tensor). Used by
    /// DoReFa/SAWB-style scale estimation.
    pub fn mean_abs(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().map(|v| v.abs()).sum::<f32>() / self.data.len() as f32
        }
    }

    /// Standard deviation (population) of all elements.
    pub fn std(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .data
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / self.data.len() as f32;
        var.sqrt()
    }

    /// Dot product with another same-shaped tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.shape.expect_eq(&other.shape)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Index of the maximum element in the flattened tensor (first on ties).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Whether all elements are finite (no NaN/inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ..., {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        /// Elementwise arithmetic on tensor references.
        ///
        /// # Panics
        ///
        /// Panics when the operand shapes differ; use [`Tensor::zip_map`]
        /// for a checked variant.
        impl std::ops::$trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_map(rhs, |a, b| a $op b)
                    // ccq-lint: allow(panic-surface) — documented panicking operator; zip_map is the checked twin
                    .unwrap_or_else(|e| panic!("tensor {}: {e}", stringify!($method)))
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);

/// Scalar multiplication.
impl std::ops::Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|v| v * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[3]).as_slice(), &[0.0; 3]);
        assert_eq!(Tensor::ones(&[2]).as_slice(), &[1.0; 2]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5; 2]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 2]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.at(&[1, 0]), 3.0);
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn at_and_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.mean_abs(), 2.5);
        assert_eq!(t.argmax(), Some(3));
    }

    #[test]
    fn norm_and_dot() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((a.norm_l2() - 5.0).abs() < 1e-6);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 11.0);
        assert!(a.dot(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn std_of_constant_is_zero() {
        assert_eq!(Tensor::full(&[10], 2.0).std(), 0.0);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::ones(&[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[1.5, 2.0]);
    }

    #[test]
    fn binops_work_elementwise() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * &b).as_slice(), &[3.0, 10.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn binop_panics_on_mismatch() {
        let _ = &Tensor::zeros(&[2]) + &Tensor::zeros(&[3]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn argmax_empty_is_none() {
        assert_eq!(Tensor::zeros(&[0]).argmax(), None);
    }

    #[test]
    fn display_truncates_long_tensors() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains("..."));
    }
}
