//! Dynamic tensor shapes.

use crate::{Result, TensorError};
use std::fmt;

/// A dynamically-sized tensor shape (list of dimension extents).
///
/// `Shape` is a thin wrapper over `Vec<usize>` adding volume/stride helpers
/// and validation. Dimension order follows the NCHW convention used across
/// the workspace: for a 4-D activation tensor the dims are
/// `[batch, channels, height, width]`.
///
/// # Example
///
/// ```
/// use ccq_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Creates a scalar (rank-0) shape with volume 1.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.dims.len(),
            })
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index` has the wrong rank or any component
    /// is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate().rev() {
            debug_assert!(ix < d, "index {ix} out of bounds for dim {i} of extent {d}");
            let _ = i;
            off += ix * stride;
            stride *= d;
        }
        off
    }

    /// Checks that `self` equals `other`, producing a descriptive error
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn expect_eq(&self, other: &Shape) -> Result<()> {
        if self == other {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch {
                expected: self.dims.clone(),
                actual: other.dims.clone(),
            })
        }
    }

    /// Checks that the shape has rank `rank`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] otherwise.
    pub fn expect_rank(&self, rank: usize) -> Result<()> {
        if self.rank() == rank {
            Ok(())
        } else {
            Err(TensorError::RankMismatch {
                expected: rank,
                actual: self.rank(),
            })
        }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[4, 3, 2]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape_has_volume_one() {
        let s = Shape::scalar();
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    fn dim_out_of_range_errors() {
        let s = Shape::new(&[2]);
        assert!(matches!(
            s.dim(1),
            Err(TensorError::AxisOutOfRange { axis: 1, rank: 1 })
        ));
    }

    #[test]
    fn expect_eq_reports_both_shapes() {
        let a = Shape::new(&[1, 2]);
        let b = Shape::new(&[2, 1]);
        let err = a.expect_eq(&b).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn zero_extent_dim_gives_zero_volume() {
        assert_eq!(Shape::new(&[3, 0, 2]).numel(), 0);
    }
}
