//! Shape arithmetic shared by all tensor operations.

use crate::TensorError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a [`crate::Tensor`], outermost first.
///
/// A `Shape` is an inexpensive wrapper over a `Vec<usize>` providing the
/// index arithmetic (row-major flat offsets) used throughout the
/// crate. Feature maps follow the `(N, C, H, W)` convention of the paper.
///
/// # Examples
///
/// ```
/// use antidote_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4, 4]);
/// assert_eq!(s.len(), 96);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; use [`Shape::try_new`] for a
    /// fallible variant.
    pub fn new(dims: Vec<usize>) -> Self {
        Self::try_new(dims).expect("dimension of size zero")
    }

    /// Fallible constructor; rejects zero-sized dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if any dimension is zero.
    pub fn try_new(dims: Vec<usize>) -> Result<Self, TensorError> {
        if dims.contains(&0) {
            return Err(TensorError::EmptyDimension);
        }
        Ok(Self { dims })
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// `true` only for the rank-0 scalar shape (which still holds 1 value);
    /// provided for API completeness alongside [`Shape::len`].
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The raw dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Dimension at `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds (debug assertions only for the coordinate check in release
    /// hot paths is deliberately *not* done here: this is a safe API).
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..self.rank()).rev() {
            assert!(
                index[axis] < self.dims[axis],
                "index {} out of bounds for axis {} of size {}",
                index[axis],
                axis,
                self.dims[axis]
            );
            off += index[axis] * stride;
            stride *= self.dims[axis];
        }
        off
    }

    /// Interprets this shape as a 4-D `(N, C, H, W)` feature-map shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the rank is not 4.
    pub fn as_nchw(&self) -> Result<(usize, usize, usize, usize), TensorError> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        Ok((self.dims[0], self.dims[1], self.dims[2], self.dims[3]))
    }

    /// Interprets this shape as a 2-D `(rows, cols)` matrix shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the rank is not 2.
    pub fn as_matrix(&self) -> Result<(usize, usize), TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        Ok((self.dims[0], self.dims[1]))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        let mut seen = vec![false; s.len()];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]);
                    assert!(!seen[off], "duplicate offset");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn zero_dim_rejected() {
        assert_eq!(
            Shape::try_new(vec![2, 0, 3]).unwrap_err(),
            TensorError::EmptyDimension
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_bounds_checked() {
        Shape::new(vec![2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn nchw_accessor() {
        let s = Shape::new(vec![1, 3, 8, 8]);
        assert_eq!(s.as_nchw().unwrap(), (1, 3, 8, 8));
        assert!(Shape::new(vec![3, 8]).as_nchw().is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "(2x3)");
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn from_array_and_slice() {
        let a: Shape = [2, 3].into();
        let b: Shape = vec![2usize, 3].into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), &[2, 3]);
    }
}
