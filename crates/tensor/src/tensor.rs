//! The dense `f32` tensor type.

use crate::{Shape, TensorError};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::sync::Arc;

/// A dense, row-major, `f32` tensor.
///
/// This is the single numeric container used by every crate in the
/// workspace: feature maps are rank-4 `(N, C, H, W)` tensors, weight
/// matrices are rank-2, convolution filters rank-4 `(Cout, Cin, Kh, Kw)`.
///
/// Storage is reference-counted and copy-on-write: [`Clone`] shares the
/// buffer, and the ownership rule is the holder count. A tensor that is
/// the only holder of its buffer is its owner — [`Tensor::data_mut`] and
/// the in-place ops write straight through, which is how training uses
/// it. A tensor whose buffer is shared (a served replica's weights, a
/// checkpoint of a live network) copies the buffer on its first write
/// and owns the copy from then on; the other holders never observe the
/// write. Views are still explicit copies ([`Tensor::batch_item`],
/// [`Tensor::channel_plane`]), so no borrowed or raw-pointer view type
/// exists.
///
/// # Examples
///
/// ```
/// use antidote_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::full([2, 2], 0.5);
/// let c = &a * &b;
/// assert_eq!(c.data(), &[0.5, 1.0, 1.5, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Self {
            shape,
            data: Arc::new(vec![0.0; len]),
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Self {
            shape,
            data: Arc::new(vec![value; len]),
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` differs
    /// from the element count implied by `shape`, and
    /// [`TensorError::EmptyDimension`] for zero-sized dimensions.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::try_new(shape.to_vec())?;
        if shape.len() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Self {
            shape,
            data: Arc::new(data),
        })
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = Arc::new((0..shape.len()).map(&mut f).collect());
        Self { shape, data }
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Raw dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements (never true for validly
    /// constructed tensors; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage. Copies the
    /// buffer first when another tensor shares it; the uniqueness check
    /// is two atomic operations, so take the slice once outside a loop
    /// rather than per element.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its storage (a copy when the
    /// buffer is shared).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// `true` when both tensors hold the same buffer, i.e. one is an
    /// unwritten clone of the other.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data_mut()[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let new_shape = Shape::try_new(shape.to_vec())?;
        if new_shape.len() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.len(),
                to: new_shape.len(),
            });
        }
        Ok(Self {
            shape: new_shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip requires equal shapes: {} vs {}",
            self.shape, other.shape
        );
        Self {
            shape: self.shape.clone(),
            data: Arc::new(
                self.data
                    .iter()
                    .zip(other.data())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        }
    }

    /// Elementwise fused multiply-add: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape, other.shape, "axpy requires equal shapes");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for x in self.data_mut() {
            *x *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element (NaN-ignoring is *not* attempted; inputs are finite
    /// by construction).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Copies the `n`-th outermost slice (e.g. one image of a batch) into a
    /// new tensor of rank `rank - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `n` is out of bounds.
    pub fn batch_item(&self, n: usize) -> Self {
        assert!(self.shape.rank() >= 1, "batch_item requires rank >= 1");
        let outer = self.shape.dim(0);
        assert!(n < outer, "batch index {n} out of bounds for {outer}");
        let inner: usize = self.shape.dims()[1..].iter().product();
        let data = self.data[n * inner..(n + 1) * inner].to_vec();
        Self {
            shape: Shape::new(self.shape.dims()[1..].to_vec()),
            data: Arc::new(data),
        }
    }

    /// Copies channel `c` of batch item `n` from an `(N, C, H, W)` tensor
    /// into an `(H, W)` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or indices are out of bounds.
    pub fn channel_plane(&self, n: usize, c: usize) -> Self {
        let (nn, cc, h, w) = self.shape.as_nchw().expect("channel_plane requires NCHW");
        assert!(n < nn && c < cc, "index out of bounds");
        let plane = h * w;
        let start = (n * cc + c) * plane;
        Self {
            shape: Shape::new(vec![h, w]),
            data: Arc::new(self.data[start..start + plane].to_vec()),
        }
    }

    /// `true` when every element differs from `other` by at most `tol`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn allclose(&self, other: &Self, tol: f32) -> bool {
        assert_eq!(self.shape, other.shape, "allclose requires equal shapes");
        self.data
            .iter()
            .zip(other.data())
            .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Concatenates tensors along axis 0. All inputs must agree on the
    /// trailing dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if trailing dims differ, or
    /// [`TensorError::EmptyDimension`] when `parts` is empty.
    pub fn concat0(parts: &[&Tensor]) -> Result<Tensor, TensorError> {
        let first = parts.first().ok_or(TensorError::EmptyDimension)?;
        let tail = &first.dims()[1..];
        let mut total0 = 0;
        for p in parts {
            if &p.dims()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: p.dims().to_vec(),
                });
            }
            total0 += p.dims()[0];
        }
        let mut dims = vec![total0];
        dims.extend_from_slice(tail);
        let mut data = Vec::with_capacity(dims.iter().product());
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(data, &dims)
    }
}

// Hand-written because the vendored derive does not know `Arc`; the
// object layout (`shape`, then `data`) is the derive's, so checkpoint
// JSON is unchanged.
impl Serialize for Tensor {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("shape".to_string(), self.shape.serialize()),
            ("data".to_string(), self.data().serialize()),
        ])
    }
}

impl Deserialize for Tensor {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::custom("expected object for `Tensor`"))?;
        let field = |name: &str| {
            Value::field(entries, name).ok_or_else(|| DeError::missing_field(name, "Tensor"))
        };
        Ok(Self {
            shape: Shape::deserialize(field("shape")?).map_err(|e| e.at("shape"))?,
            data: Arc::new(Vec::deserialize(field("data")?).map_err(|e| e.at("data"))?),
        })
    }
}

impl Default for Tensor {
    /// A rank-0 scalar tensor holding `0.0`.
    fn default() -> Self {
        Tensor::zeros(Vec::<usize>::new())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_elementwise!(Add, add, +);
impl_elementwise!(Sub, sub, -);
impl_elementwise!(Mul, mul, *);
impl_elementwise!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Tensor> for Tensor {
    fn sub_assign(&mut self, rhs: &Tensor) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full([3], 2.0).sum(), 6.0);
        let t = Tensor::from_fn([4], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 3], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![], &[0]).is_err());
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!((&a + &b).data(), &[4.0, 6.0]);
        assert_eq!((&a - &b).data(), &[-2.0, -2.0]);
        assert_eq!((&a * &b).data(), &[3.0, 8.0]);
        assert_eq!((&b / 2.0).data(), &[1.5, 2.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.data(), &[4.0, 6.0]);
        c -= &b;
        assert!(c.allclose(&a, 1e-6));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.norm_sq() - 14.0).abs() < 1e-6);
    }

    #[test]
    fn batch_item_and_channel_plane() {
        let t = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let item = t.batch_item(1);
        assert_eq!(item.dims(), &[3, 2, 2]);
        assert_eq!(item.data()[0], 12.0);
        let plane = t.channel_plane(1, 2);
        assert_eq!(plane.dims(), &[2, 2]);
        assert_eq!(plane.data(), &[20.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    fn concat0_works() {
        let a = Tensor::from_fn([1, 2], |i| i as f32);
        let b = Tensor::from_fn([2, 2], |i| 10.0 + i as f32);
        let c = Tensor::concat0(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[0.0, 1.0, 10.0, 11.0, 12.0, 13.0]);
        let bad = Tensor::zeros([1, 3]);
        assert!(Tensor::concat0(&[&a, &bad]).is_err());
        assert!(Tensor::concat0(&[]).is_err());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::full([3], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.0, 2.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "zip requires equal shapes")]
    fn zip_shape_mismatch_panics() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        let _ = a.zip(&b, |x, y| x + y);
    }
}
