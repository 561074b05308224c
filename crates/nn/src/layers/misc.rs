//! Shape adapters: flatten.

use crate::{Layer, Mode};
use antidote_tensor::Tensor;

/// Flattens `(N, …)` to `(N, prod(…))` for the classifier head.
///
/// # Examples
///
/// ```
/// use antidote_nn::{layers::Flatten, Layer, Mode};
/// use antidote_tensor::Tensor;
///
/// let mut f = Flatten::new();
/// let y = f.forward(&Tensor::zeros([2, 8, 4, 4]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 128]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let dims = input.dims();
        assert!(!dims.is_empty(), "Flatten requires rank >= 1");
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        if mode.is_train() {
            self.input_dims = Some(dims.to_vec());
        }
        input
            .reshape(&[n, rest])
            .expect("flatten reshape preserves element count")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("Flatten::backward called without forward(Train)");
        grad_out
            .reshape(&dims)
            .expect("flatten backward reshape preserves element count")
    }

    fn describe(&self) -> String {
        "flatten".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_round_trip() {
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let mut f = Flatten::new();
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), x.dims());
        assert_eq!(g.data(), x.data());
    }
}
