//! Activation layers (ReLU).

use crate::{Layer, Mode};
use antidote_tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)`.
///
/// # Examples
///
/// ```
/// use antidote_nn::{layers::Relu, Layer, Mode};
/// use antidote_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2])?;
/// assert_eq!(relu.forward(&x, Mode::Eval).data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.is_train() {
            self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("Relu::backward called without forward(Train)");
        assert_eq!(mask.len(), grad_out.len(), "grad shape mismatch");
        let mut g = grad_out.clone();
        for (v, keep) in g.data_mut().iter_mut().zip(mask) {
            if !keep {
                *v = 0.0;
            }
        }
        g
    }

    fn describe(&self) -> String {
        "relu".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.0, 0.5, 3.0], &[4]).unwrap();
        assert_eq!(r.forward(&x, Mode::Eval).data(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 1.0, -3.0, 2.0], &[4]).unwrap();
        r.forward(&x, Mode::Train);
        let g = r.backward(&Tensor::full([4], 5.0));
        assert_eq!(g.data(), &[0.0, 5.0, 0.0, 5.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient choice at x == 0 is 0 (strict x > 0 gate).
        let mut r = Relu::new();
        let x = Tensor::zeros([2]);
        r.forward(&x, Mode::Train);
        assert_eq!(r.backward(&Tensor::ones([2])).data(), &[0.0, 0.0]);
    }

    #[test]
    fn no_params() {
        let mut r = Relu::new();
        assert_eq!(r.param_count(), 0);
    }
}
