//! Fully connected layer.

use crate::{Layer, Mode, Parameter};
use antidote_tensor::linalg::{matmul_a_bt, matmul_at_b, matmul_into};
use antidote_tensor::reduce::sum_rows;
use antidote_tensor::{init, Tensor};
use rand::Rng;

/// A fully connected layer `y = x · Wᵀ + b` over `(N, In)` inputs.
///
/// # Examples
///
/// ```
/// use antidote_nn::{layers::Linear, Layer, Mode};
/// use antidote_tensor::Tensor;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut fc = Linear::new(&mut rng, 32, 10);
/// let y = fc.forward(&Tensor::zeros([4, 32]), Mode::Eval);
/// assert_eq!(y.dims(), &[4, 10]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Parameter, // (Out, In)
    bias: Parameter,   // (Out,)
    in_features: usize,
    out_features: usize,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Self {
            weight: Parameter::new(init::kaiming_normal(rng, &[out_features, in_features])),
            bias: Parameter::new(Tensor::zeros([out_features])),
            in_features,
            out_features,
            cache: None,
        }
    }

    /// Builds a layer from explicit weights (tests, pruning surgery).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        let (out_features, in_features) =
            weight.shape().as_matrix().expect("weight must be (Out,In)");
        assert_eq!(bias.dims(), &[out_features], "bias must be (Out,)");
        Self {
            weight: Parameter::new(weight),
            bias: Parameter::new(bias),
            in_features,
            out_features,
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Parameter {
        &mut self.weight
    }

    /// Immutable access to the bias parameter.
    pub fn bias(&self) -> &Parameter {
        &self.bias
    }

    /// Multiply–accumulate count per input row.
    pub fn macs(&self) -> u64 {
        (self.in_features * self.out_features) as u64
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let _span = antidote_obs::span("nn.linear.forward");
        let (n, d) = input
            .shape()
            .as_matrix()
            .expect("Linear expects (N, In) input");
        assert_eq!(
            d, self.in_features,
            "Linear configured for {} features, got {d}",
            self.in_features
        );
        // y (N,Out) = x (N,In) · Wᵀ (In,Out)
        let mut out = Tensor::zeros([n, self.out_features]);
        matmul_a_bt(
            input.data(),
            self.weight.value.data(),
            out.data_mut(),
            n,
            d,
            self.out_features,
        );
        let b = self.bias.value.data();
        for row in 0..n {
            let o = &mut out.data_mut()[row * self.out_features..(row + 1) * self.out_features];
            for (v, &bi) in o.iter_mut().zip(b) {
                *v += bi;
            }
        }
        self.cache = mode.is_train().then(|| input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _span = antidote_obs::span("nn.linear.backward");
        let x = self
            .cache
            .take()
            .expect("Linear::backward called without forward(Train)");
        let (n, _) = grad_out.shape().as_matrix().expect("grad_out rank 2");
        // dW (Out,In) += dYᵀ (Out,N) · x (N,In)
        matmul_at_b(
            grad_out.data(),
            x.data(),
            self.weight.grad.data_mut(),
            n,
            self.out_features,
            self.in_features,
        );
        // db += rowsum(dY)
        self.bias.grad += &sum_rows(grad_out);
        // dX (N,In) = dY (N,Out) · W (Out,In)
        let mut grad_in = Tensor::zeros([n, self.in_features]);
        matmul_into(
            grad_out.data(),
            self.weight.value.data(),
            grad_in.data_mut(),
            n,
            self.out_features,
            self.in_features,
        );
        grad_in
    }

    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!("linear({}->{})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forward_known_values() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let mut fc = Linear::from_parts(w, b);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]).unwrap();
        let y = fc.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[6.5, 14.5]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut fc = Linear::new(&mut rng, 4, 3);
        let x = init::uniform(&mut rng, &[2, 4], -1.0, 1.0);
        let y = fc.forward(&x, Mode::Train);
        let grad_in = fc.backward(&Tensor::ones(y.dims().to_vec()));

        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num =
                (fc.forward(&xp, Mode::Eval).sum() - fc.forward(&xm, Mode::Eval).sum()) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "dX mismatch at {i}"
            );
        }
        let wg = fc.weight().grad.clone();
        for i in 0..wg.len() {
            let orig = fc.weight().value.data()[i];
            fc.weight_mut().value.data_mut()[i] = orig + eps;
            let fp = fc.forward(&x, Mode::Eval).sum();
            fc.weight_mut().value.data_mut()[i] = orig - eps;
            let fm = fc.forward(&x, Mode::Eval).sum();
            fc.weight_mut().value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - wg.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "dW mismatch at {i}"
            );
        }
    }

    #[test]
    fn bias_grad_equals_batch_size() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut fc = Linear::new(&mut rng, 2, 2);
        let x = Tensor::zeros([3, 2]);
        let y = fc.forward(&x, Mode::Train);
        fc.backward(&Tensor::ones(y.dims().to_vec()));
        assert_eq!(fc.bias().grad.data(), &[3.0, 3.0]);
    }

    #[test]
    fn macs_count() {
        let mut rng = SmallRng::seed_from_u64(7);
        let fc = Linear::new(&mut rng, 512, 10);
        assert_eq!(fc.macs(), 5120);
    }
}
