//! Shape adapters and stochastic regularizers: flatten and standard
//! (untargeted) dropout.
//!
//! The paper's *targeted* dropout (Sec. IV) lives in `antidote-core`; the
//! plain inverted dropout here exists so experiments can compare targeted
//! vs. conventional dropout.

use crate::{Layer, Mode};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Conventional inverted dropout: each element is zeroed with probability
/// `p` during training and the survivors are scaled by `1/(1-p)`; identity
/// at inference.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: SmallRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        Self {
            p,
            rng: SmallRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if !mode.is_train() || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = input.clone();
        for (v, &m) in out.data_mut().iter_mut().zip(&mask) {
            *v *= m;
        }
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            None => grad_out.clone(),
            Some(mask) => {
                let mut g = grad_out.clone();
                for (v, &m) in g.data_mut().iter_mut().zip(&mask) {
                    *v *= m;
                }
                g
            }
        }
    }

    fn describe(&self) -> String {
        format!("dropout(p={})", self.p)
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

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones([100]);
        assert_eq!(d.forward(&x, Mode::Eval).data(), x.data());
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones([20000]);
        let y = d.forward(&x, Mode::Train);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean={}", y.mean());
        // Survivors are scaled by 1/(1-p).
        let nonzero = y.data().iter().filter(|&&v| v != 0.0).count();
        let frac = nonzero as f32 / y.len() as f32;
        assert!((frac - 0.7).abs() < 0.02);
    }

    #[test]
    fn dropout_backward_matches_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones([64]);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::ones([64]));
        // Gradient flows exactly where activations flowed.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(yv, gv);
        }
    }

    #[test]
    fn zero_probability_is_noop() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_fn([16], |i| i as f32);
        assert_eq!(d.forward(&x, Mode::Train).data(), x.data());
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn invalid_probability_panics() {
        Dropout::new(1.0, 0);
    }
}
