//! Per-channel batch normalization for `(N, C, H, W)` feature maps.

use crate::{Layer, Mode, Parameter};
use antidote_tensor::Tensor;

/// 2-D batch normalization (per channel, over `N·H·W`), with learned
/// scale/shift and running statistics for inference — required for stable
/// ResNet training.
///
/// # Examples
///
/// ```
/// use antidote_nn::{layers::BatchNorm2d, Layer, Mode};
/// use antidote_tensor::Tensor;
///
/// let mut bn = BatchNorm2d::new(8);
/// let y = bn.forward(&Tensor::zeros([2, 8, 4, 4]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 8, 4, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature channels with the
    /// conventional defaults (`momentum = 0.1`, `eps = 1e-5`).
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Parameter::new(Tensor::ones([channels])),
            beta: Parameter::new(Tensor::zeros([channels])),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// Builds a batch-norm layer from explicit statistics and affine
    /// parameters (used by filter-surgery when shrinking networks).
    ///
    /// # Panics
    ///
    /// Panics if the four tensors are not equal-length rank-1 tensors.
    pub fn from_parts(
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
    ) -> Self {
        let channels = gamma.len();
        assert_eq!(gamma.dims(), &[channels], "gamma must be rank 1");
        assert_eq!(beta.dims(), &[channels], "beta shape mismatch");
        assert_eq!(running_mean.dims(), &[channels], "mean shape mismatch");
        assert_eq!(running_var.dims(), &[channels], "var shape mismatch");
        Self {
            gamma: Parameter::new(gamma),
            beta: Parameter::new(beta),
            running_mean,
            running_var,
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Learned per-channel scale.
    pub fn gamma(&self) -> &Parameter {
        &self.gamma
    }

    /// Learned per-channel shift.
    pub fn beta(&self) -> &Parameter {
        &self.beta
    }

    /// Running mean (inference statistic).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance (inference statistic).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let _span = antidote_obs::span("nn.batchnorm.forward");
        let (n, c, h, w) = input.shape().as_nchw().expect("BatchNorm2d expects NCHW");
        assert_eq!(c, self.channels, "channel mismatch");
        let plane = h * w;
        let count = (n * plane) as f32;
        let src = input.data();
        let mut out = Tensor::zeros(input.dims().to_vec());

        let (mean, var): (Vec<f32>, Vec<f32>) = if mode.is_train() {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for (ci, m) in mean.iter_mut().enumerate() {
                let mut acc = 0.0;
                for ni in 0..n {
                    let s = (ni * c + ci) * plane;
                    acc += src[s..s + plane].iter().sum::<f32>();
                }
                *m = acc / count;
            }
            for (ci, (&m, v)) in mean.iter().zip(var.iter_mut()).enumerate() {
                let mut acc = 0.0;
                for ni in 0..n {
                    let s = (ni * c + ci) * plane;
                    acc += src[s..s + plane].iter().map(|&x| (x - m) * (x - m)).sum::<f32>();
                }
                *v = acc / count;
            }
            // Update running stats.
            for ci in 0..c {
                let rm = self.running_mean.data_mut();
                rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci];
                let rv = self.running_var.data_mut();
                rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var[ci];
            }
            (mean, var)
        } else {
            (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            )
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        let mut x_hat = Tensor::zeros(input.dims().to_vec());
        {
            let xh = x_hat.data_mut();
            let dst = out.data_mut();
            for ni in 0..n {
                for ci in 0..c {
                    let s = (ni * c + ci) * plane;
                    let (m, is, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                    for p in 0..plane {
                        let xn = (src[s + p] - m) * is;
                        xh[s + p] = xn;
                        dst[s + p] = g * xn + b;
                    }
                }
            }
        }
        if mode.is_train() {
            self.cache = Some(BnCache {
                x_hat,
                inv_std,
                dims: input.dims().to_vec(),
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _span = antidote_obs::span("nn.batchnorm.backward");
        let cache = self
            .cache
            .take()
            .expect("BatchNorm2d::backward called without forward(Train)");
        let dims = cache.dims;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let go = grad_out.data();
        let xh = cache.x_hat.data();
        let gamma = self.gamma.value.data().to_vec();

        // Per-channel reductions.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let s = (ni * c + ci) * plane;
                for p in 0..plane {
                    sum_dy[ci] += go[s + p];
                    sum_dy_xhat[ci] += go[s + p] * xh[s + p];
                }
            }
        }
        for (g, s) in self.gamma.grad.data_mut().iter_mut().zip(&sum_dy_xhat) {
            *g += s;
        }
        for (g, s) in self.beta.grad.data_mut().iter_mut().zip(&sum_dy) {
            *g += s;
        }
        // dx = (gamma * inv_std / m) * (m*dy - sum_dy - x_hat * sum_dy_xhat)
        let mut grad_in = Tensor::zeros(dims);
        let gi = grad_in.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let s = (ni * c + ci) * plane;
                let k = gamma[ci] * cache.inv_std[ci] / count;
                for p in 0..plane {
                    gi[s + p] =
                        k * (count * go[s + p] - sum_dy[ci] - xh[s + p] * sum_dy_xhat[ci]);
                }
            }
        }
        grad_in
    }

    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }

    fn describe(&self) -> String {
        format!("batchnorm({})", self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_tensor::init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = SmallRng::seed_from_u64(1);
        let x = init::normal(&mut rng, &[4, 3, 5, 5], 3.0, 2.0);
        let mut bn = BatchNorm2d::new(3);
        let y = bn.forward(&x, Mode::Train);
        // Each channel of y should be ~N(0,1).
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..4 {
                vals.extend_from_slice(y.channel_plane(n, c).data());
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean={mean}");
            assert!((var - 1.0).abs() < 1e-2, "var={var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(2);
        let x = init::normal(&mut rng, &[8, 2, 4, 4], 5.0, 1.0);
        for _ in 0..50 {
            bn.forward(&x, Mode::Train);
        }
        assert!((bn.running_mean().data()[0] - 5.0).abs() < 0.3);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full([1, 1, 2, 2], 3.0);
        // With default running stats (mean 0, var 1): y = gamma*(x-0)/1 + 0 = x
        let y = bn.forward(&x, Mode::Eval);
        assert!(y.allclose(&x, 1e-4));
    }

    #[test]
    fn gradient_check() {
        let mut rng = SmallRng::seed_from_u64(3);
        let x = init::uniform(&mut rng, &[2, 2, 3, 3], -1.0, 1.0);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial loss: sum(y * z) for fixed random z.
        let z = init::uniform(&mut rng, &[2, 2, 3, 3], -1.0, 1.0);
        let y = bn.forward(&x, Mode::Train);
        let _ = y; // analytic grad of sum(y*z) w.r.t y is z
        let grad_in = bn.backward(&z);

        let eps = 1e-2f32;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            // forward in Train to use batch stats, but avoid polluting
            // running stats asymmetrically (same input both sides).
            let y = bn.forward(x, Mode::Train);
            y.data().iter().zip(z.data()).map(|(a, b)| a * b).sum()
        };
        for &i in &[0usize, 7, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            let ana = grad_in.data()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "dx mismatch at {i}: num={num} ana={ana}"
            );
        }
    }

    #[test]
    fn param_count() {
        let mut bn = BatchNorm2d::new(16);
        assert_eq!(bn.param_count(), 32);
    }
}
