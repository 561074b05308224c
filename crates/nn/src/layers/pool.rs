//! Spatial pooling layers: max, average, and global average.

use crate::{Layer, Mode};
use antidote_tensor::Tensor;

/// Non-overlapping 2-D max pooling (`window × window`, stride = window) —
/// the VGG-style `2x2` reduction.
///
/// # Examples
///
/// ```
/// use antidote_nn::{layers::MaxPool2d, Layer, Mode};
/// use antidote_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2);
/// let y = pool.forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 3, 4, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    /// Flat source index of each output element's argmax (training only).
    argmax: Option<Vec<usize>>,
    input_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given square window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            argmax: None,
            input_dims: None,
        }
    }

    /// Pooling window side.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw().expect("MaxPool2d expects NCHW");
        let k = self.window;
        assert!(
            h % k == 0 && w % k == 0,
            "pooling window {k} must divide spatial dims {h}x{w}"
        );
        let (ho, wo) = (h / k, w / k);
        let mut out = Tensor::zeros([n, c, ho, wo]);
        let mut argmax = vec![0usize; out.len()];
        let src = input.data();
        let dst = out.data_mut();
        for nc in 0..n * c {
            let plane = &src[nc * h * w..(nc + 1) * h * w];
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..k {
                        for dx in 0..k {
                            let idx = (oy * k + dy) * w + (ox * k + dx);
                            if plane[idx] > best {
                                best = plane[idx];
                                best_idx = nc * h * w + idx;
                            }
                        }
                    }
                    let o = nc * ho * wo + oy * wo + ox;
                    dst[o] = best;
                    argmax[o] = best_idx;
                }
            }
        }
        if mode.is_train() {
            self.argmax = Some(argmax);
            self.input_dims = Some(input.dims().to_vec());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .take()
            .expect("MaxPool2d::backward called without forward(Train)");
        let dims = self.input_dims.take().expect("input dims cached");
        let mut grad_in = Tensor::zeros(dims);
        let gi = grad_in.data_mut();
        for (o, &src_idx) in argmax.iter().enumerate() {
            gi[src_idx] += grad_out.data()[o];
        }
        grad_in
    }

    fn describe(&self) -> String {
        format!("maxpool{k}x{k}", k = self.window)
    }
}

/// Non-overlapping 2-D average pooling (`window × window`, stride =
/// window).
#[derive(Debug)]
pub struct AvgPool2d {
    window: usize,
    input_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with the given square window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            input_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw().expect("AvgPool2d expects NCHW");
        let k = self.window;
        assert!(
            h % k == 0 && w % k == 0,
            "pooling window {k} must divide spatial dims {h}x{w}"
        );
        let (ho, wo) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut out = Tensor::zeros([n, c, ho, wo]);
        let src = input.data();
        let dst = out.data_mut();
        for nc in 0..n * c {
            let plane = &src[nc * h * w..(nc + 1) * h * w];
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0;
                    for dy in 0..k {
                        for dx in 0..k {
                            acc += plane[(oy * k + dy) * w + (ox * k + dx)];
                        }
                    }
                    dst[nc * ho * wo + oy * wo + ox] = acc * inv;
                }
            }
        }
        if mode.is_train() {
            self.input_dims = Some(input.dims().to_vec());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("AvgPool2d::backward called without forward(Train)");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.window;
        let (ho, wo) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut grad_in = Tensor::zeros(dims);
        let gi = grad_in.data_mut();
        for nc in 0..n * c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = grad_out.data()[nc * ho * wo + oy * wo + ox] * inv;
                    for dy in 0..k {
                        for dx in 0..k {
                            gi[nc * h * w + (oy * k + dy) * w + (ox * k + dx)] += g;
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn describe(&self) -> String {
        format!("avgpool{k}x{k}", k = self.window)
    }
}

/// Global average pooling `(N, C, H, W) → (N, C)` — the classifier head
/// reduction used by ResNet.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = antidote_tensor::reduce::spatial_mean_per_channel(input);
        if mode.is_train() {
            self.input_dims = Some(input.dims().to_vec());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("GlobalAvgPool::backward called without forward(Train)");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut grad_in = Tensor::zeros(dims);
        let gi = grad_in.data_mut();
        for nc in 0..n * c {
            let g = grad_out.data()[nc] * inv;
            gi[nc * h * w..(nc + 1) * h * w].fill(g);
        }
        grad_in
    }

    fn describe(&self) -> String {
        "globalavgpool".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_known() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut p = MaxPool2d::new(2);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let mut p = MaxPool2d::new(2);
        p.forward(&x, Mode::Train);
        let g = p.backward(&Tensor::full([1, 1, 1, 1], 7.0));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn avgpool_forward_backward() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let mut p = AvgPool2d::new(2);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[4.0]);
        let g = p.backward(&Tensor::full([1, 1, 1, 1], 4.0));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let mut p = GlobalAvgPool::new();
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.at(&[0, 0]), 1.5);
        let g = p.backward(&Tensor::ones([2, 3]));
        assert_eq!(g.dims(), &[2, 3, 2, 2]);
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
        // gradient mass is conserved
        assert!((g.sum() - 6.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn pool_window_must_divide() {
        let mut p = MaxPool2d::new(3);
        p.forward(&Tensor::zeros([1, 1, 4, 4]), Mode::Eval);
    }

    #[test]
    fn maxpool_ties_first_wins_and_grad_not_duplicated() {
        let x = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0], &[1, 1, 2, 2]).unwrap();
        let mut p = MaxPool2d::new(2);
        p.forward(&x, Mode::Train);
        let g = p.backward(&Tensor::ones([1, 1, 1, 1]));
        assert_eq!(g.sum(), 1.0);
    }
}
