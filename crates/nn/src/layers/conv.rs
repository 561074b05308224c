//! 2-D convolution layer (im2col + GEMM, full backward pass).
//!
//! Both passes are **batch-parallel** over the `antidote_par` pool (each
//! batch item's im2col/GEMM is independent), and both are bit-exact
//! across thread budgets: forward items own disjoint output slices, and
//! backward reduces per-part weight/bias gradient partials in a fixed
//! item order over a partition that depends only on the batch size (see
//! [`GRAD_PARTIAL_PARTS`]).

use crate::{Layer, Mode, Parameter};
use antidote_tensor::conv::{col2im, im2col, ConvGeometry};
use antidote_tensor::linalg::{matmul_a_bt, matmul_at_b, matmul_into};
use antidote_tensor::{init, Tensor};
use rand::Rng;

/// Upper bound on backward's gradient-partial buffers (one
/// `(Cout·Cin·K·K)` scratch each). The batch partition this induces is a
/// function of the batch size alone — never of `ANTIDOTE_THREADS` — so
/// the partial reduction `grad += part₀; grad += part₁; …` performs the
/// identical floating-point additions at every thread budget, keeping
/// `backward` bit-exact from sequential to fully parallel. It also caps
/// backward's extra memory at 8 weight-tensor clones regardless of batch
/// size.
const GRAD_PARTIAL_PARTS: usize = 8;

/// A 2-D convolution with square kernels, symmetric zero padding and bias.
///
/// Forward lowers each batch item to a column matrix
/// ([`antidote_tensor::conv::im2col`]) and multiplies by the
/// `(Cout, Cin·K·K)` weight matrix; backward reuses the cached columns.
///
/// # Examples
///
/// ```
/// use antidote_nn::{layers::Conv2d, Layer, Mode};
/// use antidote_tensor::Tensor;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1);
/// let x = Tensor::zeros([2, 3, 16, 16]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Parameter,
    bias: Parameter,
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    /// im2col matrices, one `(Cin·K·K, Hout·Wout)` buffer per batch item.
    cols: Vec<Vec<f32>>,
    input_hw: (usize, usize),
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized weights and zero
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let geom = ConvGeometry::new(kernel, stride, padding);
        let weight = Parameter::new(init::kaiming_normal(
            rng,
            &[out_channels, in_channels, kernel, kernel],
        ));
        let bias = Parameter::new(Tensor::zeros([out_channels]));
        Self {
            weight,
            bias,
            in_channels,
            out_channels,
            geom,
            cache: None,
        }
    }

    /// Builds a convolution from explicit weights (used by tests and by
    /// the static-pruning baselines when shrinking filters).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn from_parts(weight: Tensor, bias: Tensor, stride: usize, padding: usize) -> Self {
        let dims = weight.dims().to_vec();
        assert_eq!(dims.len(), 4, "conv weight must be (Cout,Cin,K,K)");
        assert_eq!(dims[2], dims[3], "only square kernels supported");
        assert_eq!(bias.dims(), &[dims[0]], "bias must be (Cout,)");
        let geom = ConvGeometry::new(dims[2], stride, padding);
        Self {
            weight: Parameter::new(weight),
            bias: Parameter::new(bias),
            in_channels: dims[1],
            out_channels: dims[0],
            geom,
            cache: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Convolution geometry (kernel/stride/padding).
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Mutable access to the weight parameter (used by pruning baselines).
    pub fn weight_mut(&mut self) -> &mut Parameter {
        &mut self.weight
    }

    /// Immutable access to the bias parameter.
    pub fn bias(&self) -> &Parameter {
        &self.bias
    }

    /// Mutable access to the bias parameter.
    pub fn bias_mut(&mut self) -> &mut Parameter {
        &mut self.bias
    }

    /// Multiply–accumulate count for one forward pass over an input of
    /// spatial size `(h, w)` with batch size 1 — the paper's FLOPs unit.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (hout, wout) = self.geom.output_size(h, w);
        (self.out_channels * self.in_channels * self.geom.kernel * self.geom.kernel) as u64
            * (hout * wout) as u64
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        // Op-level profiling spans (antidote-obs): a single atomic load
        // when observability is disabled.
        let _span = antidote_obs::span("nn.conv2d.forward");
        let (n, c, h, w) = input
            .shape()
            .as_nchw()
            .expect("Conv2d expects (N,C,H,W) input");
        assert_eq!(
            c, self.in_channels,
            "Conv2d configured for {} input channels, got {c}",
            self.in_channels
        );
        let k = self.geom.kernel;
        let (hout, wout) = self.geom.output_size(h, w);
        let l = hout * wout;
        let ckk = c * k * k;
        let cout = self.out_channels;
        let geom = self.geom;
        let item_in = c * h * w;
        let item_out = cout * l;
        let mut out = Tensor::zeros([n, cout, hout, wout]);
        // Borrow the parameters — the former `.data().to_vec()` cloned the
        // full weight and bias tensors on every call.
        let w_data = self.weight.value.data();
        let b_data = self.bias.value.data();
        let in_data = input.data();

        // One batch item: im2col into `cols`, GEMM, bias.
        let run_item = |img: &[f32], cols: &mut [f32], out_slice: &mut [f32]| {
            {
                let _s = antidote_obs::span("nn.conv2d.im2col");
                im2col(img, c, h, w, geom, cols);
            }
            {
                let _s = antidote_obs::span("nn.conv2d.gemm");
                matmul_into(w_data, cols, out_slice, cout, ckk, l);
            }
            for (co, &b) in b_data.iter().enumerate() {
                if b != 0.0 {
                    for v in &mut out_slice[co * l..(co + 1) * l] {
                        *v += b;
                    }
                }
            }
        };

        if mode.is_train() {
            // Each item's column matrix is kept for backward, so the
            // per-item buffers exist anyway; fill them in parallel.
            let mut cols_cache: Vec<Vec<f32>> = (0..n).map(|_| vec![0.0f32; ckk * l]).collect();
            {
                let out_data = out.data_mut();
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out_data
                    .chunks_mut(item_out)
                    .zip(cols_cache.iter_mut())
                    .enumerate()
                    .map(|(ni, (out_slice, cols))| {
                        let run_item = &run_item;
                        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                            run_item(&in_data[ni * item_in..(ni + 1) * item_in], cols, out_slice);
                        });
                        task
                    })
                    .collect();
                antidote_par::run_scoped(tasks);
            }
            self.cache = Some(ConvCache {
                cols: cols_cache,
                input_hw: (h, w),
                out_hw: (hout, wout),
            });
        } else {
            // Inference: one scratch `cols` buffer per task, reused across
            // the task's batch items (the former code allocated a fresh
            // `ckk·l` buffer per item). An eval forward must NOT touch
            // `self.cache` — wiping it here silently broke the
            // train-forward → eval-forward → backward interleaving a
            // mid-epoch validation pass produces.
            let ranges = antidote_par::fixed_ranges(n, antidote_par::current_threads());
            let mut out_chunks = Vec::with_capacity(ranges.len());
            let mut rest = out.data_mut();
            for range in &ranges {
                let (head, tail) = rest.split_at_mut(range.len() * item_out);
                out_chunks.push(head);
                rest = tail;
            }
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
                .iter()
                .cloned()
                .zip(out_chunks)
                .map(|(range, out_chunk)| {
                    let run_item = &run_item;
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        let mut cols = vec![0.0f32; ckk * l];
                        for (slot, ni) in range.enumerate() {
                            run_item(
                                &in_data[ni * item_in..(ni + 1) * item_in],
                                &mut cols,
                                &mut out_chunk[slot * item_out..(slot + 1) * item_out],
                            );
                        }
                    });
                    task
                })
                .collect();
            antidote_par::run_scoped(tasks);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _span = antidote_obs::span("nn.conv2d.backward");
        let cache = self
            .cache
            .take()
            .expect("Conv2d::backward called without forward(Train)");
        let (n, co, hout, wout) = grad_out
            .shape()
            .as_nchw()
            .expect("grad_out must be (N,Cout,Hout,Wout)");
        assert_eq!(co, self.out_channels);
        assert_eq!((hout, wout), cache.out_hw, "grad_out spatial mismatch");
        let (h, w) = cache.input_hw;
        let k = self.geom.kernel;
        let c = self.in_channels;
        let ckk = c * k * k;
        let l = hout * wout;
        let geom = self.geom;
        let item_in = c * h * w;
        let item_go = co * l;
        let mut grad_in = Tensor::zeros([n, c, h, w]);
        // Split borrow: the weight *value* (read by dcols) and the weight
        // *grad* (accumulated below) are distinct fields, so the former
        // full-tensor `.to_vec()` clone per call is unnecessary.
        let w_data = self.weight.value.data();
        let go_data = grad_out.data();
        let cols_cache = &cache.cols;

        // Batch items are partitioned by `fixed_ranges(n, GRAD_PARTIAL_PARTS)`
        // — a function of `n` alone — and each part accumulates weight/bias
        // gradient partials; parts then reduce into the parameter grads in
        // part order, so the additions are identical at every thread budget.
        let ranges = antidote_par::fixed_ranges(n, GRAD_PARTIAL_PARTS);
        let parts = ranges.len();
        let mut w_parts = vec![0.0f32; parts * co * ckk];
        let mut b_parts = vec![0.0f32; parts * co];
        {
            let mut gi_chunks = Vec::with_capacity(parts);
            let mut rest = grad_in.data_mut();
            for range in &ranges {
                let (head, tail) = rest.split_at_mut(range.len() * item_in);
                gi_chunks.push(head);
                rest = tail;
            }
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
                .iter()
                .cloned()
                .zip(gi_chunks)
                .zip(w_parts.chunks_mut(co * ckk).zip(b_parts.chunks_mut(co)))
                .map(|((range, gi_chunk), (w_part, b_part))| {
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        // One dcols scratch per part, reused across items
                        // (the former code allocated `ckk·l` per item).
                        let mut grad_cols = vec![0.0f32; ckk * l];
                        for (slot, ni) in range.enumerate() {
                            let go = &go_data[ni * item_go..(ni + 1) * item_go];
                            let cols = &cols_cache[ni];
                            // dW_part += dY · colsᵀ   (Cout×L)·(L×CKK)
                            matmul_a_bt(go, cols, w_part, co, l, ckk);
                            // db_part += rowsum(dY)
                            for (ci, gb) in b_part.iter_mut().enumerate() {
                                *gb += go[ci * l..(ci + 1) * l].iter().sum::<f32>();
                            }
                            // dcols = Wᵀ · dY    (CKK×Cout)·(Cout×L)
                            if slot > 0 {
                                grad_cols.fill(0.0);
                            }
                            matmul_at_b(w_data, go, &mut grad_cols, co, ckk, l);
                            let gi = &mut gi_chunk[slot * item_in..(slot + 1) * item_in];
                            col2im(&grad_cols, c, h, w, geom, gi);
                        }
                    });
                    task
                })
                .collect();
            antidote_par::run_scoped(tasks);
        }
        let wg = self.weight.grad.data_mut();
        for part in w_parts.chunks(co * ckk) {
            for (g, &p) in wg.iter_mut().zip(part) {
                *g += p;
            }
        }
        let bg = self.bias.grad.data_mut();
        for part in b_parts.chunks(co) {
            for (g, &p) in bg.iter_mut().zip(part) {
                *g += p;
            }
        }
        grad_in
    }

    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!(
            "conv{k}x{k}({inc}->{outc}, s{s}, p{p})",
            k = self.geom.kernel,
            inc = self.in_channels,
            outc = self.out_channels,
            s = self.geom.stride,
            p = self.geom.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_tensor::conv::conv2d_reference;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn forward_matches_reference() {
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 3, 5, 3, 1, 1);
        let x = init::uniform(&mut r, &[2, 3, 7, 6], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 5, 7, 6]);
        for ni in 0..2 {
            let expect = conv2d_reference(
                &x.batch_item(ni),
                &conv.weight().value,
                Some(&conv.bias().value),
                conv.geometry(),
            );
            assert!(y.batch_item(ni).allclose(&expect, 1e-4));
        }
    }

    #[test]
    fn gradient_check_weight_and_input() {
        // Numerical gradient check on a tiny conv: the canonical test that
        // the backward pass is exactly the adjoint of forward.
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 2, 3, 3, 1, 1);
        let x = init::uniform(&mut r, &[1, 2, 4, 4], -1.0, 1.0);

        // Loss = sum(forward(x)); analytic gradient:
        let y = conv.forward(&x, Mode::Train);
        let grad_out = Tensor::ones(y.dims().to_vec());
        let grad_in = conv.backward(&grad_out);

        let eps = 1e-2f32;
        // input gradient check (a handful of coordinates)
        for &i in &[0usize, 5, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = conv.forward(&xp, Mode::Eval).sum();
            let fm = conv.forward(&xm, Mode::Eval).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "input grad mismatch at {i}: num={num} ana={ana}"
            );
        }
        // weight gradient check
        let wg = conv.weight().grad.clone();
        for &i in &[0usize, 7, 20, 53] {
            let orig = conv.weight().value.data()[i];
            conv.weight_mut().value.data_mut()[i] = orig + eps;
            let fp = conv.forward(&x, Mode::Eval).sum();
            conv.weight_mut().value.data_mut()[i] = orig - eps;
            let fm = conv.forward(&x, Mode::Eval).sum();
            conv.weight_mut().value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = wg.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "weight grad mismatch at {i}: num={num} ana={ana}"
            );
        }
    }

    #[test]
    fn bias_gradient_is_output_count() {
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 1, 2, 3, 1, 1);
        let x = Tensor::zeros([2, 1, 4, 4]);
        let y = conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(y.dims().to_vec()));
        // d(sum y)/db_c = N * Hout * Wout = 2*16
        assert_eq!(conv.bias().grad.data(), &[32.0, 32.0]);
    }

    #[test]
    fn eval_forward_preserves_training_cache() {
        // Regression: a mid-epoch validation pass (eval-mode forward
        // between forward(Train) and backward) used to wipe the training
        // cache and panic the next backward. The eval forward must leave
        // the cache — and therefore the gradients — untouched.
        let mut r = rng();
        let w = init::uniform(&mut r, &[3, 2, 3, 3], -1.0, 1.0);
        let b = init::uniform(&mut r, &[3], -0.1, 0.1);
        let x = init::uniform(&mut r, &[2, 2, 6, 6], -1.0, 1.0);
        let x_val = init::uniform(&mut r, &[4, 2, 6, 6], -1.0, 1.0);

        let mut plain = Conv2d::from_parts(w.clone(), b.clone(), 1, 1);
        let y = plain.forward(&x, Mode::Train);
        let go = Tensor::ones(y.dims().to_vec());
        let gi_plain = plain.backward(&go);

        let mut interleaved = Conv2d::from_parts(w, b, 1, 1);
        interleaved.forward(&x, Mode::Train);
        interleaved.forward(&x_val, Mode::Eval); // must not clobber the cache
        let gi = interleaved.backward(&go); // panicked before the fix
        assert_eq!(gi.data(), gi_plain.data(), "input grads must be unaffected");
        assert_eq!(
            interleaved.weight().grad.data(),
            plain.weight().grad.data(),
            "weight grads must be unaffected"
        );
        assert_eq!(interleaved.bias().grad.data(), plain.bias().grad.data());
    }

    #[test]
    fn macs_formula() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 64, 64, 3, 1, 1);
        // 9 * 64 * 64 * 32 * 32 = 37,748,736
        assert_eq!(conv.macs(32, 32), 37_748_736);
    }

    #[test]
    #[should_panic(expected = "backward called without forward")]
    fn backward_without_forward_panics() {
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 1, 1, 3, 1, 1);
        conv.backward(&Tensor::zeros([1, 1, 4, 4]));
    }

    #[test]
    fn describe_and_param_count() {
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 3, 8, 3, 1, 1);
        assert_eq!(conv.describe(), "conv3x3(3->8, s1, p1)");
        assert_eq!(conv.param_count(), 3 * 8 * 9 + 8);
    }

    #[test]
    fn from_parts_validates() {
        let w = Tensor::zeros([4, 2, 3, 3]);
        let b = Tensor::zeros([4]);
        let conv = Conv2d::from_parts(w, b, 1, 1);
        assert_eq!(conv.out_channels(), 4);
        assert_eq!(conv.in_channels(), 2);
    }
}
