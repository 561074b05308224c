//! Int8 quantized convolution for evaluation/serving (DESIGN.md §11).
//!
//! [`QuantizedConv2d`] is the eval-only int8 counterpart of
//! [`crate::layers::Conv2d`]: weights are symmetrically quantized per
//! output channel ([`antidote_tensor::quant::QuantizedMatrix`]), the
//! input activation uses one calibrated per-tensor scale, and the MACs
//! accumulate in `i32` before a single per-channel dequantization
//! multiply.
//!
//! [`quantized_masked_conv2d`] is the int8 masked executor, a compacted
//! GEMM on [`antidote_tensor::quant::gemm_i8`]: each kept input element
//! is quantized once, masked channels leave the reduction dimension, and
//! masked or padded positions are exact zeros. Exact `i32` accumulation
//! makes its logits bit-identical to a tap-gather loop nest over the same
//! kept taps (`tests/quant_executor_oracle.rs` pins this with `to_bits`
//! against a naive reference). It charges MACs analytically through the
//! same counting function as [`crate::masked::masked_conv2d`], so for
//! identical masks the two executors report identical totals
//! (`tests/quant_equivalence.rs` pins that with `u64` equality).

use crate::layers::Conv2d;
use crate::masked::{check_masks, kept_window_taps, FeatureMask, MacCounter};
use antidote_tensor::conv::{im2col, ConvGeometry};
use antidote_tensor::quant::{gemm_i8, quantize_value, QuantizedMatrix};
use antidote_tensor::Tensor;
use std::sync::Arc;

/// An eval-only int8 convolution layer.
///
/// Built from a trained fp32 [`Conv2d`] plus a calibrated activation
/// scale ([`QuantizedConv2d::from_conv`]); it has no backward pass and
/// no trainable parameters — post-training quantization is a deployment
/// transform, not a training-time one (DESIGN.md §11 explains why this
/// repo does not attempt quantization-aware training).
#[derive(Debug, Clone)]
pub struct QuantizedConv2d {
    /// `(Cout, Cin·K·K)` int8 filter matrix with per-row (= per output
    /// channel) scales; immutable, so clones of the layer share it.
    qweight: Arc<QuantizedMatrix>,
    /// Full-precision bias, length `Cout` (biases are a vanishing share
    /// of parameter bytes; quantizing them buys nothing).
    bias: Vec<f32>,
    /// Calibrated per-tensor scale of this layer's *input* activation.
    act_scale: f32,
    in_channels: usize,
    geom: ConvGeometry,
}

impl QuantizedConv2d {
    /// Quantizes a trained fp32 convolution. `act_scale` is the
    /// calibrated per-tensor quantization step of this layer's input
    /// feature map (see `antidote-core`'s calibration pass).
    ///
    /// # Panics
    ///
    /// Panics if `act_scale` is not strictly positive and finite.
    pub fn from_conv(conv: &Conv2d, act_scale: f32) -> Self {
        let cin = conv.in_channels();
        let k = conv.geometry().kernel;
        let qweight = QuantizedMatrix::quantize_symmetric_per_row(
            conv.weight().value.data(),
            conv.out_channels(),
            cin * k * k,
        );
        let bias = conv.bias().value.data().to_vec();
        Self::from_parts(Arc::new(qweight), bias, act_scale, cin, conv.geometry())
    }

    /// Reassembles a quantized convolution from stored parts — the
    /// model-file loader's constructor, where the int8 weights come off
    /// disk and never existed as fp32 in this process.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions or a non-positive/non-finite
    /// `act_scale`. File loaders must validate before calling (see
    /// `antidote_models::Vgg::from_parts`, which returns typed
    /// errors); these asserts are a backstop, not an error surface.
    pub fn from_parts(
        qweight: Arc<QuantizedMatrix>,
        bias: Vec<f32>,
        act_scale: f32,
        in_channels: usize,
        geom: ConvGeometry,
    ) -> Self {
        assert!(
            act_scale.is_finite() && act_scale > 0.0,
            "activation scale must be positive and finite, got {act_scale}"
        );
        assert_eq!(
            qweight.cols,
            in_channels * geom.kernel * geom.kernel,
            "weight columns must be Cin·K·K"
        );
        assert_eq!(qweight.data.len(), qweight.rows * qweight.cols);
        assert_eq!(qweight.scales.len(), qweight.rows, "one scale per output channel");
        assert_eq!(bias.len(), qweight.rows, "one bias per output channel");
        Self {
            qweight,
            bias,
            act_scale,
            in_channels,
            geom,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.qweight.rows
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// The calibrated input-activation quantization step.
    pub fn act_scale(&self) -> f32 {
        self.act_scale
    }

    /// Per-output-channel weight quantization steps.
    pub fn weight_scales(&self) -> &[f32] {
        &self.qweight.scales
    }

    /// The `(Cout, Cin·K·K)` int8 filter matrix with per-row scales.
    pub fn qweight(&self) -> &Arc<QuantizedMatrix> {
        &self.qweight
    }

    /// Full-precision bias, length `Cout`.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Dense MAC count for an `(h, w)` input, identical to the fp32
    /// layer's accounting (quantization changes the cost per MAC, never
    /// the number of MACs).
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (hout, wout) = self.geom.output_size(h, w);
        let k = self.geom.kernel;
        (self.qweight.rows * self.in_channels * k * k) as u64 * (hout * wout) as u64
    }
}

/// Int8 convolution that skips masked input channels and masked spatial
/// columns, per batch item — [`crate::masked::masked_conv2d`] in the
/// int8 domain, run as a compacted GEMM.
///
/// For each batch item:
///
/// 1. every kept input element is quantized once; masked positions are
///    0 whatever the input holds there;
/// 2. the kept channels unfold into an `i8` column matrix of
///    `K′ = kept·K·K` rows (masked channels leave the reduction
///    dimension; padding is 0);
/// 3. [`gemm_i8`] multiplies it by the kept-channel columns of the filter
///    matrix (the stored matrix itself for items with every channel
///    kept), splitting the output rows over the `antidote_par` pool;
/// 4. each output is `bias[co] + acc as f32 * (s_w[co]·s_a)`.
///
/// `i32` addition is exact and order-independent and a zero tap adds
/// exactly 0, so every accumulator equals the per-window sum over the
/// kept in-bounds taps, and the outputs are bit-identical to a tap-gather
/// loop nest at every thread budget and kernel backend. MACs are charged
/// analytically, as for the fp32 executor: kept channels × kept in-bounds
/// positions × `Cout` per window, so identical masks charge identical
/// totals in both domains.
///
/// # Panics
///
/// Panics if shapes disagree, `masks.len() != N`, or a mask's length
/// does not match the input's channels or `H·W`.
pub fn quantized_masked_conv2d(
    input: &Tensor,
    layer: &QuantizedConv2d,
    masks: &[FeatureMask],
    counter: &mut MacCounter,
) -> Tensor {
    assert_eq!(
        input.dims().get(1),
        Some(&layer.in_channels),
        "input channel mismatch"
    );
    let _span = antidote_obs::span("nn.quantized_conv2d");
    let (n, cin, h, w) = input.shape().as_nchw().expect("input must be NCHW");
    check_masks(masks, n, cin, h * w);
    let (geom, qw) = (layer.geom, &layer.qweight);
    let (cout, kk) = (qw.rows, geom.kernel * geom.kernel);
    let (hout, wout) = geom.output_size(h, w);
    let (plane, l) = (h * w, hout * wout);
    // The per-channel dequantization factors s_w[co]·s_a, hoisted.
    let deq: Vec<f32> = qw.scales.iter().map(|&s| s * layer.act_scale).collect();
    // Scratch sized for a dense item, reused across the batch.
    let mut qin = vec![0i8; cin * plane];
    let mut cols = vec![0i8; cin * kk * l];
    let mut acc = vec![0i32; cout * l];
    let mut packed = Vec::new();
    let mut out = Tensor::zeros([n, cout, hout, wout]);
    let mut macs = 0u64;
    let items = input.data().chunks(cin * plane).zip(masks);
    for ((img, mask), out_item) in items.zip(out.data_mut().chunks_mut(cout * l)) {
        let kept: Vec<usize> = (0..cin).filter(|&c| mask.keeps_channel(c)).collect();
        let k_dim = kept.len() * kk;
        for (&c, q_plane) in kept.iter().zip(qin.chunks_mut(plane)) {
            let src = &img[c * plane..(c + 1) * plane];
            for (p, (q, &v)) in q_plane.iter_mut().zip(src).enumerate() {
                *q = if mask.keeps_position(p) {
                    quantize_value(v, layer.act_scale)
                } else {
                    0
                };
            }
        }
        let cols = &mut cols[..k_dim * l];
        im2col(&qin[..kept.len() * plane], kept.len(), h, w, geom, cols);
        let filters: &[i8] = if kept.len() == cin {
            &qw.data
        } else {
            packed.clear();
            packed.reserve_exact(cout * k_dim);
            for row in qw.data.chunks(qw.cols) {
                for &c in &kept {
                    packed.extend_from_slice(&row[c * kk..(c + 1) * kk]);
                }
            }
            &packed
        };
        acc.fill(0);
        gemm_i8(filters, cols, &mut acc, cout, k_dim, l);
        let rows = out_item.chunks_mut(l).zip(acc.chunks(l));
        for ((o_row, a_row), (&b, &d)) in rows.zip(layer.bias.iter().zip(&deq)) {
            for (o, &a) in o_row.iter_mut().zip(a_row) {
                *o = b + a as f32 * d;
            }
        }
        macs += kept_window_taps(mask, h, w, geom) * (kept.len() * cout) as u64;
    }
    counter.add(macs);
    if antidote_obs::enabled() {
        antidote_obs::counter_add("nn.quantized_conv2d.macs", macs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masked::masked_conv2d;
    use antidote_tensor::init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn quant_tolerance(layer: &QuantizedConv2d, cin: usize, k: usize) -> f32 {
        // Worst case per output: every one of the Cin·K² taps errs by
        // half an activation step against a worst-case weight, plus the
        // weight's own half-step against the activation range.
        let taps = (cin * k * k) as f32;
        let wmax = layer
            .weight_scales()
            .iter()
            .fold(0.0f32, |m, &s| m.max(s * 127.0));
        taps * (layer.act_scale() / 2.0 * wmax + layer.act_scale() * 127.0 * wmax / 254.0)
    }

    #[test]
    fn quantized_dense_conv_tracks_fp32() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 3, 6, 3, 1, 1);
        let x = init::uniform(&mut r, &[2, 3, 6, 6], -1.0, 1.0);
        let q = QuantizedConv2d::from_conv(&conv, antidote_tensor::quant::scale_for_absmax(1.0));
        let masks = vec![FeatureMask::keep_all(); 2];
        let mut c_fp = MacCounter::new();
        let y_fp = masked_conv2d(
            &x,
            &conv.weight().value,
            Some(&conv.bias().value),
            conv.geometry(),
            &masks,
            &mut c_fp,
        );
        let mut c_q = MacCounter::new();
        let y_q = quantized_masked_conv2d(&x, &q, &masks, &mut c_q);
        assert_eq!(c_fp.total(), c_q.total(), "MAC counts must match exactly");
        let tol = quant_tolerance(&q, 3, 3);
        assert!(
            y_fp.allclose(&y_q, tol),
            "quantized output outside analytic error bound {tol}"
        );
    }

    #[test]
    fn masked_channels_skip_identically() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 4, 5, 3, 1, 1);
        let x = init::uniform(&mut r, &[3, 4, 5, 5], -2.0, 2.0);
        let q = QuantizedConv2d::from_conv(&conv, antidote_tensor::quant::scale_for_absmax(2.0));
        let masks: Vec<FeatureMask> = (0..3)
            .map(|ni| FeatureMask {
                channel: Some((0..4).map(|c| (c + ni) % 2 == 0).collect()),
                spatial: Some((0..25).map(|p| (p + ni) % 3 != 0).collect()),
            })
            .collect();
        let mut c_fp = MacCounter::new();
        let _ = masked_conv2d(
            &x,
            &conv.weight().value,
            Some(&conv.bias().value),
            conv.geometry(),
            &masks,
            &mut c_fp,
        );
        let mut c_q = MacCounter::new();
        let _ = quantized_masked_conv2d(&x, &q, &masks, &mut c_q);
        assert_eq!(
            c_fp.total(),
            c_q.total(),
            "identical masks must charge identical MACs"
        );
        // And a fully dense pass must charge strictly more.
        let dense = vec![FeatureMask::keep_all(); 3];
        let mut c_dense = MacCounter::new();
        let _ = quantized_masked_conv2d(&x, &q, &dense, &mut c_dense);
        assert!(c_q.total() < c_dense.total());
    }

    #[test]
    fn fully_masked_item_is_bias_only() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 2, 3, 3, 1, 1);
        let x = init::uniform(&mut r, &[1, 2, 4, 4], -1.0, 1.0);
        let q = QuantizedConv2d::from_conv(&conv, antidote_tensor::quant::scale_for_absmax(1.0));
        let masks = vec![FeatureMask {
            channel: Some(vec![false, false]),
            spatial: None,
        }];
        let mut c = MacCounter::new();
        let y = quantized_masked_conv2d(&x, &q, &masks, &mut c);
        assert_eq!(c.total(), 0, "no kept taps, no MACs");
        for co in 0..3 {
            let b = conv.bias().value.data()[co];
            assert!(y
                .channel_plane(0, co)
                .data()
                .iter()
                .all(|&v| (v - b).abs() < 1e-6));
        }
    }

    #[test]
    fn accessors_and_macs_model() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 3, 8, 3, 1, 1);
        let q = QuantizedConv2d::from_conv(&conv, 0.01);
        assert_eq!(q.out_channels(), 8);
        assert_eq!(q.in_channels(), 3);
        assert_eq!(q.geometry(), ConvGeometry::new(3, 1, 1));
        assert_eq!(q.act_scale(), 0.01);
        assert_eq!(q.weight_scales().len(), 8);
        assert_eq!(q.macs(8, 8), conv.macs(8, 8));
    }

    #[test]
    #[should_panic(expected = "one bias per output channel")]
    fn from_parts_rejects_inconsistent_bias() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 2, 4, 3, 1, 1);
        let q = QuantizedConv2d::from_conv(&conv, 0.02);
        let _ = QuantizedConv2d::from_parts(
            q.qweight().clone(),
            vec![0.0; 3],
            q.act_scale(),
            q.in_channels(),
            q.geometry(),
        );
    }

    #[test]
    #[should_panic(expected = "activation scale must be positive")]
    fn rejects_nonpositive_scale() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 1, 1, 3, 1, 1);
        let _ = QuantizedConv2d::from_conv(&conv, 0.0);
    }

    /// Runs the int8 executor on a 2-item `(2, 3, 4, 4)` input whose
    /// second item carries `bad`.
    fn run_with_second_mask(bad: FeatureMask) {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 3, 2, 3, 1, 1);
        let x = init::uniform(&mut r, &[2, 3, 4, 4], -1.0, 1.0);
        let q = QuantizedConv2d::from_conv(&conv, 0.01);
        let masks = [FeatureMask::keep_all(), bad];
        quantized_masked_conv2d(&x, &q, &masks, &mut MacCounter::new());
    }

    #[test]
    #[should_panic(expected = "batch item 1: channel mask has 4 entries, feature map has 3")]
    fn rejects_too_long_channel_mask() {
        run_with_second_mask(FeatureMask {
            channel: Some(vec![true; 4]),
            spatial: None,
        });
    }

    #[test]
    #[should_panic(expected = "batch item 1: channel mask has 2 entries, feature map has 3")]
    fn rejects_too_short_channel_mask() {
        run_with_second_mask(FeatureMask {
            channel: Some(vec![true; 2]),
            spatial: None,
        });
    }

    #[test]
    #[should_panic(expected = "batch item 1: spatial mask has 17 entries, feature map has 16")]
    fn rejects_too_long_spatial_mask() {
        run_with_second_mask(FeatureMask {
            channel: None,
            spatial: Some(vec![true; 17]),
        });
    }

    #[test]
    #[should_panic(expected = "batch item 1: spatial mask has 15 entries, feature map has 16")]
    fn rejects_too_short_spatial_mask() {
        run_with_second_mask(FeatureMask {
            channel: None,
            spatial: Some(vec![true; 15]),
        });
    }

    #[test]
    fn thread_budget_parity() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 4, 6, 3, 1, 1);
        let x = init::uniform(&mut r, &[5, 4, 7, 7], -1.5, 1.5);
        let q = QuantizedConv2d::from_conv(&conv, antidote_tensor::quant::scale_for_absmax(1.5));
        let masks: Vec<FeatureMask> = (0..5)
            .map(|ni| FeatureMask {
                channel: Some((0..4).map(|c| (c + ni) % 3 != 0).collect()),
                spatial: None,
            })
            .collect();
        let prev = antidote_par::current_threads();
        antidote_par::set_threads(1);
        let mut c1 = MacCounter::new();
        let y1 = quantized_masked_conv2d(&x, &q, &masks, &mut c1);
        antidote_par::set_threads(4);
        let mut c4 = MacCounter::new();
        let y4 = quantized_masked_conv2d(&x, &q, &masks, &mut c4);
        antidote_par::set_threads(prev);
        assert_eq!(c1.total(), c4.total());
        assert!(y1
            .data()
            .iter()
            .zip(y4.data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
