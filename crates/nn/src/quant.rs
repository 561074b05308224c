//! Int8 quantized convolution for evaluation/serving (DESIGN.md §11).
//!
//! [`QuantizedConv2d`] is the eval-only int8 counterpart of
//! [`crate::layers::Conv2d`]: weights are symmetrically quantized per
//! output channel ([`antidote_tensor::quant::QuantizedMatrix`]), the
//! input activation uses one calibrated per-tensor scale, and the MACs
//! accumulate in `i32` before a single per-channel dequantization
//! multiply.
//!
//! [`quantized_masked_conv2d`] runs the same tap-gather driver as
//! [`crate::masked::masked_conv2d`] in the int8 domain: it gathers
//! exactly the same kept taps per output window (masked channels and
//! spatial columns never enter the int8 domain at all) and charges
//! exactly the same `taps·Cout` MACs per window — so for identical
//! masks, the quantized and fp32 executors report identical *counted*
//! MAC totals, which the `quant_equivalence` integration test pins with
//! `u64` equality.

use crate::layers::Conv2d;
use crate::masked::{run_masked_conv, FeatureMask, MacCounter, TapDomain};
use antidote_tensor::conv::ConvGeometry;
use antidote_tensor::quant::{quantize_value, QuantizedMatrix};
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
    /// `antidote_models::Vgg::from_quantized_parts`, which returns typed
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
/// int8 domain.
///
/// Both run the same window/tap-gather driver, so the same windows visit
/// the same kept `(channel, ky, kx)` taps in the same order. Because the
/// *set* of gathered taps depends only on the masks and the geometry —
/// never on the numeric domain — the counted MACs (`taps.len() · Cout`
/// per window) match the fp32 executor exactly.
///
/// # Panics
///
/// Panics if shapes disagree or `masks.len() != N`.
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
    let act_scale = layer.act_scale;
    // Hoisted per-channel dequantization factors: s_a · s_w[co].
    let deq: Vec<f32> = layer
        .qweight
        .scales
        .iter()
        .map(|&s| s * act_scale)
        .collect();
    // Every kept tap is quantized at gather time, products accumulate in
    // `i32`, and each window's sum is dequantized once.
    let domain = TapDomain {
        name: "nn.quantized_conv2d",
        weights: &layer.qweight.data[..],
        load: |v| quantize_value(v, act_scale),
        dot: |co, taps: &[(usize, i8)], filter: &[i8]| {
            let mut acc = 0i32;
            for &(widx, qv) in taps {
                acc += qv as i32 * filter[widx] as i32;
            }
            acc as f32 * deq[co]
        },
    };
    let (cout, bias) = (layer.qweight.rows, Some(&layer.bias[..]));
    run_masked_conv(&domain, input, cout, bias, layer.geom, masks, counter)
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
