//! VGG-style sequential CNN with feature taps after every conv.
//!
//! One flat op list and one set of walkers serve both numeric domains:
//! [`Vgg::new`] builds fp32 convs that train, and int8 is a transform of
//! such a network ([`Vgg::quantize`]; [`Vgg::from_parts`] rebuilds either
//! dtype from stored weights) — strictly an inference artifact that
//! panics on `Mode::Train` and [`Network::backward`], exposes no
//! trainable parameters and visits no tap convs.

use crate::config::{ConvShape, VggConfig};
use crate::network::Network;
use crate::oplist::{ConvOp, Op, OpList};
use crate::parts::ConvWeight;
use crate::shrunk::ShrunkNetwork;
use crate::tap::{FeatureHook, TapInfo};
use antidote_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d};
use antidote_nn::masked::MacCounter;
use antidote_nn::{Mode, Parameter};
use antidote_tensor::quant::QuantizedMatrix;
use antidote_tensor::Tensor;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A VGG network instantiated from a [`VggConfig`].
///
/// # Examples
///
/// ```
/// use antidote_models::{Vgg, VggConfig, Network};
/// use antidote_nn::Mode;
/// use antidote_tensor::Tensor;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 4));
/// let logits = net.forward(&Tensor::zeros([2, 3, 8, 8]), Mode::Eval);
/// assert_eq!(logits.dims(), &[2, 4]);
/// ```
///
/// `Clone` shares every weight buffer with the original (tensor storage
/// is copy-on-write, int8 matrices sit behind an `Arc`) and copies only
/// the op list, so a serving replica costs O(layers) pointer copies.
#[derive(Debug, Clone)]
pub struct Vgg {
    pub(crate) config: VggConfig,
    pub(crate) net: OpList,
}

impl Vgg {
    /// Builds a VGG with freshly initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the input size is not divisible by `2^blocks`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: VggConfig) -> Self {
        assert!(
            config.input_size.is_multiple_of(1 << config.blocks.len()),
            "input size {} not divisible by 2^{} for pooling",
            config.input_size,
            config.blocks.len()
        );
        let shapes = config.conv_shapes();
        let convs = shapes
            .iter()
            .map(|s| {
                let conv = Conv2d::new(rng, s.in_channels, s.out_channels, s.kernel, 1, 1);
                ConvOp::F32(conv)
            })
            .collect();
        let bns = shapes
            .iter()
            .filter(|_| config.batchnorm)
            .map(|s| BatchNorm2d::new(s.out_channels))
            .collect();
        let linear = Linear::new(rng, config.classifier_inputs(), config.classes);
        Self::layout(config, convs, bns, linear)
    }

    /// The one place the VGG op sequence is laid out: conv → \[bn\] →
    /// relu → tap per layer, a 2×2 max pool per block, then flatten →
    /// linear. Takes the weight-carrying layers in forward order: one
    /// conv per [`VggConfig::conv_shapes`] entry and, when the config
    /// enables batch norm, one batch norm per conv.
    pub(crate) fn layout(
        config: VggConfig,
        convs: Vec<ConvOp>,
        bns: Vec<BatchNorm2d>,
        linear: Linear,
    ) -> Self {
        let (mut convs, mut bns) = (convs.into_iter(), bns.into_iter());
        let mut net = OpList::default();
        for (b, block) in config.blocks.iter().enumerate() {
            for _ in 0..block.layers {
                net.conv(
                    convs.next().expect("one conv per layer"),
                    config
                        .batchnorm
                        .then(|| bns.next().expect("one batch norm per conv")),
                );
                net.relu_tap(b, block.channels, config.block_spatial(b));
            }
            net.ops.push(Op::Pool(MaxPool2d::new(2)));
        }
        net.ops.push(Op::Flatten(Flatten::new()));
        net.ops.push(Op::Linear(linear));
        Self { config, net }
    }

    /// The generating configuration.
    pub fn config(&self) -> &VggConfig {
        &self.config
    }

    /// `true` when the convs carry int8 payloads (an eval-only network).
    pub fn is_int8(&self) -> bool {
        self.net.is_int8()
    }

    /// Bytes of weight storage one copy of this network holds: fp32
    /// values at 4 bytes, int8 filter entries at 1 (gradient buffers are
    /// training state, not weights, and are not counted).
    pub fn weight_bytes(&self) -> usize {
        let f32s = |a: &Tensor, b: &Tensor| 4 * (a.len() + b.len());
        self.net
            .ops
            .iter()
            .map(|op| match op {
                Op::Conv(ConvOp::F32(c)) => f32s(&c.weight().value, &c.bias().value),
                Op::Conv(ConvOp::Int8(c)) => {
                    c.qweight().data.len() + 4 * (c.weight_scales().len() + c.bias().len())
                }
                Op::Bn(bn) => 4 * 4 * bn.channels(),
                Op::Linear(fc) => f32s(&fc.weight().value, &fc.bias().value),
                _ => 0,
            })
            .sum()
    }

    /// Post-training quantization as a transform: a copy of this fp32
    /// network whose convs are symmetrically quantized to int8 per
    /// output channel and carry the activation scale their *input* was
    /// calibrated to. Batch norm, ReLU, pooling and the classifier stay
    /// fp32 — together they are well under 1% of the network's MACs, and
    /// an fp32 classifier avoids quantizing the logits the accuracy gate
    /// compares.
    ///
    /// `input_scale` is the int8 scale of the network input and feeds
    /// conv 0. Conv *i* (*i* ≥ 1) consumes tap *i−1*'s output (the
    /// post-BN+ReLU map) and takes `tap_scales[i − 1]`: max pooling can
    /// only select existing values and 0/1 pruning masks can only zero
    /// them, so neither grows the absmax and the tap's calibrated scale
    /// stays valid at the next conv's input. `core::quant::calibrate`
    /// produces both from held-out batches.
    ///
    /// # Panics
    ///
    /// Panics if the network is already int8, `tap_scales.len()` differs
    /// from the tap count, or any scale is non-finite or non-positive.
    pub fn quantize(&self, input_scale: f32, tap_scales: &[f32]) -> Vgg {
        assert_eq!(
            tap_scales.len(),
            self.net.taps().len(),
            "need one activation scale per tap"
        );
        // Rebuilt from parts, so the int8 network shares the weights but
        // none of the activation caches training left in `self`.
        let mut parts = self.to_parts();
        let act_scales = std::iter::once(&input_scale).chain(tap_scales);
        for (conv, &act_scale) in parts.convs.iter_mut().zip(act_scales) {
            let ConvWeight::F32(w) = &conv.weight else {
                panic!("network is already int8");
            };
            let (rows, cols) = (w.dims()[0], w.len() / w.dims()[0]);
            let qweight = QuantizedMatrix::quantize_symmetric_per_row(w.data(), rows, cols);
            conv.weight = ConvWeight::Int8 {
                qweight: Arc::new(qweight),
                act_scale,
            };
        }
        Self::from_parts(self.config.clone(), parts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Filter surgery (see [`ShrunkNetwork`]): the shrunk network
    /// computes exactly what the masked network computes at inference
    /// (masked channels contribute zero either way), with genuinely
    /// fewer parameters and MACs — the deployment artifact of the
    /// static-pruning baselines.
    ///
    /// # Panics
    ///
    /// Panics if a mask's length disagrees with its tap's channel count,
    /// a mask prunes *all* channels of a layer, or the network is int8
    /// (surgery ranks and slices fp32 filters; shrink before quantizing).
    pub fn shrink(&self, masks: &BTreeMap<usize, Vec<bool>>) -> ShrunkNetwork {
        ShrunkNetwork::compile(&self.net, masks, self.config.input_channels)
    }
}

impl Network for Vgg {
    fn forward_hooked(
        &mut self,
        input: &Tensor,
        mode: Mode,
        hook: &mut dyn FeatureHook,
    ) -> Tensor {
        self.net.forward_hooked(input, mode, hook)
    }

    fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        self.net.backward(grad_logits)
    }

    fn forward_measured(
        &mut self,
        input: &Tensor,
        hook: &mut dyn FeatureHook,
        counter: &mut MacCounter,
    ) -> Tensor {
        self.net.forward_measured(input, hook, counter)
    }

    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.net.visit_params_mut(visitor);
    }

    fn visit_buffers_mut(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        self.net.visit_buffers_mut(visitor);
    }

    fn taps(&self) -> Vec<TapInfo> {
        self.net.taps()
    }

    fn visit_tap_convs(&self, visitor: &mut dyn FnMut(usize, &Conv2d)) {
        self.net.visit_tap_convs(visitor);
    }

    fn conv_shapes(&self) -> Vec<ConvShape> {
        self.config.conv_shapes()
    }

    fn describe(&self) -> String {
        let dtype = if self.is_int8() { "int8-quantized " } else { "" };
        format!(
            "{dtype}vgg(blocks={:?}, input={}x{}, classes={})",
            self.config
                .blocks
                .iter()
                .map(|b| (b.layers, b.channels))
                .collect::<Vec<_>>(),
            self.config.input_size,
            self.config.input_size,
            self.config.classes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplist::pool_mask;
    use crate::tap::NoopHook;
    use antidote_nn::masked::FeatureMask;
    use antidote_nn::loss::softmax_cross_entropy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn tiny() -> Vgg {
        let mut rng = SmallRng::seed_from_u64(1);
        Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3))
    }

    /// An fp32 network and its int8 transform. Weights at init are
    /// already representative enough for scale math; generous activation
    /// scales keep everything in range.
    fn int8_pair(config: VggConfig) -> (Vgg, Vgg) {
        let vgg = Vgg::new(&mut SmallRng::seed_from_u64(3), config);
        let int8 = vgg.quantize(0.01, &vec![0.05; vgg.taps().len()]);
        (vgg, int8)
    }

    fn tiny_int8_pair() -> (Vgg, Vgg) {
        int8_pair(VggConfig::vgg_tiny(8, 3))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Keeps the even channels of every tap, for every item.
    #[derive(Debug)]
    struct HalfChannels;

    impl FeatureHook for HalfChannels {
        fn on_feature(
            &mut self,
            _tap: TapInfo,
            feature: &Tensor,
            _mode: Mode,
        ) -> Option<Vec<FeatureMask>> {
            let (n, c, _, _) = feature.shape().as_nchw().unwrap();
            let ch: Vec<bool> = (0..c).map(|i| i % 2 == 0).collect();
            Some(vec![
                FeatureMask {
                    channel: Some(ch),
                    spatial: None
                };
                n
            ])
        }
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny();
        let y = net.forward(&Tensor::zeros([2, 3, 8, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(net.taps().len(), 2);
    }

    #[test]
    fn backward_runs_and_fills_grads() {
        let mut net = tiny();
        let x = Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.013).sin());
        let y = net.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&y, &[0, 1]);
        let gin = net.backward(&out.grad);
        assert_eq!(gin.dims(), x.dims());
        let mut total_grad = 0.0;
        net.visit_params_mut(&mut |p| total_grad += p.grad.norm_sq());
        assert!(total_grad > 0.0, "gradients should be nonzero");
    }

    #[test]
    fn end_to_end_gradient_check() {
        // Numerical check through the whole network (a few coordinates).
        let mut net = tiny();
        let x = Tensor::from_fn([1, 3, 8, 8], |i| (i as f32 * 0.037).cos() * 0.5);
        let labels = [1usize];
        let y = net.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&y, &labels);
        net.zero_grad();
        net.backward(&out.grad);

        // collect analytic grads
        let mut grads: Vec<f32> = Vec::new();
        net.visit_params_mut(&mut |p| grads.extend_from_slice(p.grad.data()));

        let eps = 1e-2f32;
        let loss_at = |net: &mut Vgg, x: &Tensor| -> f32 {
            let y = net.forward(x, Mode::Eval);
            softmax_cross_entropy(&y, &labels).loss
        };
        // perturb a few parameters across layers, addressed by their flat
        // index in visit order
        let probe: Vec<usize> = vec![0, 50, 120];
        let mut checked = 0;
        for &target in &probe {
            let mut flat_index;
            // +eps
            flat_index = 0;
            net.visit_params_mut(&mut |p| {
                let len = p.len();
                if target >= flat_index && target < flat_index + len {
                    p.value.data_mut()[target - flat_index] += eps;
                }
                flat_index += len;
            });
            let fp = loss_at(&mut net, &x);
            // -2eps
            flat_index = 0;
            net.visit_params_mut(&mut |p| {
                let len = p.len();
                if target >= flat_index && target < flat_index + len {
                    p.value.data_mut()[target - flat_index] -= 2.0 * eps;
                }
                flat_index += len;
            });
            let fm = loss_at(&mut net, &x);
            // restore
            flat_index = 0;
            net.visit_params_mut(&mut |p| {
                let len = p.len();
                if target >= flat_index && target < flat_index + len {
                    p.value.data_mut()[target - flat_index] += eps;
                }
                flat_index += len;
            });
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads[target];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "grad mismatch at {target}: num={num} ana={ana}"
            );
            checked += 1;
        }
        assert_eq!(checked, probe.len());
    }

    #[test]
    fn hook_masks_are_applied_and_backpropagated() {
        #[derive(Debug)]
        struct KillFirstChannel;
        impl FeatureHook for KillFirstChannel {
            fn on_feature(
                &mut self,
                _tap: TapInfo,
                feature: &Tensor,
                _mode: Mode,
            ) -> Option<Vec<FeatureMask>> {
                let (n, c, _, _) = feature.shape().as_nchw().unwrap();
                let mut ch = vec![true; c];
                ch[0] = false;
                Some(vec![
                    FeatureMask {
                        channel: Some(ch),
                        spatial: None
                    };
                    n
                ])
            }
        }
        let mut net = tiny();
        let x = Tensor::from_fn([1, 3, 8, 8], |i| (i as f32 * 0.05).sin());
        let y_plain = net.forward(&x, Mode::Eval);
        let y_masked = net.forward_hooked(&x, Mode::Eval, &mut KillFirstChannel);
        assert!(!y_plain.allclose(&y_masked, 1e-6), "mask must change logits");

        // Backward must not crash and must respect the mask.
        let y = net.forward_hooked(&x, Mode::Train, &mut KillFirstChannel);
        let out = softmax_cross_entropy(&y, &[0]);
        net.zero_grad();
        let g = net.backward(&out.grad);
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn measured_forward_matches_hooked_forward() {
        let mut net = tiny();
        let x = Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.021).sin());
        let logits_mult = net.forward_hooked(&x, Mode::Eval, &mut HalfChannels);
        let mut counter = MacCounter::new();
        let logits_meas = net.forward_measured(&x, &mut HalfChannels, &mut counter);
        assert!(
            logits_mult.allclose(&logits_meas, 1e-3),
            "masked executor must be numerically equivalent"
        );
        // And it must do fewer MACs than the dense path.
        let mut dense_counter = MacCounter::new();
        let _ = net.forward_measured(&x, &mut NoopHook, &mut dense_counter);
        assert!(counter.total() < dense_counter.total());
    }

    #[test]
    fn pool_mask_downsamples_any_semantics() {
        let m = FeatureMask {
            channel: Some(vec![true, false]),
            spatial: Some(vec![
                true, false, false, false, // row 0
                false, false, false, false, // row 1
                false, false, false, false, // row 2
                false, false, false, true, // row 3
            ]),
        };
        let p = pool_mask(&m, 4, 4, 2);
        assert_eq!(p.channel, Some(vec![true, false]));
        assert_eq!(p.spatial, Some(vec![true, false, false, true]));
    }

    #[test]
    fn param_count_is_plausible() {
        let mut net = tiny();
        // conv1: 3*4*9+4, conv2: 4*8*9+8, linear: (8*2*2)*3+3
        let expect = (3 * 4 * 9 + 4) + (4 * 8 * 9 + 8) + (8 * 4 * 3 + 3);
        assert_eq!(net.param_count(), expect);
    }
    #[test]
    fn int8_forward_tracks_fp32_logits_at_equal_counted_macs() {
        let (mut vgg, mut q) = tiny_int8_pair();
        let x = Tensor::from_fn([2, 3, 8, 8], |i| ((i as f32 * 0.013).sin()) * 0.5);
        let mut cf = MacCounter::new();
        let yf = vgg.forward_measured(&x, &mut NoopHook, &mut cf);
        let mut cq = MacCounter::new();
        let yq = q.forward_measured(&x, &mut NoopHook, &mut cq);
        assert_eq!(yf.dims(), yq.dims());
        assert_eq!(cf.total(), cq.total(), "counted MACs must match fp32");
        // Same argmax per item: quantization noise must not flip the
        // prediction on a smooth input.
        for item in 0..2 {
            let row = |t: &Tensor| {
                let d = t.data();
                let c = t.dims()[1];
                (0..c)
                    .max_by(|&a, &b| d[item * c + a].total_cmp(&d[item * c + b]))
                    .unwrap()
            };
            assert_eq!(row(&yf), row(&yq), "argmax flipped on item {item}");
        }
    }

    #[test]
    fn masked_int8_forward_counts_the_fp32_executors_macs() {
        let (mut vgg, mut q) = tiny_int8_pair();
        let x = Tensor::from_fn([2, 3, 8, 8], |i| ((i as f32 * 0.021).cos()) * 0.5);
        let mut dense = MacCounter::new();
        let _ = q.forward_measured(&x, &mut NoopHook, &mut dense);
        let mut pruned = MacCounter::new();
        let _ = q.forward_measured(&x, &mut HalfChannels, &mut pruned);
        assert!(pruned.total() < dense.total());
        let mut fp32_pruned = MacCounter::new();
        let _ = vgg.forward_measured(&x, &mut HalfChannels, &mut fp32_pruned);
        assert_eq!(pruned.total(), fp32_pruned.total());
    }

    #[test]
    fn int8_network_is_eval_only() {
        let (_, mut q) = tiny_int8_pair();
        let x = Tensor::zeros([1, 3, 8, 8]);
        // Eval-mode hooked forward works…
        let y = q.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 3]);
        // …and the network exposes no trainable parameters or tap convs.
        assert_eq!(q.param_count(), 0);
        let mut visited = 0;
        q.visit_tap_convs(&mut |_, _| visited += 1);
        assert_eq!(visited, 0);
        assert!(q.describe().starts_with("int8-quantized vgg("));
        assert_eq!(q.taps().len(), 2);
        assert_eq!(q.conv_shapes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "eval-only")]
    fn int8_train_mode_forward_panics() {
        let (_, mut q) = tiny_int8_pair();
        let _ = q.forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Train);
    }

    #[test]
    #[should_panic(expected = "eval-only")]
    fn int8_backward_panics() {
        let (_, mut q) = tiny_int8_pair();
        let _ = q.backward(&Tensor::zeros([1, 3]));
    }

    #[test]
    #[should_panic(expected = "one activation scale per tap")]
    fn quantize_scale_count_mismatch_panics() {
        let _ = tiny().quantize(0.01, &[0.05]);
    }

    #[test]
    #[should_panic(expected = "already int8")]
    fn quantizing_twice_panics() {
        let (_, q) = tiny_int8_pair();
        let _ = q.quantize(0.01, &[0.05, 0.05]);
    }

    #[test]
    #[should_panic(expected = "needs fp32 weights")]
    fn shrinking_an_int8_network_panics() {
        let (_, q) = tiny_int8_pair();
        let _ = q.shrink(&BTreeMap::new());
    }

    #[test]
    fn quantized_parts_round_trip_is_bit_exact() {
        for config in [
            VggConfig::vgg_tiny(8, 3),
            VggConfig::vgg_tiny(8, 3).with_batchnorm(),
        ] {
            let (_, mut q) = int8_pair(config);
            let mut rebuilt = Vgg::from_parts(q.config().clone(), q.to_parts()).expect("valid parts");
            let x = Tensor::from_fn([2, 3, 8, 8], |i| ((i as f32 * 0.017).sin()) * 0.4);
            let mut ca = MacCounter::new();
            let ya = q.forward_measured(&x, &mut NoopHook, &mut ca);
            let mut cb = MacCounter::new();
            let yb = rebuilt.forward_measured(&x, &mut NoopHook, &mut cb);
            assert_eq!(ca.total(), cb.total());
            assert_eq!(bits(&ya), bits(&yb));
            assert_eq!(
                bits(&q.forward(&x, Mode::Eval)),
                bits(&rebuilt.forward(&x, Mode::Eval))
            );
            assert_eq!(q.taps(), rebuilt.taps());
            assert_eq!(q.describe(), rebuilt.describe());
        }
    }

    /// The network's state in visit order: parameters, then buffers.
    fn state_of(net: &mut Vgg) -> (Vec<Tensor>, Vec<Tensor>) {
        let (mut params, mut buffers) = (Vec::new(), Vec::new());
        net.visit_params_mut(&mut |p| params.push(p.value.clone()));
        net.visit_buffers_mut(&mut |b| buffers.push(b.clone()));
        (params, buffers)
    }

    #[test]
    fn from_params_shares_the_tensors_and_reproduces_the_network() {
        for config in [
            VggConfig::vgg_tiny(8, 3),
            VggConfig::vgg_tiny(8, 3).with_batchnorm(),
        ] {
            let mut net = Vgg::new(&mut SmallRng::seed_from_u64(5), config.clone());
            let x = Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.019).sin());
            // Moves the running statistics off their defaults, so a
            // rebuild that dropped them would serve different logits.
            let _ = net.forward(&x, Mode::Train);
            let (params, buffers) = state_of(&mut net);
            let mut rebuilt = Vgg::from_params(config, &params, &buffers).expect("own state fits");
            let (built_params, built_buffers) = state_of(&mut rebuilt);
            assert_eq!(built_buffers.len(), buffers.len());
            for (built, given) in built_params.iter().chain(&built_buffers).zip(params.iter().chain(&buffers)) {
                assert!(built.shares_storage(given));
            }
            assert_eq!(
                bits(&net.forward(&x, Mode::Eval)),
                bits(&rebuilt.forward(&x, Mode::Eval))
            );
            let running: usize = buffers.iter().map(Tensor::len).sum();
            assert_eq!(running, if rebuilt.config().batchnorm { 2 * (4 + 8) } else { 0 });
            assert_eq!(
                rebuilt.weight_bytes(),
                4 * (rebuilt.param_count() + running)
            );
        }
    }

    #[test]
    fn from_params_rejects_inconsistent_input_without_panicking() {
        type Corrupt = fn(&mut VggConfig, &mut Vec<Tensor>, &mut Vec<Tensor>);
        let cases: [(&str, Corrupt); 9] = [
            ("too few tensors", |_, p, _| p.truncate(3)),
            ("too many tensors", |_, p, _| p.push(Tensor::zeros([3]))),
            ("no tensors", |_, p, _| p.clear()),
            ("extra buffer", |_, _, b| b.push(Tensor::zeros([4]))),
            ("conv weight shape", |_, p, _| {
                p[0] = Tensor::zeros([4, 3, 3, 5])
            }),
            ("conv weight rank", |_, p, _| p[2] = Tensor::zeros([8 * 4 * 9])),
            ("non-finite conv weight", |_, p, _| p[0].data_mut()[0] = f32::NAN),
            ("classifier bias shape", |c, p, _| {
                *p.last_mut().unwrap() = Tensor::zeros([c.classes + 1])
            }),
            ("invalid config", |c, _, _| c.input_size = 7),
        ];
        for batchnorm in [false, true] {
            let mut base = VggConfig::vgg_tiny(8, 3);
            base.batchnorm = batchnorm;
            let (good, buffers) =
                state_of(&mut Vgg::new(&mut SmallRng::seed_from_u64(6), base.clone()));
            for (name, corrupt) in cases {
                let (mut config, mut params, mut bufs) = (base.clone(), good.clone(), buffers.clone());
                corrupt(&mut config, &mut params, &mut bufs);
                assert!(
                    Vgg::from_params(config, &params, &bufs).is_err(),
                    "{name} must be rejected (batchnorm={batchnorm})"
                );
            }
            // The state of the other batch-norm setting never fits.
            let mut other = base.clone();
            other.batchnorm = !batchnorm;
            assert!(Vgg::from_params(other, &good, &buffers).is_err());
            if batchnorm {
                // Parameters without their running statistics (an older
                // checkpoint) are refused, not filled with defaults.
                assert!(Vgg::from_params(base.clone(), &good, &[]).is_err());
                let mut bad = buffers.clone();
                bad[1].data_mut()[0] = f32::INFINITY;
                assert!(Vgg::from_params(base, &good, &bad).is_err());
            }
        }
    }

    #[test]
    fn clone_shares_every_weight_buffer() {
        let (vgg, q) = int8_pair(VggConfig::vgg_tiny(8, 3).with_batchnorm());
        for net in [vgg, q] {
            let copy = net.clone();
            for (a, b) in net.net.ops.iter().zip(&copy.net.ops) {
                let shared = match (a, b) {
                    (Op::Conv(ConvOp::F32(a)), Op::Conv(ConvOp::F32(b))) => {
                        a.weight().value.shares_storage(&b.weight().value)
                            && a.bias().value.shares_storage(&b.bias().value)
                    }
                    (Op::Conv(ConvOp::Int8(a)), Op::Conv(ConvOp::Int8(b))) => {
                        Arc::ptr_eq(a.qweight(), b.qweight())
                    }
                    (Op::Bn(a), Op::Bn(b)) => {
                        a.gamma().value.shares_storage(&b.gamma().value)
                            && a.running_var().shares_storage(b.running_var())
                    }
                    (Op::Linear(a), Op::Linear(b)) => {
                        a.weight().value.shares_storage(&b.weight().value)
                    }
                    _ => true,
                };
                assert!(shared, "{a:?} was deep-copied");
            }
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_int8_input_without_panicking() {
        fn int8(c: &mut crate::ConvParts) -> (&mut Arc<QuantizedMatrix>, &mut f32) {
            match &mut c.weight {
                ConvWeight::Int8 { qweight, act_scale } => (qweight, act_scale),
                ConvWeight::F32(_) => unreachable!("int8 network"),
            }
        }
        type Corrupt = fn(&mut VggConfig, &mut crate::VggParts);
        let cases: [(&str, Corrupt); 10] = [
            ("conv count", |_, p| p.convs.truncate(1)),
            ("weight shape", |_, p| Arc::make_mut(int8(&mut p.convs[0]).0).rows += 1),
            ("truncated scales", |_, p| {
                Arc::make_mut(int8(&mut p.convs[1]).0).scales.truncate(1)
            }),
            ("activation scale", |_, p| *int8(&mut p.convs[0]).1 = f32::NAN),
            ("mixed dtypes", |_, p| {
                p.convs[0].weight = ConvWeight::F32(Tensor::zeros([4, 3, 3, 3]))
            }),
            ("non-finite conv bias", |_, p| p.convs[1].bias.data_mut()[0] = f32::NAN),
            ("non-finite classifier", |_, p| {
                p.linear_weight.data_mut()[0] = f32::INFINITY
            }),
            ("classifier bias shape", |c, p| {
                p.linear_bias = Tensor::zeros([c.classes + 1])
            }),
            ("missing batch norms", |c, _| c.batchnorm = true),
            ("invalid config", |c, _| c.input_size = 7),
        ];
        let (_, q) = tiny_int8_pair();
        for (name, corrupt) in cases {
            let mut config = q.config().clone();
            let mut parts = q.to_parts();
            corrupt(&mut config, &mut parts);
            assert!(
                Vgg::from_parts(config, parts).is_err(),
                "{name} must be rejected"
            );
        }
    }
}
