//! CIFAR-style ResNet with skip connections and odd-layer-only pruning
//! taps.
//!
//! The paper (Sec. V-B b) prunes only the *odd* conv layers of each
//! residual group: the skip connection forces even (second) conv outputs
//! to keep their channel count, so taps fire after `conv1`'s activation
//! inside each basic block.

use crate::config::{ConvShape, ResNetConfig};
use crate::network::Network;
use crate::profiled::{profiled_masked_conv, ConvRef};
use crate::tap::{masks_to_tensor, FeatureHook, TapId, TapInfo};
use antidote_nn::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use antidote_nn::masked::{masked_conv2d, FeatureMask, MacCounter};
use antidote_nn::{Layer, Mode, Parameter};
use antidote_tensor::Tensor;
use rand::Rng;

/// One basic residual block: `relu(bn2(conv2(tap(relu(bn1(conv1(x)))))) +
/// shortcut(x))`.
#[derive(Debug)]
struct BasicBlock {
    conv1: Conv2d,
    bn1: Option<BatchNorm2d>,
    relu1: Relu,
    conv2: Conv2d,
    bn2: Option<BatchNorm2d>,
    relu2: Relu,
    /// 1×1 stride-matching projection on the skip path when shapes change.
    projection: Option<(Conv2d, Option<BatchNorm2d>)>,
    tap: TapInfo,
    /// Mask tensor applied at the tap (train mode), for backward.
    tap_mask: Option<Tensor>,
    /// Input cached for the skip path backward.
    skip_cache: Option<Tensor>,
}

impl BasicBlock {
    #[allow(clippy::too_many_arguments)]
    fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        batchnorm: bool,
        tap: TapInfo,
    ) -> Self {
        let projection = (stride != 1 || in_channels != out_channels).then(|| {
            (
                Conv2d::new(rng, in_channels, out_channels, 1, stride, 0),
                batchnorm.then(|| BatchNorm2d::new(out_channels)),
            )
        });
        Self {
            conv1: Conv2d::new(rng, in_channels, out_channels, 3, stride, 1),
            bn1: batchnorm.then(|| BatchNorm2d::new(out_channels)),
            relu1: Relu::new(),
            conv2: Conv2d::new(rng, out_channels, out_channels, 3, 1, 1),
            bn2: batchnorm.then(|| BatchNorm2d::new(out_channels)),
            relu2: Relu::new(),
            projection,
            tap,
            tap_mask: None,
            skip_cache: None,
        }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode, hook: &mut dyn FeatureHook) -> Tensor {
        if mode.is_train() {
            self.skip_cache = Some(x.clone());
        }
        let mut h = self.conv1.forward(x, mode);
        if let Some(bn) = &mut self.bn1 {
            h = bn.forward(&h, mode);
        }
        h = self.relu1.forward(&h, mode);
        // Tap: the prunable odd-layer feature map.
        self.tap_mask = None;
        if let Some(item_masks) = hook.on_feature(self.tap, &h, mode) {
            let (n, c, hh, ww) = h.shape().as_nchw().expect("tap expects NCHW");
            let m = masks_to_tensor(&item_masks, n, c, hh, ww);
            h = h.zip(&m, |a, b| a * b);
            if mode.is_train() {
                self.tap_mask = Some(m);
            }
        }
        h = self.conv2.forward(&h, mode);
        if let Some(bn) = &mut self.bn2 {
            h = bn.forward(&h, mode);
        }
        let skip = match &mut self.projection {
            Some((conv, bn)) => {
                let mut s = conv.forward(x, mode);
                if let Some(bn) = bn {
                    s = bn.forward(&s, mode);
                }
                s
            }
            None => x.clone(),
        };
        self.relu2.forward(&(&h + &skip), mode)
    }

    /// Measured-MAC inference: conv2 executes through the masked kernel
    /// using the tap's masks; conv1 and the projection run dense (their
    /// inputs are unpruned).
    ///
    /// `layer_base` is conv1's forward-order index in `conv_shapes()`
    /// (conv2 is `layer_base + 1`) for per-layer profiling attribution;
    /// the projection is not in `conv_shapes` and is timed under the
    /// aggregate `fwd.projection` span.
    fn forward_measured(
        &mut self,
        x: &Tensor,
        hook: &mut dyn FeatureHook,
        counter: &mut MacCounter,
        layer_base: usize,
    ) -> Tensor {
        let mode = Mode::Eval;
        let n = x.dims()[0];
        let keep_all = vec![FeatureMask::keep_all(); n];
        let mut h = profiled_masked_conv(layer_base, x, ConvRef::F32(&self.conv1), &keep_all, counter);
        if let Some(bn) = &mut self.bn1 {
            h = bn.forward(&h, mode);
        }
        h = self.relu1.forward(&h, mode);
        let masks = match hook.on_feature(self.tap, &h, mode) {
            Some(item_masks) => {
                let (nn, c, hh, ww) = h.shape().as_nchw().expect("tap expects NCHW");
                let m = masks_to_tensor(&item_masks, nn, c, hh, ww);
                h = h.zip(&m, |a, b| a * b);
                item_masks
            }
            None => keep_all.clone(),
        };
        h = profiled_masked_conv(layer_base + 1, &h, ConvRef::F32(&self.conv2), &masks, counter);
        if let Some(bn) = &mut self.bn2 {
            h = bn.forward(&h, mode);
        }
        let skip = match &mut self.projection {
            Some((conv, bn)) => {
                let _span = antidote_obs::span("fwd.projection");
                let mut s = masked_conv2d(
                    x,
                    &conv.weight().value,
                    Some(&conv.bias().value),
                    conv.geometry(),
                    &keep_all,
                    counter,
                );
                if let Some(bn) = bn {
                    s = bn.forward(&s, mode);
                }
                s
            }
            None => x.clone(),
        };
        self.relu2.forward(&(&h + &skip), mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.relu2.backward(grad_out);
        // Main path.
        let mut gm = g.clone();
        if let Some(bn) = &mut self.bn2 {
            gm = bn.backward(&gm);
        }
        gm = self.conv2.backward(&gm);
        if let Some(m) = self.tap_mask.take() {
            gm = gm.zip(&m, |a, b| a * b);
        }
        gm = self.relu1.backward(&gm);
        if let Some(bn) = &mut self.bn1 {
            gm = bn.backward(&gm);
        }
        gm = self.conv1.backward(&gm);
        // Skip path.
        let gs = match &mut self.projection {
            Some((conv, bn)) => {
                let mut s = g;
                if let Some(bn) = bn {
                    s = bn.backward(&s);
                }
                conv.backward(&s)
            }
            None => g,
        };
        self.skip_cache = None;
        &gm + &gs
    }

    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.conv1.visit_params_mut(visitor);
        if let Some(bn) = &mut self.bn1 {
            bn.visit_params_mut(visitor);
        }
        self.conv2.visit_params_mut(visitor);
        if let Some(bn) = &mut self.bn2 {
            bn.visit_params_mut(visitor);
        }
        if let Some((conv, bn)) = &mut self.projection {
            conv.visit_params_mut(visitor);
            if let Some(bn) = bn {
                bn.visit_params_mut(visitor);
            }
        }
    }
}

/// A CIFAR-style ResNet instantiated from a [`ResNetConfig`].
///
/// # Examples
///
/// ```
/// use antidote_models::{ResNet, ResNetConfig, Network};
/// use antidote_nn::Mode;
/// use antidote_tensor::Tensor;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut net = ResNet::new(&mut rng, ResNetConfig::resnet_small(16, 4, 4));
/// let logits = net.forward(&Tensor::zeros([2, 3, 16, 16]), Mode::Eval);
/// assert_eq!(logits.dims(), &[2, 4]);
/// ```
#[derive(Debug)]
pub struct ResNet {
    config: ResNetConfig,
    stem_conv: Conv2d,
    stem_bn: Option<BatchNorm2d>,
    stem_relu: Relu,
    blocks: Vec<BasicBlock>,
    pool: GlobalAvgPool,
    head: Linear,
    taps: Vec<TapInfo>,
}

impl ResNet {
    /// Builds a ResNet with freshly initialized weights.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: ResNetConfig) -> Self {
        let stem_conv = Conv2d::new(rng, config.input_channels, config.group_channels[0], 3, 1, 1);
        let stem_bn = config.batchnorm.then(|| BatchNorm2d::new(config.group_channels[0]));
        let mut blocks = Vec::new();
        let mut taps = Vec::new();
        let mut in_ch = config.group_channels[0];
        let mut tap_idx = 0;
        for g in 0..3 {
            let ch = config.group_channels[g];
            let spatial = config.group_spatial(g);
            for b in 0..config.blocks_per_group {
                let stride = if g > 0 && b == 0 { 2 } else { 1 };
                let tap = TapInfo {
                    id: TapId(tap_idx),
                    block: g,
                    channels: ch,
                    spatial,
                };
                taps.push(tap);
                blocks.push(BasicBlock::new(rng, in_ch, ch, stride, config.batchnorm, tap));
                tap_idx += 1;
                in_ch = ch;
            }
        }
        let head = Linear::new(rng, config.group_channels[2], config.classes);
        Self {
            config,
            stem_conv,
            stem_bn,
            stem_relu: Relu::new(),
            blocks,
            pool: GlobalAvgPool::new(),
            head,
            taps,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// Compiles *static* per-tap channel keep-masks into a physically
    /// smaller inference network. Because of the skip connections only
    /// the odd (first) conv of each basic block shrinks its output —
    /// exactly the layers the paper declares prunable (Sec. V-B b): the
    /// masked filters are removed from `conv1`/`bn1` and from `conv2`'s
    /// input slices, while block outputs keep their width.
    ///
    /// # Panics
    ///
    /// Panics if a mask's length disagrees with its tap's channel count
    /// or prunes all channels of a layer.
    pub fn shrink(
        &self,
        masks: &std::collections::BTreeMap<usize, Vec<bool>>,
    ) -> ShrunkResNet {
        use crate::shrunk::{shrink_conv_weight, shrink_vec};
        let blocks = self
            .blocks
            .iter()
            .enumerate()
            .map(|(tap, block)| {
                let cout = block.conv1.out_channels();
                let keep = masks.get(&tap).cloned().unwrap_or_else(|| vec![true; cout]);
                assert_eq!(keep.len(), cout, "mask length mismatch at tap {tap}");
                let all_in = vec![true; block.conv1.in_channels()];
                let all_out = vec![true; block.conv2.out_channels()];
                let g1 = block.conv1.geometry();
                let conv1 = Conv2d::from_parts(
                    shrink_conv_weight(&block.conv1.weight().value, &keep, &all_in),
                    shrink_vec(&block.conv1.bias().value, &keep),
                    g1.stride,
                    g1.padding,
                );
                let bn1 = block.bn1.as_ref().map(|bn| {
                    BatchNorm2d::from_parts(
                        shrink_vec(&bn.gamma().value, &keep),
                        shrink_vec(&bn.beta().value, &keep),
                        shrink_vec(bn.running_mean(), &keep),
                        shrink_vec(bn.running_var(), &keep),
                    )
                });
                let g2 = block.conv2.geometry();
                let conv2 = Conv2d::from_parts(
                    shrink_conv_weight(&block.conv2.weight().value, &all_out, &keep),
                    block.conv2.bias().value.clone(),
                    g2.stride,
                    g2.padding,
                );
                let bn2 = block.bn2.as_ref().map(clone_bn);
                let projection = block.projection.as_ref().map(|(conv, bn)| {
                    let g = conv.geometry();
                    (
                        Conv2d::from_parts(
                            conv.weight().value.clone(),
                            conv.bias().value.clone(),
                            g.stride,
                            g.padding,
                        ),
                        bn.as_ref().map(clone_bn),
                    )
                });
                ShrunkBasicBlock {
                    conv1,
                    bn1,
                    conv2,
                    bn2,
                    projection,
                }
            })
            .collect();
        let stem_geom = self.stem_conv.geometry();
        ShrunkResNet {
            stem_conv: Conv2d::from_parts(
                self.stem_conv.weight().value.clone(),
                self.stem_conv.bias().value.clone(),
                stem_geom.stride,
                stem_geom.padding,
            ),
            stem_bn: self.stem_bn.as_ref().map(clone_bn),
            blocks,
            head: Linear::from_parts(
                self.head.weight().value.clone(),
                self.head.bias().value.clone(),
            ),
            input_size: self.config.input_size,
        }
    }
}

/// Clones a batch-norm layer's inference state (weights + running stats).
fn clone_bn(bn: &BatchNorm2d) -> BatchNorm2d {
    BatchNorm2d::from_parts(
        bn.gamma().value.clone(),
        bn.beta().value.clone(),
        bn.running_mean().clone(),
        bn.running_var().clone(),
    )
}

/// A basic block after filter surgery (inference-only).
#[derive(Debug)]
struct ShrunkBasicBlock {
    conv1: Conv2d,
    bn1: Option<BatchNorm2d>,
    conv2: Conv2d,
    bn2: Option<BatchNorm2d>,
    projection: Option<(Conv2d, Option<BatchNorm2d>)>,
}

/// An inference-only ResNet produced by [`ResNet::shrink`].
#[derive(Debug)]
pub struct ShrunkResNet {
    stem_conv: Conv2d,
    stem_bn: Option<BatchNorm2d>,
    blocks: Vec<ShrunkBasicBlock>,
    head: Linear,
    input_size: usize,
}

impl ShrunkResNet {
    /// Inference forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the original network's input
    /// shape.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mode = Mode::Eval;
        let mut relu = Relu::new();
        let mut x = self.stem_conv.forward(input, mode);
        if let Some(bn) = &mut self.stem_bn {
            x = bn.forward(&x, mode);
        }
        x = relu.forward(&x, mode);
        for block in &mut self.blocks {
            let mut h = block.conv1.forward(&x, mode);
            if let Some(bn) = &mut block.bn1 {
                h = bn.forward(&h, mode);
            }
            h = relu.forward(&h, mode);
            h = block.conv2.forward(&h, mode);
            if let Some(bn) = &mut block.bn2 {
                h = bn.forward(&h, mode);
            }
            let skip = match &mut block.projection {
                Some((conv, bn)) => {
                    let mut s = conv.forward(&x, mode);
                    if let Some(bn) = bn {
                        s = bn.forward(&s, mode);
                    }
                    s
                }
                None => x.clone(),
            };
            x = relu.forward(&(&h + &skip), mode);
        }
        let mut pool = GlobalAvgPool::new();
        let x = pool.forward(&x, mode);
        self.head.forward(&x, mode)
    }

    /// Dense multiply–accumulate count for one image at the network's
    /// native input size.
    pub fn macs(&self) -> u64 {
        let mut total = 0u64;
        let mut hw = self.input_size;
        total += self.stem_conv.macs(hw, hw);
        for block in &self.blocks {
            if block.conv1.geometry().stride == 2 {
                hw /= 2;
            }
            // conv1 output spatial == conv2 spatial == hw after stride.
            let in_hw = hw * block.conv1.geometry().stride;
            total += block.conv1.macs(in_hw, in_hw);
            total += block.conv2.macs(hw, hw);
            if let Some((conv, _)) = &block.projection {
                total += conv.macs(in_hw, in_hw);
            }
        }
        total += self.head.macs();
        total
    }

    /// Total parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = self.stem_conv.param_count() + self.head.param_count();
        if let Some(bn) = &mut self.stem_bn {
            n += bn.param_count();
        }
        for block in &mut self.blocks {
            n += block.conv1.param_count() + block.conv2.param_count();
            if let Some(bn) = &mut block.bn1 {
                n += bn.param_count();
            }
            if let Some(bn) = &mut block.bn2 {
                n += bn.param_count();
            }
            if let Some((conv, bn)) = &mut block.projection {
                n += conv.param_count();
                if let Some(bn) = bn {
                    n += bn.param_count();
                }
            }
        }
        n
    }
}

impl Network for ResNet {
    fn forward_hooked(
        &mut self,
        input: &Tensor,
        mode: Mode,
        hook: &mut dyn FeatureHook,
    ) -> Tensor {
        let mut x = self.stem_conv.forward(input, mode);
        if let Some(bn) = &mut self.stem_bn {
            x = bn.forward(&x, mode);
        }
        x = self.stem_relu.forward(&x, mode);
        for block in &mut self.blocks {
            x = block.forward(&x, mode, hook);
        }
        let x = self.pool.forward(&x, mode);
        self.head.forward(&x, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let g = self.head.backward(grad_logits);
        let mut g = self.pool.backward(&g);
        for block in self.blocks.iter_mut().rev() {
            g = block.backward(&g);
        }
        g = self.stem_relu.backward(&g);
        if let Some(bn) = &mut self.stem_bn {
            g = bn.backward(&g);
        }
        self.stem_conv.backward(&g)
    }

    fn forward_measured(
        &mut self,
        input: &Tensor,
        hook: &mut dyn FeatureHook,
        counter: &mut MacCounter,
    ) -> Tensor {
        let mode = Mode::Eval;
        let n = input.dims()[0];
        let keep_all = vec![FeatureMask::keep_all(); n];
        // Stem conv is conv_shapes() layer 0; block i's convs are
        // layers 1 + 2i and 2 + 2i.
        let mut x = profiled_masked_conv(0, input, ConvRef::F32(&self.stem_conv), &keep_all, counter);
        if let Some(bn) = &mut self.stem_bn {
            x = bn.forward(&x, mode);
        }
        x = self.stem_relu.forward(&x, mode);
        for (bi, block) in self.blocks.iter_mut().enumerate() {
            x = block.forward_measured(&x, hook, counter, 1 + 2 * bi);
        }
        let x = self.pool.forward(&x, mode);
        let _s = antidote_obs::span("fwd.linear");
        counter.add(self.head.macs() * n as u64);
        self.head.forward(&x, mode)
    }

    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.stem_conv.visit_params_mut(visitor);
        if let Some(bn) = &mut self.stem_bn {
            bn.visit_params_mut(visitor);
        }
        for block in &mut self.blocks {
            block.visit_params_mut(visitor);
        }
        self.head.visit_params_mut(visitor);
    }

    fn taps(&self) -> Vec<TapInfo> {
        self.taps.clone()
    }

    fn visit_tap_convs(&self, visitor: &mut dyn FnMut(usize, &Conv2d)) {
        for (tap_idx, block) in self.blocks.iter().enumerate() {
            visitor(tap_idx, &block.conv1);
        }
    }

    fn conv_shapes(&self) -> Vec<ConvShape> {
        self.config.conv_shapes()
    }

    fn describe(&self) -> String {
        format!(
            "resnet(blocks_per_group={}, channels={:?}, input={}x{}, classes={})",
            self.config.blocks_per_group,
            self.config.group_channels,
            self.config.input_size,
            self.config.input_size,
            self.config.classes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_nn::loss::softmax_cross_entropy;
    use crate::tap::NoopHook;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny() -> ResNet {
        let mut rng = SmallRng::seed_from_u64(3);
        ResNet::new(&mut rng, ResNetConfig::resnet_small(8, 3, 4))
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny();
        let y = net.forward(&Tensor::zeros([2, 3, 8, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(net.taps().len(), 3); // one per basic block
    }

    #[test]
    fn backward_runs_and_fills_grads() {
        let mut net = tiny();
        let x = Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let y = net.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&y, &[0, 2]);
        let gin = net.backward(&out.grad);
        assert_eq!(gin.dims(), x.dims());
        let mut total = 0.0;
        net.visit_params_mut(&mut |p| total += p.grad.norm_sq());
        assert!(total > 0.0);
    }

    #[test]
    fn end_to_end_gradient_check() {
        // Perturb a couple of stem-conv weights; BN makes tolerances
        // looser but the directional agreement must hold.
        let mut net = tiny();
        let x = Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.029).cos() * 0.5);
        let labels = [1usize, 0];
        let y = net.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&y, &labels);
        net.zero_grad();
        net.backward(&out.grad);
        let mut grads = Vec::new();
        net.visit_params_mut(&mut |p| grads.extend_from_slice(p.grad.data()));

        let eps = 1e-2f32;
        // Loss must be evaluated in Train mode so BN uses batch stats
        // (matching what backward differentiated), but running stats drift
        // identically for both sides of the central difference.
        let loss_at = |net: &mut ResNet, x: &Tensor| -> f32 {
            let y = net.forward(x, Mode::Train);
            softmax_cross_entropy(&y, &labels).loss
        };
        for &target in &[0usize, 30, 80] {
            let mut flat;
            flat = 0;
            net.visit_params_mut(&mut |p| {
                let len = p.len();
                if target >= flat && target < flat + len {
                    p.value.data_mut()[target - flat] += eps;
                }
                flat += len;
            });
            let fp = loss_at(&mut net, &x);
            flat = 0;
            net.visit_params_mut(&mut |p| {
                let len = p.len();
                if target >= flat && target < flat + len {
                    p.value.data_mut()[target - flat] -= 2.0 * eps;
                }
                flat += len;
            });
            let fm = loss_at(&mut net, &x);
            flat = 0;
            net.visit_params_mut(&mut |p| {
                let len = p.len();
                if target >= flat && target < flat + len {
                    p.value.data_mut()[target - flat] += eps;
                }
                flat += len;
            });
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads[target];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "grad mismatch at {target}: num={num} ana={ana}"
            );
        }
    }

    #[test]
    fn skip_connection_is_live() {
        // Zero out all main-path conv2 weights: output should still vary
        // with the input thanks to the skip path.
        let mut net = tiny();
        for block in &mut net.blocks {
            block.conv2.weight_mut().value.data_mut().fill(0.0);
        }
        let a = net.forward(&Tensor::full([1, 3, 8, 8], 0.5), Mode::Eval);
        let b = net.forward(&Tensor::full([1, 3, 8, 8], -0.5), Mode::Eval);
        assert!(!a.allclose(&b, 1e-6), "skip path must carry signal");
    }

    #[test]
    fn measured_forward_matches_hooked_forward() {
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
        let mut net = tiny();
        let x = Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.023).sin());
        let logits_mult = net.forward_hooked(&x, Mode::Eval, &mut HalfChannels);
        let mut counter = MacCounter::new();
        let logits_meas = net.forward_measured(&x, &mut HalfChannels, &mut counter);
        assert!(logits_mult.allclose(&logits_meas, 1e-3));
        let mut dense = MacCounter::new();
        let _ = net.forward_measured(&x, &mut NoopHook, &mut dense);
        assert!(counter.total() < dense.total());
    }

    #[test]
    fn downsampling_projection_exists_only_at_group_entries() {
        let net = tiny();
        assert!(net.blocks[0].projection.is_none());
        assert!(net.blocks[1].projection.is_some());
        assert!(net.blocks[2].projection.is_some());
    }

    #[test]
    fn tap_channels_match_group_channels() {
        let net = tiny();
        let taps = net.taps();
        assert_eq!(taps[0].channels, 4);
        assert_eq!(taps[1].channels, 8);
        assert_eq!(taps[2].channels, 16);
        assert_eq!(taps[1].spatial, 4);
    }
}
