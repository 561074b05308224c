//! CIFAR-style ResNet with skip connections and odd-layer-only pruning
//! taps.
//!
//! The paper (Sec. V-B b) prunes only the *odd* conv layers of each
//! residual group: the skip connection forces even (second) conv outputs
//! to keep their channel count, so taps fire after `conv1`'s activation
//! inside each basic block.

use crate::config::{ConvShape, ResNetConfig};
use crate::network::Network;
use crate::oplist::{ConvOp, Op, OpList, Projection};
use crate::shrunk::ShrunkNetwork;
use crate::tap::{FeatureHook, TapInfo};
use antidote_nn::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use antidote_nn::masked::MacCounter;
use antidote_nn::{Mode, Parameter};
use antidote_tensor::Tensor;
use rand::Rng;
use std::collections::BTreeMap;

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
    net: OpList,
}

impl ResNet {
    /// Builds a ResNet with freshly initialized weights: a stem conv →
    /// \[bn\] → relu, then per basic block `fork → conv1 → [bn1] → relu →
    /// tap → conv2 → [bn2] → join → relu`, then global average pooling
    /// and the linear head.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: ResNetConfig) -> Self {
        let bn = |channels| config.batchnorm.then(|| BatchNorm2d::new(channels));
        let mut in_ch = config.group_channels[0];
        let mut net = OpList::default();
        let stem = Conv2d::new(rng, config.input_channels, in_ch, 3, 1, 1);
        net.conv(ConvOp::F32(stem), bn(in_ch));
        net.ops.push(Op::Relu(Relu::new()));
        for g in 0..3 {
            let ch = config.group_channels[g];
            for b in 0..config.blocks_per_group {
                let stride = if g > 0 && b == 0 { 2 } else { 1 };
                // 1×1 stride-matching projection on the skip path when
                // shapes change. Drawn before the block's convs: seeded
                // networks and their checkpoints depend on the RNG order.
                let projection = (stride != 1 || in_ch != ch).then(|| {
                    Box::new(Projection {
                        conv: Conv2d::new(rng, in_ch, ch, 1, stride, 0),
                        bn: bn(ch),
                    })
                });
                net.ops.push(Op::Fork);
                let conv1 = Conv2d::new(rng, in_ch, ch, 3, stride, 1);
                net.conv(ConvOp::F32(conv1), bn(ch));
                // Tap: the prunable odd-layer feature map.
                net.relu_tap(g, ch, config.group_spatial(g));
                let conv2 = Conv2d::new(rng, ch, ch, 3, 1, 1);
                net.conv(ConvOp::F32(conv2), bn(ch));
                net.ops.push(Op::Join { projection });
                net.ops.push(Op::Relu(Relu::new()));
                in_ch = ch;
            }
        }
        net.ops.push(Op::GlobalAvgPool(GlobalAvgPool::new()));
        let head = Linear::new(rng, config.group_channels[2], config.classes);
        net.ops.push(Op::Linear(head));
        Self { config, net }
    }

    /// The generating configuration.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// Filter surgery (see [`ShrunkNetwork`]). Because of the skip
    /// connections only the odd (first) conv of each basic block shrinks
    /// its output — exactly the layers the paper declares prunable
    /// (Sec. V-B b): the masked filters are removed from `conv1`/`bn1`
    /// and from `conv2`'s input slices, while block outputs keep their
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if a mask's length disagrees with its tap's channel count
    /// or prunes all channels of a layer.
    pub fn shrink(&self, masks: &BTreeMap<usize, Vec<bool>>) -> ShrunkNetwork {
        ShrunkNetwork::compile(&self.net, masks, self.config.input_channels)
    }
}

impl Network for ResNet {
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
    use crate::tap::NoopHook;
    use antidote_nn::loss::softmax_cross_entropy;
    use antidote_nn::masked::FeatureMask;
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
        // conv2 is the conv right after each tap.
        let mut after_tap = false;
        for op in &mut net.net.ops {
            match op {
                Op::Tap { .. } => after_tap = true,
                Op::Conv(ConvOp::F32(conv2)) if after_tap => {
                    conv2.weight_mut().value.data_mut().fill(0.0);
                    after_tap = false;
                }
                _ => {}
            }
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
        let projections: Vec<bool> = net
            .net
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Join { projection } => Some(projection.is_some()),
                _ => None,
            })
            .collect();
        assert_eq!(projections, [false, true, true]);
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
