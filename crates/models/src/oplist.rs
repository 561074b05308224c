//! The one op list both model families run on, and its walkers.
//!
//! A network is a flat sequence of [`Op`]s. VGG is conv → \[bn\] → relu
//! → tap per layer, a max pool per block, then flatten → linear. ResNet
//! wraps each basic block in [`Op::Fork`] … [`Op::Join`] and ends on a
//! global average pool. Every pass — hooked forward, backward, measured
//! forward, the parameter and tap-conv visits — is written once, here.
//!
//! Hooked and measured forwards stay two passes on purpose: they run
//! different conv executors (the layer's own, which caches for backward,
//! vs. the masked executor that skips) and different mask plumbing
//! (multiply and cache for backward vs. masks carried to the next conv).

use crate::profiled::{profiled_masked_conv, ConvRef};
use crate::tap::{masks_to_tensor, FeatureHook, TapId, TapInfo};
use antidote_nn::layers::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu};
use antidote_nn::masked::{masked_conv2d, FeatureMask, MacCounter};
use antidote_nn::quant::QuantizedConv2d;
use antidote_nn::{Layer, Mode, Parameter};
use antidote_tensor::Tensor;

/// A conv op's weights, tagged by numeric domain. The tag is the only
/// thing that tells an fp32 network from an int8 one.
#[derive(Debug, Clone)]
pub(crate) enum ConvOp {
    F32(Conv2d),
    Int8(QuantizedConv2d),
}

const EVAL_ONLY: &str =
    "an int8 Vgg is an eval-only inference artifact; train and backpropagate on the fp32 network";

impl ConvOp {
    fn as_ref(&self) -> ConvRef<'_> {
        match self {
            ConvOp::F32(conv) => ConvRef::F32(conv),
            ConvOp::Int8(conv) => ConvRef::Int8(conv),
        }
    }
}

/// The 1×1 stride-matching conv (+ batch norm) a residual join runs on
/// its saved input when the block changes shape.
#[derive(Debug, Clone)]
pub(crate) struct Projection {
    pub(crate) conv: Conv2d,
    pub(crate) bn: Option<BatchNorm2d>,
}

impl Projection {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let s = self.conv.forward(x, mode);
        match &mut self.bn {
            Some(bn) => bn.forward(&s, mode),
            None => s,
        }
    }

    fn backward(&mut self, g: &Tensor) -> Tensor {
        match &mut self.bn {
            Some(bn) => self.conv.backward(&bn.backward(g)),
            None => self.conv.backward(g),
        }
    }
}

/// One element of the flat op sequence.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Conv(ConvOp),
    Bn(BatchNorm2d),
    Relu(Relu),
    Pool(MaxPool2d),
    GlobalAvgPool(GlobalAvgPool),
    Flatten(Flatten),
    Linear(Linear),
    /// A feature tap; caches the applied mask tensor for backward.
    Tap {
        info: TapInfo,
        mask: Option<Tensor>,
    },
    /// Saves the residual block's input for its [`Op::Join`].
    Fork,
    /// Adds the input saved by the matching [`Op::Fork`], through the
    /// projection when there is one, to the main path (`main + skip`).
    Join { projection: Option<Box<Projection>> },
}

/// A network's op sequence and the passes over it.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpList {
    pub(crate) ops: Vec<Op>,
}

impl OpList {
    /// Appends a conv and, when given, its batch norm.
    pub(crate) fn conv(&mut self, conv: ConvOp, bn: Option<BatchNorm2d>) {
        self.ops.push(Op::Conv(conv));
        self.ops.extend(bn.map(Op::Bn));
    }

    /// Appends a ReLU and the next tap behind it.
    pub(crate) fn relu_tap(&mut self, block: usize, channels: usize, spatial: usize) {
        let info = TapInfo {
            id: TapId(self.taps().len()),
            block,
            channels,
            spatial,
        };
        self.ops.push(Op::Relu(Relu::new()));
        self.ops.push(Op::Tap { info, mask: None });
    }

    /// All taps, in forward order.
    pub(crate) fn taps(&self) -> Vec<TapInfo> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Tap { info, .. } => Some(*info),
                _ => None,
            })
            .collect()
    }

    /// `(op index, tap)` of the conv right before each tap, in tap order.
    pub(crate) fn tapped_convs(&self) -> Vec<(usize, TapInfo)> {
        let mut last_conv = None;
        let mut tapped = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::Conv(_) => last_conv = Some(i),
                Op::Tap { info, .. } => tapped.extend(last_conv.take().map(|c| (c, *info))),
                _ => {}
            }
        }
        tapped
    }

    /// `true` when the convs carry int8 payloads (an eval-only network).
    pub(crate) fn is_int8(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::Conv(ConvOp::Int8(_))))
    }

    pub(crate) fn forward_hooked(
        &mut self,
        input: &Tensor,
        mode: Mode,
        hook: &mut dyn FeatureHook,
    ) -> Tensor {
        if self.is_int8() {
            // No activation caches to fill, so the skipping executor is
            // the int8 network's only forward path.
            assert!(!mode.is_train(), "{EVAL_ONLY}");
            return self.forward_measured(input, hook, &mut MacCounter::new());
        }
        let mut x = input.clone();
        let mut skips = Vec::new();
        for op in &mut self.ops {
            x = match op {
                Op::Conv(ConvOp::F32(l)) => l.forward(&x, mode),
                Op::Conv(ConvOp::Int8(_)) => unreachable!("int8 networks returned above"),
                Op::Bn(l) => l.forward(&x, mode),
                Op::Relu(l) => l.forward(&x, mode),
                Op::Pool(l) => l.forward(&x, mode),
                Op::GlobalAvgPool(l) => l.forward(&x, mode),
                Op::Flatten(l) => l.forward(&x, mode),
                Op::Linear(l) => l.forward(&x, mode),
                Op::Tap { info, mask } => {
                    *mask = None;
                    if let Some(item_masks) = hook.on_feature(*info, &x, mode) {
                        let (n, c, h, w) = x.shape().as_nchw().expect("tap expects NCHW");
                        let m = masks_to_tensor(&item_masks, n, c, h, w);
                        let masked = x.zip(&m, |a, b| a * b);
                        if mode.is_train() {
                            *mask = Some(m);
                        }
                        masked
                    } else {
                        x
                    }
                }
                Op::Fork => {
                    skips.push(x.clone());
                    x
                }
                Op::Join { projection } => {
                    let skip = skips.pop().expect("a join follows its fork");
                    match projection {
                        Some(p) => &x + &p.forward(&skip, mode),
                        None => &x + &skip,
                    }
                }
            };
        }
        x
    }

    pub(crate) fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        assert!(!self.is_int8(), "{EVAL_ONLY}");
        let mut g = grad_logits.clone();
        let mut skip_grads = Vec::new();
        for op in self.ops.iter_mut().rev() {
            g = match op {
                Op::Conv(ConvOp::F32(l)) => l.backward(&g),
                Op::Conv(ConvOp::Int8(_)) => unreachable!("int8 networks panicked above"),
                Op::Bn(l) => l.backward(&g),
                Op::Relu(l) => l.backward(&g),
                Op::Pool(l) => l.backward(&g),
                Op::GlobalAvgPool(l) => l.backward(&g),
                Op::Flatten(l) => l.backward(&g),
                Op::Linear(l) => l.backward(&g),
                Op::Tap { mask, .. } => match mask.take() {
                    Some(m) => g.zip(&m, |a, b| a * b),
                    None => g,
                },
                Op::Join { projection } => {
                    skip_grads.push(match projection {
                        Some(p) => p.backward(&g),
                        None => g.clone(),
                    });
                    g
                }
                Op::Fork => &g + &skip_grads.pop().expect("a fork precedes its join"),
            };
        }
        g
    }

    pub(crate) fn forward_measured(
        &mut self,
        input: &Tensor,
        hook: &mut dyn FeatureHook,
        counter: &mut MacCounter,
    ) -> Tensor {
        let mode = Mode::Eval;
        let mut x = input.clone();
        let mut skips = Vec::new();
        // Masks from the most recent tap, consumed by the next conv.
        let mut pending: Option<Vec<FeatureMask>> = None;
        // Forward-order conv index, matching `conv_shapes()` for
        // per-layer profiling attribution (projections are not in it).
        let mut conv_idx = 0usize;
        for op in &mut self.ops {
            x = match op {
                Op::Conv(l) => {
                    let n = x.dims()[0];
                    let masks = pending
                        .take()
                        .unwrap_or_else(|| vec![FeatureMask::keep_all(); n]);
                    let out = profiled_masked_conv(conv_idx, &x, l.as_ref(), &masks, counter);
                    conv_idx += 1;
                    out
                }
                Op::Bn(l) => l.forward(&x, mode),
                Op::Relu(l) => l.forward(&x, mode),
                Op::Pool(l) => {
                    let (_, _, h, w) = x.shape().as_nchw().expect("pool expects NCHW");
                    if let Some(masks) = pending.take() {
                        pending = Some(
                            masks
                                .iter()
                                .map(|m| pool_mask(m, h, w, l.window()))
                                .collect(),
                        );
                    }
                    l.forward(&x, mode)
                }
                Op::GlobalAvgPool(l) => l.forward(&x, mode),
                Op::Flatten(l) => l.forward(&x, mode),
                Op::Linear(l) => {
                    let _s = antidote_obs::span("fwd.linear");
                    counter.add(l.macs() * x.dims()[0] as u64);
                    l.forward(&x, mode)
                }
                Op::Tap { info, mask } => {
                    *mask = None;
                    if let Some(item_masks) = hook.on_feature(*info, &x, mode) {
                        let (n, c, h, w) = x.shape().as_nchw().expect("tap expects NCHW");
                        let m = masks_to_tensor(&item_masks, n, c, h, w);
                        let masked = x.zip(&m, |a, b| a * b);
                        pending = Some(item_masks);
                        masked
                    } else {
                        pending = None;
                        x
                    }
                }
                Op::Fork => {
                    skips.push(x.clone());
                    x
                }
                Op::Join { projection } => {
                    let skip = skips.pop().expect("a join follows its fork");
                    match projection {
                        Some(p) => {
                            let Projection { conv, bn } = &mut **p;
                            let _span = antidote_obs::span("fwd.projection");
                            let keep_all = vec![FeatureMask::keep_all(); skip.dims()[0]];
                            let s = masked_conv2d(
                                &skip,
                                &conv.weight().value,
                                Some(&conv.bias().value),
                                conv.geometry(),
                                &keep_all,
                                counter,
                            );
                            let s = match bn {
                                Some(bn) => bn.forward(&s, mode),
                                None => s,
                            };
                            &x + &s
                        }
                        None => &x + &skip,
                    }
                }
            };
        }
        x
    }

    pub(crate) fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        if self.is_int8() {
            // Frozen inference constants, not parameters — the fp32
            // batch norms and classifier included.
            return;
        }
        for op in &mut self.ops {
            match op {
                Op::Conv(ConvOp::F32(l)) => l.visit_params_mut(visitor),
                Op::Bn(l) => l.visit_params_mut(visitor),
                Op::Linear(l) => l.visit_params_mut(visitor),
                Op::Join {
                    projection: Some(p),
                } => {
                    p.conv.visit_params_mut(visitor);
                    if let Some(bn) = &mut p.bn {
                        bn.visit_params_mut(visitor);
                    }
                }
                _ => {}
            }
        }
    }

    /// Visits the conv right before each tap. An int8 network visits
    /// nothing: static-pruning baselines rank filters on the fp32
    /// network before quantization.
    pub(crate) fn visit_tap_convs(&self, visitor: &mut dyn FnMut(usize, &Conv2d)) {
        for (i, tap) in self.tapped_convs() {
            if let Op::Conv(ConvOp::F32(conv)) = &self.ops[i] {
                visitor(tap.id.0, conv);
            }
        }
    }
}

/// Downsamples a tap's spatial keep-mask through a `k×k` max pool: a
/// pooled position stays kept if *any* position of its window was kept
/// (all-masked windows pool to exactly 0 on post-ReLU maps, so skipping
/// them is lossless).
pub(crate) fn pool_mask(mask: &FeatureMask, h: usize, w: usize, k: usize) -> FeatureMask {
    let spatial = mask.spatial.as_ref().map(|m| {
        let (ho, wo) = (h / k, w / k);
        let mut out = vec![false; ho * wo];
        for (oy, row) in out.chunks_mut(wo).enumerate() {
            for (ox, slot) in row.iter_mut().enumerate() {
                *slot = (0..k).any(|dy| (0..k).any(|dx| m[(oy * k + dy) * w + (ox * k + dx)]));
            }
        }
        out
    });
    FeatureMask {
        channel: mask.channel.clone(),
        spatial,
    }
}
