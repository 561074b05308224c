//! Physical filter surgery: turn *static* channel masks into a genuinely
//! smaller network.
//!
//! AntiDote's dynamic masks must stay masks (they change per input), but
//! the static baselines (L1/Taylor/GM/FO) prune the *same* filters for
//! every input — so their masks can be compiled away: masked filters are
//! deleted from the conv weights, the following layer's input slices are
//! deleted too, and batch-norm statistics are carried over. The result
//! computes exactly what the masked network computes, with a genuinely
//! smaller weight footprint and MAC count (the deployment artifact of
//! static pruning). It is one transform over the shared op list, so VGG
//! and ResNet shrink the same way and the result runs on the same eval
//! pass.

use crate::oplist::{ConvOp, Op, OpList};
use crate::tap::NoopHook;
use antidote_nn::layers::{BatchNorm2d, Conv2d, Linear};
use antidote_nn::Mode;
use antidote_tensor::Tensor;
use std::collections::BTreeMap;

/// An inference-only network produced by compiling static per-tap
/// channel keep-masks into physically smaller layers ([`crate::Vgg::shrink`],
/// [`crate::ResNet::shrink`]).
///
/// Masked filters are removed from the tapped conv and its batch norm,
/// and the matching input slices from the next conv (or the matching
/// stripes from the classifier). Taps absent from the masks keep all
/// channels. Residual connections never lose channels: a ResNet tap
/// sits inside its block, so only `conv1` narrows (Sec. V-B b).
///
/// # Examples
///
/// ```
/// use antidote_models::{Vgg, VggConfig, Network};
/// use antidote_nn::Mode;
/// use antidote_tensor::Tensor;
/// use rand::{rngs::SmallRng, SeedableRng};
/// use std::collections::BTreeMap;
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
/// let mut masks = BTreeMap::new();
/// masks.insert(0usize, vec![true, false, true, false]); // prune half of tap 0
/// let mut small = net.shrink(&masks);
/// let y = small.forward(&Tensor::zeros([1, 3, 8, 8]));
/// assert_eq!(y.dims(), &[1, 2]);
/// assert!(small.param_count() < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ShrunkNetwork {
    net: OpList,
}

impl ShrunkNetwork {
    /// Filter surgery over `net`, whose input has `input_channels`
    /// channels; `masks` maps tap index to channel keep-mask.
    ///
    /// # Panics
    ///
    /// Panics if a mask's length disagrees with its tap's channel count,
    /// a mask prunes *all* channels of a layer, or a conv is int8.
    pub(crate) fn compile(
        net: &OpList,
        masks: &BTreeMap<usize, Vec<bool>>,
        input_channels: usize,
    ) -> Self {
        let tap_of: BTreeMap<usize, usize> = net
            .tapped_convs()
            .into_iter()
            .map(|(i, tap)| (i, tap.id.0))
            .collect();
        // Which channels of the current activation survive.
        let mut keep = vec![true; input_channels];
        let mut ops = Vec::new();
        for (i, op) in net.ops.iter().enumerate() {
            ops.push(match op {
                Op::Conv(ConvOp::F32(conv)) => {
                    let out_keep = match tap_of.get(&i).and_then(|t| masks.get(t).map(|m| (t, m))) {
                        Some((tap, mask)) => {
                            assert_eq!(
                                mask.len(),
                                conv.out_channels(),
                                "mask length mismatch at tap {tap}"
                            );
                            mask.clone()
                        }
                        None => vec![true; conv.out_channels()],
                    };
                    let geom = conv.geometry();
                    let shrunk = Conv2d::from_parts(
                        shrink_conv_weight(&conv.weight().value, &out_keep, &keep),
                        shrink_vec(&conv.bias().value, &out_keep),
                        geom.stride,
                        geom.padding,
                    );
                    keep = out_keep;
                    Op::Conv(ConvOp::F32(shrunk))
                }
                Op::Conv(ConvOp::Int8(_)) => panic!("filter surgery needs fp32 weights"),
                Op::Bn(bn) => Op::Bn(BatchNorm2d::from_parts(
                    shrink_vec(&bn.gamma().value, &keep),
                    shrink_vec(&bn.beta().value, &keep),
                    shrink_vec(bn.running_mean(), &keep),
                    shrink_vec(bn.running_var(), &keep),
                )),
                Op::Linear(fc) => {
                    let spatial = fc.in_features() / keep.len();
                    Op::Linear(Linear::from_parts(
                        shrink_linear_weight(&fc.weight().value, &keep, spatial),
                        fc.bias().value.clone(),
                    ))
                }
                Op::Tap { .. } => continue, // compiled away
                _ => op.clone(),
            });
        }
        Self {
            net: OpList { ops },
        }
    }

    /// Inference forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the original network's input
    /// shape.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.net.forward_hooked(input, Mode::Eval, &mut NoopHook)
    }

    /// Total trainable scalar count of the shrunk network.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.net.visit_params_mut(&mut |p| n += p.len());
        n
    }

    /// Dense multiply–accumulate count for one image of `(h, w)` input.
    pub fn macs(&self, mut h: usize, mut w: usize) -> u64 {
        let mut total = 0u64;
        let mut forks = Vec::new();
        for op in &self.net.ops {
            match op {
                Op::Conv(ConvOp::F32(l)) => {
                    total += l.macs(h, w);
                    (h, w) = l.geometry().output_size(h, w);
                }
                Op::Pool(l) => {
                    h /= l.window();
                    w /= l.window();
                }
                Op::Linear(l) => total += l.macs(),
                Op::Fork => forks.push((h, w)),
                Op::Join { projection } => {
                    let (fh, fw) = forks.pop().expect("a join follows its fork");
                    total += projection.as_ref().map_or(0, |p| p.conv.macs(fh, fw));
                }
                _ => {}
            }
        }
        total
    }
}

/// Selects `keep`-marked output filters and `in_keep`-marked input slices
/// of a `(Cout, Cin, K, K)` conv weight.
pub(crate) fn shrink_conv_weight(weight: &Tensor, keep: &[bool], in_keep: &[bool]) -> Tensor {
    let d = weight.dims();
    let (cout, cin, k) = (d[0], d[1], d[2]);
    assert_eq!(keep.len(), cout, "output mask length mismatch");
    assert_eq!(in_keep.len(), cin, "input mask length mismatch");
    let new_out = keep.iter().filter(|&&b| b).count();
    let new_in = in_keep.iter().filter(|&&b| b).count();
    assert!(new_out > 0 && new_in > 0, "cannot shrink to zero channels");
    let mut data = Vec::with_capacity(new_out * new_in * k * k);
    for (co, &keep_out) in keep.iter().enumerate() {
        if !keep_out {
            continue;
        }
        for (ci, &keep_in) in in_keep.iter().enumerate() {
            if !keep_in {
                continue;
            }
            let start = ((co * cin) + ci) * k * k;
            data.extend_from_slice(&weight.data()[start..start + k * k]);
        }
    }
    Tensor::from_vec(data, &[new_out, new_in, k, k]).expect("shrunk weight is consistent")
}

/// Selects `keep`-marked entries of a rank-1 tensor.
pub(crate) fn shrink_vec(t: &Tensor, keep: &[bool]) -> Tensor {
    assert_eq!(t.len(), keep.len(), "mask length mismatch");
    let data: Vec<f32> = t
        .data()
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(&v, _)| v)
        .collect();
    assert!(!data.is_empty(), "cannot shrink to zero channels");
    let len = data.len();
    Tensor::from_vec(data, &[len]).expect("shrunk vector is consistent")
}

/// Selects classifier weight columns for kept channels: the flattened
/// feature layout is `(channels, spatial)`, so each kept channel keeps
/// its whole `spatial` stripe.
pub(crate) fn shrink_linear_weight(weight: &Tensor, keep: &[bool], spatial: usize) -> Tensor {
    let (out_features, in_features) = weight
        .shape()
        .as_matrix()
        .expect("classifier weight is rank 2");
    assert_eq!(
        in_features,
        keep.len() * spatial,
        "classifier input features mismatch"
    );
    let new_in = keep.iter().filter(|&&b| b).count() * spatial;
    let mut data = Vec::with_capacity(out_features * new_in);
    for o in 0..out_features {
        let row = &weight.data()[o * in_features..(o + 1) * in_features];
        for (c, &k) in keep.iter().enumerate() {
            if k {
                data.extend_from_slice(&row[c * spatial..(c + 1) * spatial]);
            }
        }
    }
    Tensor::from_vec(data, &[out_features, new_in]).expect("shrunk classifier is consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_weight_shrinks_both_dims() {
        let w = Tensor::from_fn([3, 2, 1, 1], |i| i as f32);
        let s = shrink_conv_weight(&w, &[true, false, true], &[false, true]);
        assert_eq!(s.dims(), &[2, 1, 1, 1]);
        // filter 0 in-channel 1 = index 1; filter 2 in-channel 1 = index 5
        assert_eq!(s.data(), &[1.0, 5.0]);
    }

    #[test]
    fn vec_shrinks() {
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert_eq!(shrink_vec(&v, &[true, false, true]).data(), &[1.0, 3.0]);
    }

    #[test]
    fn linear_weight_keeps_channel_stripes() {
        // 1 output, 2 channels x 2 spatial = 4 inputs
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let s = shrink_linear_weight(&w, &[false, true], 2);
        assert_eq!(s.dims(), &[1, 2]);
        assert_eq!(s.data(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "zero channels")]
    fn all_pruned_panics() {
        let w = Tensor::zeros([2, 1, 1, 1]);
        shrink_conv_weight(&w, &[false, false], &[true]);
    }
}
