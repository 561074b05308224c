//! Masked (dynamically pruned) convolution executor with exact MAC
//! accounting.
//!
//! The paper's efficiency claim is that feature-map components masked out
//! by the attention mechanism "will be masked out and not participate in
//! the next layer's convolution computation" (Sec. III-B). This module is
//! the executor that realizes that claim: it skips every multiply–
//! accumulate whose input channel or input spatial column is masked, and
//! counts the MACs actually performed so FLOPs reductions are *measured*,
//! not just modeled.
//!
//! Batch items are independent (disjoint output slices, per-item MAC
//! tallies summed in item order), so the executor fans them out over the
//! `antidote_par` pool with bit-exact results at every
//! `ANTIDOTE_THREADS` budget. The loop nest exists once, generic over the
//! numeric domain: [`masked_conv2d`] is its fp32 entry point and
//! [`crate::quant::quantized_masked_conv2d`] its int8 one.

use antidote_tensor::conv::ConvGeometry;
use antidote_tensor::Tensor;

/// Per-input (per batch item) binary masks over a feature map, in the
/// sense of Eq. (3) (channel mask) and Eq. (4) (spatial-column mask).
///
/// `true` = keep. `None` means "no pruning in this dimension".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeatureMask {
    /// Channel keep-mask, length `C` of the masked feature map.
    pub channel: Option<Vec<bool>>,
    /// Spatial-column keep-mask, length `H·W` of the masked feature map.
    pub spatial: Option<Vec<bool>>,
}

impl FeatureMask {
    /// A mask that keeps everything.
    pub fn keep_all() -> Self {
        Self::default()
    }

    /// `true` if the mask keeps channel `c`.
    pub fn keeps_channel(&self, c: usize) -> bool {
        self.channel.as_ref().is_none_or(|m| m[c])
    }

    /// `true` if the mask keeps the spatial column at flat position `p`.
    pub fn keeps_position(&self, p: usize) -> bool {
        self.spatial.as_ref().is_none_or(|m| m[p])
    }

    /// Fraction of channels kept (1.0 when unmasked).
    pub fn channel_keep_fraction(&self) -> f64 {
        match &self.channel {
            None => 1.0,
            Some(m) => m.iter().filter(|&&b| b).count() as f64 / m.len() as f64,
        }
    }

    /// Fraction of spatial columns kept (1.0 when unmasked).
    pub fn spatial_keep_fraction(&self) -> f64 {
        match &self.spatial {
            None => 1.0,
            Some(m) => m.iter().filter(|&&b| b).count() as f64 / m.len() as f64,
        }
    }

    /// Applies the mask to a `(C, H, W)` feature map in place (Eq. 5's
    /// element-wise multiply with broadcast).
    ///
    /// # Panics
    ///
    /// Panics if mask lengths disagree with the map dimensions.
    pub fn apply_to_item(&self, c: usize, h: usize, w: usize, data: &mut [f32]) {
        let plane = h * w;
        assert_eq!(data.len(), c * plane, "feature map size mismatch");
        if let Some(cm) = &self.channel {
            assert_eq!(cm.len(), c, "channel mask length mismatch");
            for (ci, &keep) in cm.iter().enumerate() {
                if !keep {
                    data[ci * plane..(ci + 1) * plane].fill(0.0);
                }
            }
        }
        if let Some(sm) = &self.spatial {
            assert_eq!(sm.len(), plane, "spatial mask length mismatch");
            for ci in 0..c {
                let plane_data = &mut data[ci * plane..(ci + 1) * plane];
                for (p, &keep) in sm.iter().enumerate() {
                    if !keep {
                        plane_data[p] = 0.0;
                    }
                }
            }
        }
    }
}

/// Accumulates multiply–accumulate counts across an inference pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounter {
    macs: u64,
}

impl MacCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` MACs.
    pub fn add(&mut self, n: u64) {
        self.macs += n;
    }

    /// Total MACs recorded.
    pub fn total(&self) -> u64 {
        self.macs
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.macs = 0;
    }
}

/// Direct (loop-nest) dense convolution over `(N, C, H, W)`, counting
/// MACs. The reference cost model for [`masked_conv2d`]: identical loop
/// structure, no skipping.
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn dense_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
    counter: &mut MacCounter,
) -> Tensor {
    let masks = vec![FeatureMask::keep_all(); input.dims()[0]];
    masked_conv2d(input, weight, bias, geom, &masks, counter)
}

/// Convolution that skips masked input channels and masked input spatial
/// columns, per batch item.
///
/// Masked components contribute exactly zero (they are treated as removed
/// feature-map entries), and no MAC is counted or executed for them —
/// equivalent to multiplying the input by the binary mask first, but
/// cheaper.
///
/// # Panics
///
/// Panics if shapes disagree or `masks.len() != N`.
pub fn masked_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
    masks: &[FeatureMask],
    counter: &mut MacCounter,
) -> Tensor {
    let wd = weight.dims();
    assert_eq!(wd.len(), 4, "weight must be (Cout,Cin,K,K)");
    assert_eq!(Some(&wd[1]), input.dims().get(1), "weight Cin mismatch");
    assert_eq!(wd[2], geom.kernel, "weight kernel mismatch");
    let domain = TapDomain {
        name: "nn.masked_conv2d",
        weights: weight.data(),
        load: |v| v,
        dot: |_co, taps: &[(usize, f32)], filter: &[f32]| {
            let mut acc = 0.0f32;
            for &(widx, v) in taps {
                acc += v * filter[widx];
            }
            acc
        },
    };
    let bias = bias.map(Tensor::data);
    run_masked_conv(&domain, input, wd[0], bias, geom, masks, counter)
}

/// The numeric domain of one masked-executor call. The masks and the
/// geometry fix *which* taps a window gathers; the domain only fixes how
/// one tap is brought in and multiplied.
pub(crate) struct TapDomain<'a, E, L, D> {
    /// Span name of a call; its MAC counter is `<name>.macs`.
    pub name: &'static str,
    /// The `(Cout, Cin·K·K)` row-major filter matrix.
    pub weights: &'a [E],
    /// `load(v)` brings one kept input value into the domain.
    pub load: L,
    /// `dot(co, taps, filter)` is one window's contribution to output
    /// channel `co`: the gathered `(weight index, value)` taps against
    /// that channel's filter row, accumulated in tap order.
    pub dot: D,
}

/// The one window/tap-gather loop nest behind [`masked_conv2d`] and
/// [`crate::quant::quantized_masked_conv2d`]: per batch item, gather the
/// kept taps of every output window once, dot them against all `cout`
/// filter rows in `domain`, and charge `taps·cout` MACs per window.
///
/// Each item owns a disjoint output slice and its own MAC tally (summed
/// in item order), so items fan out over the `antidote_par` pool with
/// bit-exact results. Callers validate the weight shape against `input`.
pub(crate) fn run_masked_conv<E, L, D>(
    domain: &TapDomain<'_, E, L, D>,
    input: &Tensor,
    cout: usize,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
    masks: &[FeatureMask],
    counter: &mut MacCounter,
) -> Tensor
where
    E: Copy + Send + Sync,
    L: Fn(f32) -> E + Sync,
    D: Fn(usize, &[(usize, E)], &[E]) -> f32 + Sync,
{
    let _span = antidote_obs::span(domain.name);
    let (n, cin, h, w) = input.shape().as_nchw().expect("input must be NCHW");
    assert_eq!(masks.len(), n, "need one mask per batch item");
    let k = geom.kernel;
    let (hout, wout) = geom.output_size(h, w);
    let plane_in = h * w;
    let plane_out = hout * wout;
    let mut out = Tensor::zeros([n, cout, hout, wout]);
    let wdata = domain.weights;
    let in_data = input.data();

    let run_item = |mask: &FeatureMask, img: &[f32], out_item: &mut [f32]| -> u64 {
        let kept_channels: Vec<usize> = (0..cin).filter(|&c| mask.keeps_channel(c)).collect();
        if let Some(b) = bias {
            for co in 0..cout {
                out_item[co * plane_out..(co + 1) * plane_out].fill(b[co]);
            }
        }
        // The serve engine's inner loop: one taps buffer per item,
        // cleared per window — the former per-output-pixel `Vec`
        // allocation dominated small-batch serving profiles.
        let mut taps: Vec<(usize, E)> = Vec::with_capacity(kept_channels.len() * k * k);
        let mut macs = 0u64;
        for oy in 0..hout {
            for ox in 0..wout {
                // Gather the kept taps of this window once; reuse for all Cout.
                taps.clear();
                for &ci in &kept_channels {
                    let plane = &img[ci * plane_in..(ci + 1) * plane_in];
                    for ky in 0..k {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let p = iy as usize * w + ix as usize;
                            if !mask.keeps_position(p) {
                                continue;
                            }
                            taps.push(((ci * k + ky) * k + kx, (domain.load)(plane[p])));
                        }
                    }
                }
                for co in 0..cout {
                    let filter = &wdata[co * cin * k * k..(co + 1) * cin * k * k];
                    out_item[co * plane_out + oy * wout + ox] += (domain.dot)(co, &taps, filter);
                }
                macs += (taps.len() * cout) as u64;
            }
        }
        macs
    };

    let mut item_macs = vec![0u64; n];
    {
        let out_data = out.data_mut();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out_data
            .chunks_mut(cout * plane_out)
            .zip(masks.iter())
            .zip(item_macs.iter_mut())
            .enumerate()
            .map(|(ni, ((out_item, mask), macs_slot))| {
                let run_item = &run_item;
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let img = &in_data[ni * cin * plane_in..(ni + 1) * cin * plane_in];
                    *macs_slot = run_item(mask, img, out_item);
                });
                task
            })
            .collect();
        antidote_par::run_scoped(tasks);
    }
    let macs: u64 = item_macs.iter().sum();
    counter.add(macs);
    if antidote_obs::enabled() {
        antidote_obs::counter_add(&format!("{}.macs", domain.name), macs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_tensor::conv::conv2d_reference;
    use antidote_tensor::init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn dense_matches_reference_and_counts_full_macs() {
        let mut r = rng();
        let geom = ConvGeometry::new(3, 1, 1);
        let x = init::uniform(&mut r, &[1, 3, 6, 6], -1.0, 1.0);
        let w = init::uniform(&mut r, &[4, 3, 3, 3], -1.0, 1.0);
        let b = init::uniform(&mut r, &[4], -0.1, 0.1);
        let mut counter = MacCounter::new();
        let y = dense_conv2d(&x, &w, Some(&b), geom, &mut counter);
        let expect = conv2d_reference(&x.batch_item(0), &w, Some(&b), geom);
        assert!(y.batch_item(0).allclose(&expect, 1e-4));
        // Interior-window MAC count is bounded by the dense formula; with
        // padding, border windows have fewer valid taps.
        let upper = (4 * 3 * 9 * 36) as u64;
        assert!(counter.total() <= upper);
        assert!(counter.total() > upper / 2);
    }

    #[test]
    fn channel_mask_equals_zeroed_input() {
        let mut r = rng();
        let geom = ConvGeometry::new(3, 1, 1);
        let x = init::uniform(&mut r, &[2, 4, 5, 5], -1.0, 1.0);
        let w = init::uniform(&mut r, &[3, 4, 3, 3], -1.0, 1.0);
        let mask = FeatureMask {
            channel: Some(vec![true, false, true, false]),
            spatial: None,
        };
        let masks = vec![mask.clone(); 2];
        let mut c1 = MacCounter::new();
        let masked = masked_conv2d(&x, &w, None, geom, &masks, &mut c1);

        // Zero the masked channels manually, then dense conv.
        let mut xz = x.clone();
        for ni in 0..2 {
            let item = &mut xz.data_mut()[ni * 4 * 25..(ni + 1) * 4 * 25];
            mask.apply_to_item(4, 5, 5, item);
        }
        let mut c2 = MacCounter::new();
        let dense = dense_conv2d(&xz, &w, None, geom, &mut c2);
        assert!(masked.allclose(&dense, 1e-4));
        // Masked path must execute roughly half the MACs.
        assert!((c1.total() as f64) < 0.55 * c2.total() as f64);
    }

    #[test]
    fn spatial_mask_equals_zeroed_input() {
        let mut r = rng();
        let geom = ConvGeometry::new(3, 1, 1);
        let x = init::uniform(&mut r, &[1, 2, 4, 4], -1.0, 1.0);
        let w = init::uniform(&mut r, &[2, 2, 3, 3], -1.0, 1.0);
        // Keep only the left half of the columns.
        let spatial: Vec<bool> = (0..16).map(|p| p % 4 < 2).collect();
        let mask = FeatureMask {
            channel: None,
            spatial: Some(spatial),
        };
        let mut c1 = MacCounter::new();
        let masked = masked_conv2d(&x, &w, None, geom, &[mask.clone()], &mut c1);

        let mut xz = x.clone();
        mask.apply_to_item(2, 4, 4, xz.data_mut());
        let mut c2 = MacCounter::new();
        let dense = dense_conv2d(&xz, &w, None, geom, &mut c2);
        assert!(masked.allclose(&dense, 1e-4));
        assert!(c1.total() < c2.total());
    }

    #[test]
    fn combined_masks_compose() {
        let mut r = rng();
        let geom = ConvGeometry::new(3, 1, 1);
        let x = init::uniform(&mut r, &[1, 4, 4, 4], -1.0, 1.0);
        let w = init::uniform(&mut r, &[2, 4, 3, 3], -1.0, 1.0);
        let mask = FeatureMask {
            channel: Some(vec![true, true, false, false]),
            spatial: Some((0..16).map(|p| p < 8).collect()),
        };
        let mut c = MacCounter::new();
        let masked = masked_conv2d(&x, &w, None, geom, &[mask.clone()], &mut c);
        let mut xz = x.clone();
        mask.apply_to_item(4, 4, 4, xz.data_mut());
        let mut c2 = MacCounter::new();
        let dense = dense_conv2d(&xz, &w, None, geom, &mut c2);
        assert!(masked.allclose(&dense, 1e-4));
        // ~ quarter of the MACs (half channels * half columns)
        assert!((c.total() as f64) < 0.3 * c2.total() as f64);
    }

    #[test]
    fn keep_fractions() {
        let m = FeatureMask {
            channel: Some(vec![true, false, true, false]),
            spatial: Some(vec![true, true, true, false]),
        };
        assert!((m.channel_keep_fraction() - 0.5).abs() < 1e-9);
        assert!((m.spatial_keep_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(FeatureMask::keep_all().channel_keep_fraction(), 1.0);
    }

    #[test]
    fn per_item_masks_differ() {
        // Two batch items with different masks must see different pruning.
        let mut r = rng();
        let geom = ConvGeometry::new(1, 1, 0);
        let x = init::uniform(&mut r, &[2, 2, 2, 2], 1.0, 2.0); // strictly positive
        let w = Tensor::ones([1, 2, 1, 1]);
        let m0 = FeatureMask {
            channel: Some(vec![true, false]),
            spatial: None,
        };
        let m1 = FeatureMask {
            channel: Some(vec![false, false]),
            spatial: None,
        };
        let mut c = MacCounter::new();
        let y = masked_conv2d(&x, &w, None, geom, &[m0, m1], &mut c);
        // Item 1 fully masked -> exact zeros; item 0 partially kept -> nonzero.
        assert!(y.batch_item(1).data().iter().all(|&v| v == 0.0));
        assert!(y.batch_item(0).data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn counter_reset() {
        let mut c = MacCounter::new();
        c.add(5);
        assert_eq!(c.total(), 5);
        c.reset();
        assert_eq!(c.total(), 0);
    }
}
