//! Analytic FLOPs accounting for dynamic feature-map pruning.
//!
//! The paper counts convolution multiply–accumulates ("FLOPs") and
//! credits dynamic pruning with the computation the *next* layer skips:
//! a feature map pruned to channel-keep fraction `ck` and spatial-keep
//! fraction `sk` reduces the following conv's MACs to `ck · sk` of its
//! dense cost. [`layer_macs`] is that charge, the one copy of it: over
//! a schedule's fractions ([`analytic_flops`]) it reproduces the Table I
//! baseline/final FLOPs columns arithmetically, independent of training,
//! and the serving budget mapper runs it over the fractions the top-k
//! masks realize.
//!
//! The companion *measured* path
//! ([`crate::trainer::evaluate_measured`]) counts MACs the masked
//! executor actually performs; tests cross-validate the two.

use crate::pruner::PruneSchedule;
use antidote_models::ConvShape;
use serde::{Deserialize, Serialize};

/// Per-layer analytic FLOPs under a pruning schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerFlops {
    /// Layer index in forward order.
    pub layer: usize,
    /// Block/group of the layer.
    pub block: usize,
    /// Dense MACs.
    pub dense_macs: u64,
    /// MACs under the schedule (input-side keep fractions applied).
    pub pruned_macs: f64,
}

/// Whole-network analytic FLOPs breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlopsBreakdown {
    /// Sum of dense MACs over all conv layers.
    pub baseline_macs: u64,
    /// Sum of pruned MACs.
    pub pruned_macs: f64,
    /// Per-layer detail.
    pub per_layer: Vec<LayerFlops>,
}

impl FlopsBreakdown {
    /// FLOPs reduction as a percentage of the dense baseline.
    pub fn reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.pruned_macs / self.baseline_macs as f64)
    }
}

/// Channel-vs-spatial decomposition of a schedule's FLOPs reduction
/// (Fig. 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RedundancyComposition {
    /// Reduction achieved by the channel ratios alone (%).
    pub channel_pct: f64,
    /// Reduction achieved by the spatial ratios alone (%).
    pub spatial_pct: f64,
    /// Reduction of the combined schedule (%).
    pub combined_pct: f64,
}

/// The MAC charge of every conv layer in `shapes`, in forward order.
///
/// Layer `l` costs its dense MACs times the keep fractions of the
/// feature map it reads, `dense · ck · sk`. Those come from layer
/// `l-1`'s output when that output is prunable: `keep(tap, shape)` is
/// asked for them, where `tap` counts the prunable outputs before it (its
/// tap index) and `shape` is layer `l-1`. Every other layer, the first
/// included (it reads the raw image), is charged dense. This is the one
/// charge rule: [`analytic_flops`] feeds it a schedule's fractions, the
/// serving budget mapper the quantized and the realized ones.
pub fn layer_macs<'a, F>(shapes: &'a [ConvShape], mut keep: F) -> impl Iterator<Item = f64> + 'a
where
    F: FnMut(usize, &ConvShape) -> (f64, f64) + 'a,
{
    let mut taps = 0;
    let mut prev: Option<&ConvShape> = None;
    shapes.iter().map(move |shape| {
        let (ck, sk) = match prev {
            Some(p) if p.prunable_output => {
                taps += 1;
                keep(taps - 1, p)
            }
            _ => (1.0, 1.0),
        };
        prev = Some(shape);
        shape.macs() as f64 * ck * sk
    })
}

/// Evaluates the analytic FLOPs model for `shapes` under `schedule`:
/// [`layer_macs`] with `schedule.channel_keep/spatial_keep` of the
/// tapped layer's block.
///
/// # Examples
///
/// ```
/// use antidote_core::{flops::analytic_flops, PruneSchedule};
/// use antidote_models::VggConfig;
///
/// // Table I: VGG16/CIFAR10 with the paper's channel ratios gives a
/// // ~53-55% FLOPs reduction over the 3.13E+08 baseline.
/// let shapes = VggConfig::vgg16(32, 10).conv_shapes();
/// let schedule = PruneSchedule::channel_only(vec![0.2, 0.2, 0.6, 0.9, 0.9]);
/// let b = analytic_flops(&shapes, &schedule);
/// assert!((b.baseline_macs as f64 - 3.13e8).abs() / 3.13e8 < 0.01);
/// assert!(b.reduction_pct() > 50.0 && b.reduction_pct() < 60.0);
/// ```
pub fn analytic_flops(shapes: &[ConvShape], schedule: &PruneSchedule) -> FlopsBreakdown {
    let mut per_layer = Vec::with_capacity(shapes.len());
    let mut baseline = 0u64;
    let mut pruned = 0.0f64;
    let charges = layer_macs(shapes, |_, prev| {
        (
            schedule.channel_keep(prev.block),
            schedule.spatial_keep(prev.block),
        )
    });
    for (l, (shape, reduced)) in shapes.iter().zip(charges).enumerate() {
        let dense = shape.macs();
        baseline += dense;
        pruned += reduced;
        per_layer.push(LayerFlops {
            layer: l,
            block: shape.block,
            dense_macs: dense,
            pruned_macs: reduced,
        });
    }
    FlopsBreakdown {
        baseline_macs: baseline,
        pruned_macs: pruned,
        per_layer,
    }
}

/// Decomposes a schedule's reduction into channel-only and spatial-only
/// contributions (Fig. 4).
pub fn decompose(shapes: &[ConvShape], schedule: &PruneSchedule) -> RedundancyComposition {
    let ch = analytic_flops(
        shapes,
        &PruneSchedule::channel_only(schedule.channel_prune().to_vec()),
    );
    let sp = analytic_flops(
        shapes,
        &PruneSchedule::spatial_only(schedule.spatial_prune().to_vec()),
    );
    let both = analytic_flops(shapes, schedule);
    RedundancyComposition {
        channel_pct: ch.reduction_pct(),
        spatial_pct: sp.reduction_pct(),
        combined_pct: both.reduction_pct(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_models::{ResNetConfig, VggConfig};

    #[test]
    fn empty_schedule_means_no_reduction() {
        let shapes = VggConfig::vgg16(32, 10).conv_shapes();
        let b = analytic_flops(&shapes, &PruneSchedule::none());
        assert_eq!(b.pruned_macs, b.baseline_macs as f64);
        assert!(b.reduction_pct().abs() < 1e-9);
    }

    #[test]
    fn table1_vgg16_cifar10_proposed_row() {
        // Paper: [0.2 0.2 0.6 0.9 0.9] channel-only => 53.5% reduction,
        // final FLOPs 1.46E+08 from 3.13E+08 baseline. Our analytic model
        // (which credits every next-layer input) lands within ~2 points.
        let shapes = VggConfig::vgg16(32, 10).conv_shapes();
        let schedule = PruneSchedule::channel_only(vec![0.2, 0.2, 0.6, 0.9, 0.9]);
        let b = analytic_flops(&shapes, &schedule);
        let red = b.reduction_pct();
        assert!(
            (red - 53.5).abs() < 3.0,
            "reduction {red}% should be ≈53.5% (paper Table I)"
        );
    }

    #[test]
    fn table1_resnet56_proposed_row() {
        // Paper: channel [0.3 0.3 0.6] + spatial [0.6 0.6 0.6] on odd
        // layers only => 37.4% reduction from 1.28E+08.
        let shapes = ResNetConfig::resnet56(32, 10).conv_shapes();
        let schedule =
            PruneSchedule::new(vec![0.3, 0.3, 0.6], vec![0.6, 0.6, 0.6]);
        let b = analytic_flops(&shapes, &schedule);
        let red = b.reduction_pct();
        assert!(
            (red - 37.4).abs() < 5.0,
            "reduction {red}% should be ≈37.4% (paper Table I)"
        );
    }

    #[test]
    fn table1_vgg16_cifar100_settings() {
        let shapes = VggConfig::vgg16(32, 100).conv_shapes();
        let s1 = PruneSchedule::channel_only(vec![0.2, 0.2, 0.2, 0.8, 0.9]);
        let s2 = PruneSchedule::channel_only(vec![0.3, 0.2, 0.2, 0.9, 0.9]);
        let r1 = analytic_flops(&shapes, &s1).reduction_pct();
        let r2 = analytic_flops(&shapes, &s2).reduction_pct();
        assert!((r1 - 40.4).abs() < 4.0, "setting-1 {r1}% vs paper 40.4%");
        assert!((r2 - 44.9).abs() < 4.0, "setting-2 {r2}% vs paper 44.9%");
        assert!(r2 > r1, "setting-2 is strictly more aggressive");
    }

    #[test]
    fn table1_vgg16_imagenet_settings() {
        let shapes = VggConfig::vgg16(224, 100).conv_shapes();
        let s1 = PruneSchedule::new(
            vec![0.1, 0.0, 0.0, 0.0, 0.2],
            vec![0.5, 0.5, 0.5, 0.5, 0.5],
        );
        let s2 = PruneSchedule::new(
            vec![0.1, 0.0, 0.0, 0.0, 0.2],
            vec![0.5, 0.5, 0.5, 0.6, 0.6],
        );
        let r1 = analytic_flops(&shapes, &s1).reduction_pct();
        let r2 = analytic_flops(&shapes, &s2).reduction_pct();
        assert!((r1 - 51.2).abs() < 4.0, "setting-1 {r1}% vs paper 51.2%");
        assert!((r2 - 54.5).abs() < 4.0, "setting-2 {r2}% vs paper 54.5%");
        assert!(r2 > r1);
    }

    #[test]
    fn fig4_imagenet_is_spatial_dominant() {
        // Paper Fig. 4: on ImageNet-VGG16 channel redundancy is only 2.4%
        // of FLOPs while spatial is 52.1%.
        let shapes = VggConfig::vgg16(224, 100).conv_shapes();
        let schedule = PruneSchedule::new(
            vec![0.1, 0.0, 0.0, 0.0, 0.2],
            vec![0.5, 0.5, 0.5, 0.5, 0.5],
        );
        let comp = decompose(&shapes, &schedule);
        assert!(
            comp.channel_pct < 10.0,
            "channel share {} should be small",
            comp.channel_pct
        );
        assert!(
            comp.spatial_pct > 40.0,
            "spatial share {} should dominate",
            comp.spatial_pct
        );
        assert!(comp.combined_pct <= comp.channel_pct + comp.spatial_pct + 1e-9);
    }

    #[test]
    fn fig4_cifar_is_channel_dominant() {
        let shapes = VggConfig::vgg16(32, 10).conv_shapes();
        let schedule = PruneSchedule::channel_only(vec![0.2, 0.2, 0.6, 0.9, 0.9]);
        let comp = decompose(&shapes, &schedule);
        assert!(comp.spatial_pct.abs() < 1e-9);
        assert!(comp.channel_pct > 50.0);
    }

    #[test]
    fn fig4_resnet_is_balanced() {
        // Paper Fig. 4: ResNet56 removes 18.2% channel + 19.2% spatial.
        let shapes = ResNetConfig::resnet56(32, 10).conv_shapes();
        let schedule = PruneSchedule::new(vec![0.3, 0.3, 0.6], vec![0.6, 0.6, 0.6]);
        let comp = decompose(&shapes, &schedule);
        let ratio = comp.channel_pct / comp.spatial_pct;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "channel ({}) and spatial ({}) shares should be comparable",
            comp.channel_pct,
            comp.spatial_pct
        );
    }

    #[test]
    fn per_layer_detail_is_consistent() {
        let shapes = VggConfig::vgg16(32, 10).conv_shapes();
        let schedule = PruneSchedule::channel_only(vec![0.5; 5]);
        let b = analytic_flops(&shapes, &schedule);
        let sum_dense: u64 = b.per_layer.iter().map(|l| l.dense_macs).sum();
        let sum_pruned: f64 = b.per_layer.iter().map(|l| l.pruned_macs).sum();
        assert_eq!(sum_dense, b.baseline_macs);
        assert!((sum_pruned - b.pruned_macs).abs() < 1.0);
        // First layer reads the image: never reduced.
        assert_eq!(b.per_layer[0].pruned_macs, b.per_layer[0].dense_macs as f64);
        // Second layer reads a 50%-pruned map.
        assert!(
            (b.per_layer[1].pruned_macs - 0.5 * b.per_layer[1].dense_macs as f64).abs() < 1.0
        );
    }
}
