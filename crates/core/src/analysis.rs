//! Analysis experiments: criterion comparison (Fig. 2) and block
//! sensitivity (Fig. 3).

use crate::mask::Criterion;
use crate::pruner::{DynamicPruner, PruneSchedule};
use crate::trainer::evaluate;
use antidote_data::Split;
use antidote_models::Network;
use serde::{Deserialize, Serialize};

/// One accuracy-vs-ratio curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCurve {
    /// Label of the curve (criterion name or block id).
    pub label: String,
    /// The swept pruning ratios.
    pub ratios: Vec<f64>,
    /// Test accuracy at each ratio.
    pub accuracy: Vec<f32>,
}

impl SweepCurve {
    /// Accuracy drop relative to the ratio-0 point, per ratio.
    pub fn accuracy_drop(&self) -> Vec<f32> {
        let base = self.accuracy.first().copied().unwrap_or(0.0);
        self.accuracy.iter().map(|&a| base - a).collect()
    }
}

/// Which dimension of a block a sweep prunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Whole channels (Eq. 1/3).
    Channel,
    /// Spatial columns (Eq. 2/4).
    Spatial,
}

impl Axis {
    /// A schedule over `n_blocks` blocks that prunes `block` alone, at
    /// `ratio`, along this axis.
    pub(crate) fn one_block(self, n_blocks: usize, block: usize, ratio: f64) -> PruneSchedule {
        let mut ratios = vec![0.0; n_blocks];
        ratios[block] = ratio;
        match self {
            Axis::Channel => PruneSchedule::channel_only(ratios),
            Axis::Spatial => PruneSchedule::spatial_only(ratios),
        }
    }
}

/// The one sweep body: for each of `ratios`, the test accuracy of `net`
/// on `split` under the pruner `pruner_at` builds for that ratio.
pub(crate) fn sweep(
    net: &mut dyn Network,
    split: &Split,
    label: &str,
    ratios: &[f64],
    batch_size: usize,
    mut pruner_at: impl FnMut(f64) -> DynamicPruner,
) -> SweepCurve {
    let accuracy = ratios
        .iter()
        .map(|&r| evaluate(net, split, &mut pruner_at(r), batch_size))
        .collect();
    SweepCurve {
        label: label.to_owned(),
        ratios: ratios.to_vec(),
        accuracy,
    }
}

/// Fig. 2: prune one target block along `axis` under each criterion
/// (attention / random / inverse-attention) across `ratios`, measuring
/// test accuracy.
///
/// `n_blocks` is the model's block count; only `target_block` is pruned
/// (the paper uses "the last block of VGG16 and ResNet56" for channels;
/// "similar conclusions could be drawn for dynamic spatial column
/// pruning", Sec. III-C).
pub fn criteria_comparison(
    net: &mut dyn Network,
    split: &Split,
    axis: Axis,
    n_blocks: usize,
    target_block: usize,
    ratios: &[f64],
    batch_size: usize,
) -> Vec<SweepCurve> {
    let seed_base = match axis {
        Axis::Channel => 0xF16,
        Axis::Spatial => 0x5FA,
    };
    [
        ("attention", Criterion::Attention),
        ("random", Criterion::Random),
        ("inverse", Criterion::InverseAttention),
    ]
    .into_iter()
    .map(|(label, criterion)| {
        sweep(net, split, label, ratios, batch_size, |r| {
            DynamicPruner::new(axis.one_block(n_blocks, target_block, r))
                .with_criterion(criterion)
                .with_seed(seed_base + (r * 1000.0) as u64)
        })
    })
    .collect()
}

/// Fig. 3: block sensitivity analysis — prune each block alone along
/// `axis` across `ratios` and record accuracy, giving one curve per
/// block. The per-block TTD targets are read off these curves (spatial
/// for the ResNet/ImageNet settings where the paper prunes spatially).
pub fn block_sensitivity(
    net: &mut dyn Network,
    split: &Split,
    axis: Axis,
    n_blocks: usize,
    ratios: &[f64],
    batch_size: usize,
) -> Vec<SweepCurve> {
    (0..n_blocks)
        .map(|block| {
            let label = format!("block{block}");
            sweep(net, split, &label, ratios, batch_size, |r| {
                DynamicPruner::new(axis.one_block(n_blocks, block, r))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train, TrainConfig};
    use antidote_data::SynthConfig;
    use antidote_models::{NoopHook, Vgg, VggConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trained_net_and_data() -> (Vgg, antidote_data::SynthDataset) {
        let data = SynthConfig::tiny(3, 8).with_samples(24, 8).generate();
        let mut rng = SmallRng::seed_from_u64(41);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));
        let cfg = TrainConfig {
            epochs: 8,
            ..TrainConfig::fast_test()
        };
        train(&mut net, &data, &mut NoopHook, &cfg);
        (net, data)
    }

    #[test]
    fn criteria_comparison_produces_three_monotone_labels() {
        let (mut net, data) = trained_net_and_data();
        let ratios = [0.0, 0.5, 1.0];
        let curves = criteria_comparison(&mut net, &data.test, Axis::Channel, 2, 1, &ratios, 16);
        assert_eq!(curves.len(), 3);
        let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["attention", "random", "inverse"]);
        // At ratio 0 every criterion matches the unpruned accuracy.
        let base = curves[0].accuracy[0];
        for c in &curves {
            assert!((c.accuracy[0] - base).abs() < 1e-6);
        }
        // At ratio 1.0 (everything pruned) accuracy collapses to chance-ish.
        for c in &curves {
            assert!(c.accuracy[2] <= base + 1e-6);
        }
    }

    #[test]
    fn attention_beats_inverse_at_moderate_ratio() {
        // The Fig. 2 ordering: attention >= inverse (keeping the most
        // important features must not be worse than keeping the least
        // important ones).
        let (mut net, data) = trained_net_and_data();
        let ratios = [0.5];
        let curves = criteria_comparison(&mut net, &data.test, Axis::Channel, 2, 1, &ratios, 16);
        let att = curves[0].accuracy[0];
        let inv = curves[2].accuracy[0];
        assert!(
            att + 1e-6 >= inv,
            "attention ({att}) should not lose to inverse ({inv})"
        );
    }

    #[test]
    fn sensitivity_yields_one_curve_per_block() {
        let (mut net, data) = trained_net_and_data();
        let ratios = [0.0, 0.6];
        let curves = block_sensitivity(&mut net, &data.test, Axis::Channel, 2, &ratios, 16);
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert_eq!(c.accuracy.len(), 2);
            let drops = c.accuracy_drop();
            assert_eq!(drops[0], 0.0);
        }
    }

    #[test]
    fn accuracy_drop_is_relative_to_first_point() {
        let c = SweepCurve {
            label: "x".into(),
            ratios: vec![0.0, 0.5],
            accuracy: vec![0.9, 0.6],
        };
        let d = c.accuracy_drop();
        assert!((d[1] - 0.3).abs() < 1e-6);
    }
}
