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

/// Fig. 2: prune one target block's channels under each criterion
/// (attention / random / inverse-attention) across `ratios`, measuring
/// test accuracy.
///
/// `n_blocks` is the model's block count; only `target_block` is pruned
/// (the paper uses "the last block of VGG16 and ResNet56").
pub fn criteria_comparison(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    target_block: usize,
    ratios: &[f64],
    batch_size: usize,
) -> Vec<SweepCurve> {
    let criteria = [
        ("attention", Criterion::Attention),
        ("random", Criterion::Random),
        ("inverse", Criterion::InverseAttention),
    ];
    criteria
        .iter()
        .map(|(label, criterion)| {
            let accuracy = ratios
                .iter()
                .map(|&r| {
                    let mut channel = vec![0.0; n_blocks];
                    channel[target_block] = r;
                    let mut pruner = DynamicPruner::new(PruneSchedule::channel_only(channel))
                        .with_criterion(*criterion)
                        .with_seed(0xF16 + (r * 1000.0) as u64);
                    evaluate(net, split, &mut pruner, batch_size)
                })
                .collect();
            SweepCurve {
                label: (*label).to_owned(),
                ratios: ratios.to_vec(),
                accuracy,
            }
        })
        .collect()
}

/// Spatial-column variant of the Fig. 2 comparison ("similar conclusions
/// could be drawn for dynamic spatial column pruning", Sec. III-C).
pub fn criteria_comparison_spatial(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    target_block: usize,
    ratios: &[f64],
    batch_size: usize,
) -> Vec<SweepCurve> {
    let criteria = [
        ("attention", Criterion::Attention),
        ("random", Criterion::Random),
        ("inverse", Criterion::InverseAttention),
    ];
    criteria
        .iter()
        .map(|(label, criterion)| {
            let accuracy = ratios
                .iter()
                .map(|&r| {
                    let mut spatial = vec![0.0; n_blocks];
                    spatial[target_block] = r;
                    let mut pruner = DynamicPruner::new(PruneSchedule::spatial_only(spatial))
                        .with_criterion(*criterion)
                        .with_seed(0x5FA + (r * 1000.0) as u64);
                    evaluate(net, split, &mut pruner, batch_size)
                })
                .collect();
            SweepCurve {
                label: (*label).to_owned(),
                ratios: ratios.to_vec(),
                accuracy,
            }
        })
        .collect()
}

/// Fig. 3: block sensitivity analysis — prune each block alone (channels)
/// across `ratios` and record accuracy, giving one curve per block. The
/// per-block TTD targets are read off these curves.
pub fn block_sensitivity(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    ratios: &[f64],
    batch_size: usize,
) -> Vec<SweepCurve> {
    (0..n_blocks)
        .map(|block| {
            let accuracy = ratios
                .iter()
                .map(|&r| {
                    let mut channel = vec![0.0; n_blocks];
                    channel[block] = r;
                    let mut pruner =
                        DynamicPruner::new(PruneSchedule::channel_only(channel));
                    evaluate(net, split, &mut pruner, batch_size)
                })
                .collect();
            SweepCurve {
                label: format!("block{block}"),
                ratios: ratios.to_vec(),
                accuracy,
            }
        })
        .collect()
}

/// Spatial-column block sensitivity (used for the ResNet/ImageNet
/// settings where the paper prunes spatially).
pub fn block_sensitivity_spatial(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    ratios: &[f64],
    batch_size: usize,
) -> Vec<SweepCurve> {
    (0..n_blocks)
        .map(|block| {
            let accuracy = ratios
                .iter()
                .map(|&r| {
                    let mut spatial = vec![0.0; n_blocks];
                    spatial[block] = r;
                    let mut pruner =
                        DynamicPruner::new(PruneSchedule::spatial_only(spatial));
                    evaluate(net, split, &mut pruner, batch_size)
                })
                .collect();
            SweepCurve {
                label: format!("block{block}"),
                ratios: ratios.to_vec(),
                accuracy,
            }
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
        let curves = criteria_comparison(&mut net, &data.test, 2, 1, &ratios, 16);
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
        let curves = criteria_comparison(&mut net, &data.test, 2, 1, &ratios, 16);
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
        let curves = block_sensitivity(&mut net, &data.test, 2, &ratios, 16);
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
