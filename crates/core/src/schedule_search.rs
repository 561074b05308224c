//! Automated pruning-schedule derivation — the Sec. IV-B recipe
//! ("we analyze the average block sensitivity and set an aggressive
//! dropout upper bound for each block") promoted from a manual step to
//! library code.
//!
//! Given the Fig. 3 sensitivity curves, [`derive_schedule`] picks, per
//! block, the largest swept ratio whose accuracy drop stays within a
//! tolerance — exactly how the paper turned its sensitivity plots into
//! the per-block TTD targets (e.g. `[0.2, 0.2, 0.6, 0.9, 0.9]` for
//! VGG16/CIFAR10).

use crate::analysis::{block_sensitivity, Axis, SweepCurve};
use crate::pruner::PruneSchedule;
use antidote_data::Split;
use antidote_models::Network;
use serde::{Deserialize, Serialize};

/// Options for schedule derivation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// Maximum tolerated accuracy drop per block (fraction, e.g. 0.05).
    pub max_drop: f32,
    /// Hard ceiling on any block's ratio (the paper never exceeds 0.9).
    pub ratio_ceiling: f64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            max_drop: 0.05,
            ratio_ceiling: 0.9,
        }
    }
}

/// Picks, for each sensitivity curve, the largest ratio whose drop stays
/// within `options.max_drop` (capped at `options.ratio_ceiling`).
///
/// Returns one ratio per curve, in curve order.
pub fn ratios_from_curves(curves: &[SweepCurve], options: SearchOptions) -> Vec<f64> {
    curves
        .iter()
        .map(|curve| {
            let drops = curve.accuracy_drop();
            curve
                .ratios
                .iter()
                .zip(&drops)
                .filter(|&(&r, &d)| d <= options.max_drop && r <= options.ratio_ceiling)
                .map(|(&r, _)| r)
                .fold(0.0, f64::max)
        })
        .collect()
}

/// Runs the channel sensitivity analysis and derives a channel-only
/// schedule from it.
pub fn derive_schedule(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    ratios: &[f64],
    batch_size: usize,
    options: SearchOptions,
) -> PruneSchedule {
    let curves = block_sensitivity(net, split, Axis::Channel, n_blocks, ratios, batch_size);
    PruneSchedule::channel_only(ratios_from_curves(&curves, options))
}

/// Runs both channel and spatial sensitivity analyses and derives a
/// combined schedule (the ResNet/ImageNet regimes).
pub fn derive_schedule_combined(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    ratios: &[f64],
    batch_size: usize,
    options: SearchOptions,
) -> PruneSchedule {
    let ch = block_sensitivity(net, split, Axis::Channel, n_blocks, ratios, batch_size);
    let sp = block_sensitivity(net, split, Axis::Spatial, n_blocks, ratios, batch_size);
    PruneSchedule::new(
        ratios_from_curves(&ch, options),
        ratios_from_curves(&sp, options),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train, TrainConfig};
    use antidote_data::SynthConfig;
    use antidote_models::{NoopHook, Vgg, VggConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn curve(label: &str, ratios: Vec<f64>, accuracy: Vec<f32>) -> SweepCurve {
        SweepCurve {
            label: label.into(),
            ratios,
            accuracy,
        }
    }

    #[test]
    fn picks_largest_tolerable_ratio() {
        let curves = vec![
            curve("b0", vec![0.0, 0.3, 0.6, 0.9], vec![0.9, 0.88, 0.7, 0.3]),
            curve("b1", vec![0.0, 0.3, 0.6, 0.9], vec![0.9, 0.89, 0.87, 0.86]),
        ];
        let r = ratios_from_curves(&curves, SearchOptions::default());
        assert_eq!(r, vec![0.3, 0.9]);
    }

    #[test]
    fn ceiling_is_respected() {
        let curves = vec![curve("b0", vec![0.0, 0.95], vec![0.9, 0.9])];
        let r = ratios_from_curves(
            &curves,
            SearchOptions {
                max_drop: 0.5,
                ratio_ceiling: 0.9,
            },
        );
        assert_eq!(r, vec![0.0], "0.95 exceeds the ceiling, fall back to 0");
    }

    #[test]
    fn insensitive_blocks_get_higher_ratios() {
        // End-to-end: train a tiny net; the derived schedule must be
        // valid and monotone in tolerance.
        let data = SynthConfig::tiny(3, 8).with_samples(20, 8).generate();
        let mut rng = SmallRng::seed_from_u64(91);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));
        train(
            &mut net,
            &data,
            &mut NoopHook,
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::fast_test()
            },
        );
        let ratios = [0.0, 0.25, 0.5, 0.75];
        let strict = derive_schedule(
            &mut net,
            &data.test,
            2,
            &ratios,
            16,
            SearchOptions {
                max_drop: 0.02,
                ratio_ceiling: 0.9,
            },
        );
        let loose = derive_schedule(
            &mut net,
            &data.test,
            2,
            &ratios,
            16,
            SearchOptions {
                max_drop: 0.5,
                ratio_ceiling: 0.9,
            },
        );
        for (s, l) in strict
            .channel_prune()
            .iter()
            .zip(loose.channel_prune())
        {
            assert!(l >= s, "looser tolerance must not shrink ratios");
        }
        assert_eq!(strict.channel_prune().len(), 2);
    }

    #[test]
    fn combined_schedule_has_both_dimensions() {
        let data = SynthConfig::tiny(2, 8).with_samples(8, 4).generate();
        let mut rng = SmallRng::seed_from_u64(92);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let s = derive_schedule_combined(
            &mut net,
            &data.test,
            2,
            &[0.0, 0.5],
            8,
            SearchOptions {
                max_drop: 1.0,
                ratio_ceiling: 0.9,
            },
        );
        assert_eq!(s.channel_prune().len(), 2);
        assert_eq!(s.spatial_prune().len(), 2);
        // With max_drop = 1.0 everything passes; ratios hit the sweep max.
        assert_eq!(s.channel_prune(), &[0.5, 0.5]);
    }
}
