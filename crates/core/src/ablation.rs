//! Ablations of AntiDote's design choices (`DESIGN.md` §6): the
//! attention statistic (mean vs max) and the mask binarization policy
//! (top-k vs mean-relative threshold).

use crate::analysis::{sweep, Axis, SweepCurve};
use crate::attention::Statistic;
use crate::mask::MaskPolicy;
use crate::pruner::DynamicPruner;
use antidote_data::Split;
use antidote_models::Network;

/// Compares the mean (paper) and max attention statistics for channel
/// pruning across `ratios` on `target_block`.
pub fn statistic_ablation(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    target_block: usize,
    ratios: &[f64],
    batch_size: usize,
) -> Vec<SweepCurve> {
    [("mean", Statistic::Mean), ("max", Statistic::Max)]
        .into_iter()
        .map(|(label, statistic)| {
            sweep(net, split, label, ratios, batch_size, |r| {
                DynamicPruner::new(Axis::Channel.one_block(n_blocks, target_block, r))
                    .with_statistic(statistic)
            })
        })
        .collect()
}

/// Compares the top-k policy (paper) against mean-relative thresholds.
/// For thresholds the *realized* keep fraction varies per input, so the
/// curve's x-axis is the threshold multiplier `alpha`, not a ratio.
pub fn policy_ablation(
    net: &mut dyn Network,
    split: &Split,
    n_blocks: usize,
    target_block: usize,
    topk_ratios: &[f64],
    alphas: &[f32],
    batch_size: usize,
) -> (SweepCurve, SweepCurve) {
    let topk = sweep(net, split, "topk", topk_ratios, batch_size, |r| {
        DynamicPruner::new(Axis::Channel.one_block(n_blocks, target_block, r))
    });
    let alphas: Vec<f64> = alphas.iter().map(|&a| a as f64).collect();
    // Ratio 0.5 activates masking; the policy decides how much.
    let masking = Axis::Channel.one_block(n_blocks, target_block, 0.5);
    let threshold = sweep(net, split, "threshold", &alphas, batch_size, |alpha| {
        let policy = MaskPolicy::Threshold {
            alpha: alpha as f32,
        };
        DynamicPruner::new(masking.clone()).with_policy(policy)
    });
    (topk, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train, TrainConfig};
    use antidote_data::SynthConfig;
    use antidote_models::{NoopHook, Vgg, VggConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trained() -> (Vgg, antidote_data::SynthDataset) {
        let data = SynthConfig::tiny(2, 8).with_samples(16, 8).generate();
        let mut rng = SmallRng::seed_from_u64(95);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        train(
            &mut net,
            &data,
            &mut NoopHook,
            &TrainConfig {
                epochs: 5,
                ..TrainConfig::fast_test()
            },
        );
        (net, data)
    }

    #[test]
    fn statistic_ablation_produces_both_curves() {
        let (mut net, data) = trained();
        let curves = statistic_ablation(&mut net, &data.test, 2, 1, &[0.0, 0.5], 8);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].label, "mean");
        assert_eq!(curves[1].label, "max");
        // Unpruned point identical regardless of statistic.
        assert!((curves[0].accuracy[0] - curves[1].accuracy[0]).abs() < 1e-6);
    }

    #[test]
    fn policy_ablation_runs() {
        let (mut net, data) = trained();
        let (topk, threshold) =
            policy_ablation(&mut net, &data.test, 2, 1, &[0.0, 0.5], &[0.5, 1.0], 8);
        assert_eq!(topk.accuracy.len(), 2);
        assert_eq!(threshold.accuracy.len(), 2);
        for a in topk.accuracy.iter().chain(&threshold.accuracy) {
            assert!((0.0..=1.0).contains(a));
        }
    }
}
