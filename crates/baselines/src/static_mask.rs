//! Fixed (input-independent) pruning masks — the defining property of
//! static pruning, and the contrast class for AntiDote's dynamic masks.

use crate::ranking::FilterScores;
use antidote_core::mask::{binarize, MaskPolicy};
use antidote_core::PruneSchedule;
use antidote_models::{FeatureHook, TapInfo};
use antidote_nn::masked::FeatureMask;
use antidote_nn::Mode;
use antidote_tensor::Tensor;
use std::collections::BTreeMap;

/// A [`FeatureHook`] that applies the *same* channel keep-mask to every
/// input — permanent filter removal in mask form.
///
/// Built from per-filter scores and a per-block prune schedule: the
/// lowest-scored `ratio · C` filters of each tap are removed for good.
#[derive(Debug, Clone)]
pub struct StaticMaskHook {
    masks: BTreeMap<usize, Vec<bool>>,
}

impl StaticMaskHook {
    /// Builds static masks by keeping each tap's top-scored filters at
    /// the block's keep fraction.
    ///
    /// # Panics
    ///
    /// Panics if a tap present in `taps` is missing from `scores`.
    pub fn from_scores(
        scores: &FilterScores,
        taps: &[TapInfo],
        schedule: &PruneSchedule,
    ) -> Self {
        let mut masks = BTreeMap::new();
        for tap in taps {
            let keep = schedule.channel_keep(tap.block);
            if keep >= 1.0 {
                continue;
            }
            let s = scores
                .get(&tap.id.0)
                .unwrap_or_else(|| panic!("no scores for tap {}", tap.id.0));
            masks.insert(tap.id.0, binarize(s, keep, MaskPolicy::TopK));
        }
        Self { masks }
    }

    /// Direct construction from explicit per-tap masks (tests).
    pub fn from_masks(masks: BTreeMap<usize, Vec<bool>>) -> Self {
        Self { masks }
    }

    /// The mask for `tap`, if that tap is pruned.
    pub fn mask(&self, tap: usize) -> Option<&[bool]> {
        self.masks.get(&tap).map(Vec::as_slice)
    }

    /// Fraction of filters kept at `tap` (1.0 if unpruned).
    pub fn keep_fraction(&self, tap: usize) -> f64 {
        self.masks.get(&tap).map_or(1.0, |m| {
            m.iter().filter(|&&b| b).count() as f64 / m.len() as f64
        })
    }
}

impl FeatureHook for StaticMaskHook {
    fn on_feature(
        &mut self,
        tap: TapInfo,
        feature: &Tensor,
        _mode: Mode,
    ) -> Option<Vec<FeatureMask>> {
        let mask = self.masks.get(&tap.id.0)?;
        let n = feature.dims()[0];
        assert_eq!(
            mask.len(),
            feature.dims()[1],
            "static mask channel count mismatch at tap {}",
            tap.id.0
        );
        Some(vec![
            FeatureMask {
                channel: Some(mask.clone()),
                spatial: None,
            };
            n
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_models::TapId;

    fn taps() -> Vec<TapInfo> {
        vec![
            TapInfo {
                id: TapId(0),
                block: 0,
                channels: 4,
                spatial: 4,
            },
            TapInfo {
                id: TapId(1),
                block: 1,
                channels: 4,
                spatial: 2,
            },
        ]
    }

    fn scores() -> FilterScores {
        let mut s = FilterScores::new();
        s.insert(0, vec![0.9, 0.1, 0.5, 0.7]);
        s.insert(1, vec![0.2, 0.8, 0.6, 0.4]);
        s
    }

    #[test]
    fn keeps_top_scored_filters() {
        let schedule = PruneSchedule::channel_only(vec![0.5, 0.5]);
        let hook = StaticMaskHook::from_scores(&scores(), &taps(), &schedule);
        assert_eq!(hook.mask(0).unwrap(), &[true, false, false, true]);
        assert_eq!(hook.mask(1).unwrap(), &[false, true, true, false]);
        assert!((hook.keep_fraction(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unpruned_blocks_have_no_mask() {
        let schedule = PruneSchedule::channel_only(vec![0.0, 0.5]);
        let hook = StaticMaskHook::from_scores(&scores(), &taps(), &schedule);
        assert!(hook.mask(0).is_none());
        assert_eq!(hook.keep_fraction(0), 1.0);
        assert!(hook.mask(1).is_some());
    }

    #[test]
    fn hook_emits_identical_masks_for_all_items() {
        let schedule = PruneSchedule::channel_only(vec![0.5]);
        let mut hook = StaticMaskHook::from_scores(&scores(), &taps()[..1], &schedule);
        let f = Tensor::from_fn([3, 4, 2, 2], |i| i as f32);
        let masks = hook.on_feature(taps()[0], &f, Mode::Eval).unwrap();
        assert_eq!(masks.len(), 3);
        assert_eq!(masks[0], masks[1]);
        assert_eq!(masks[1], masks[2]);
    }

    #[test]
    #[should_panic(expected = "no scores for tap")]
    fn missing_scores_panic() {
        let schedule = PruneSchedule::channel_only(vec![0.5, 0.5]);
        let empty = FilterScores::new();
        StaticMaskHook::from_scores(&empty, &taps(), &schedule);
    }
}
