//! The dynamic pruning runtime: per-input mask generation at every tap.

use crate::attention::{channel_attention, spatial_attention, Statistic};
use crate::mask::{binarize_with_criterion, Criterion, MaskPolicy};
use antidote_models::{FeatureHook, TapInfo};
use antidote_nn::masked::FeatureMask;
use antidote_nn::Mode;
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-block pruning ratios (fractions *pruned*, as quoted in the paper,
/// e.g. VGG16/CIFAR10 channel ratios `[0.2, 0.2, 0.6, 0.9, 0.9]`).
///
/// Blocks beyond the configured vectors are left unpruned.
///
/// # Examples
///
/// ```
/// use antidote_core::PruneSchedule;
///
/// let s = PruneSchedule::new(vec![0.2, 0.2, 0.6, 0.9, 0.9], vec![0.0; 5]);
/// assert_eq!(s.channel_keep(0), 0.8);
/// assert!((s.channel_keep(4) - 0.1).abs() < 1e-12);
/// assert_eq!(s.spatial_keep(2), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneSchedule {
    channel_prune: Vec<f64>,
    spatial_prune: Vec<f64>,
}

/// Why a [`PruneSchedule`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleError {
    /// Which ratio vector the offending value is in (`"channel"` or
    /// `"spatial"`).
    pub axis: &'static str,
    /// Block index of the offending ratio.
    pub block: usize,
    /// The offending value (NaN, infinite, or outside `[0, 1]`).
    pub value: f64,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} prune ratio {} (block {}) outside [0,1]",
            self.axis, self.value, self.block
        )
    }
}

impl std::error::Error for ScheduleError {}

impl PruneSchedule {
    /// Creates a schedule from per-block *pruned* fractions.
    ///
    /// # Panics
    ///
    /// Panics if any ratio is NaN or outside `[0, 1]`; use
    /// [`PruneSchedule::try_new`] for a fallible constructor.
    pub fn new(channel_prune: Vec<f64>, spatial_prune: Vec<f64>) -> Self {
        Self::try_new(channel_prune, spatial_prune).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a schedule from per-block *pruned* fractions, rejecting
    /// NaN, infinite, and out-of-`[0, 1]` ratios with a typed error.
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] identifying the first offending ratio.
    pub fn try_new(
        channel_prune: Vec<f64>,
        spatial_prune: Vec<f64>,
    ) -> Result<Self, ScheduleError> {
        for (axis, ratios) in [("channel", &channel_prune), ("spatial", &spatial_prune)] {
            for (block, &value) in ratios.iter().enumerate() {
                // `contains` is false for NaN, so this rejects NaN too.
                if !(0.0..=1.0).contains(&value) {
                    return Err(ScheduleError { axis, block, value });
                }
            }
        }
        Ok(Self {
            channel_prune,
            spatial_prune,
        })
    }

    /// A schedule that prunes nothing.
    pub fn none() -> Self {
        Self {
            channel_prune: Vec::new(),
            spatial_prune: Vec::new(),
        }
    }

    /// Channel-only schedule.
    pub fn channel_only(channel_prune: Vec<f64>) -> Self {
        Self::new(channel_prune, Vec::new())
    }

    /// Spatial-only schedule.
    pub fn spatial_only(spatial_prune: Vec<f64>) -> Self {
        Self::new(Vec::new(), spatial_prune)
    }

    /// Fraction of channels *kept* in `block`.
    pub fn channel_keep(&self, block: usize) -> f64 {
        1.0 - self.channel_prune.get(block).copied().unwrap_or(0.0)
    }

    /// Fraction of spatial columns *kept* in `block`.
    pub fn spatial_keep(&self, block: usize) -> f64 {
        1.0 - self.spatial_prune.get(block).copied().unwrap_or(0.0)
    }

    /// Per-block channel prune fractions.
    pub fn channel_prune(&self) -> &[f64] {
        &self.channel_prune
    }

    /// Per-block spatial prune fractions.
    pub fn spatial_prune(&self) -> &[f64] {
        &self.spatial_prune
    }

    /// Returns a copy with every ratio scaled by `factor` (clamped to
    /// `[0, 1]`) — used by the TTD ratio-ascent warm-up.
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |v: &[f64]| v.iter().map(|&r| (r * factor).clamp(0.0, 1.0)).collect();
        Self {
            channel_prune: scale(&self.channel_prune),
            spatial_prune: scale(&self.spatial_prune),
        }
    }

    /// Returns a copy with every ratio capped at `cap` (elementwise
    /// `min(ratio, cap)`) — the ascent's "current ceiling".
    pub fn capped(&self, cap: f64) -> Self {
        let f = |v: &[f64]| v.iter().map(|&r| r.min(cap)).collect();
        Self {
            channel_prune: f(&self.channel_prune),
            spatial_prune: f(&self.spatial_prune),
        }
    }

    /// `true` if no block prunes anything.
    pub fn is_noop(&self) -> bool {
        self.channel_prune.iter().all(|&r| r == 0.0)
            && self.spatial_prune.iter().all(|&r| r == 0.0)
    }
}

/// Running per-tap statistics of what the pruner actually kept.
#[derive(Debug, Clone, Default)]
pub struct PruneStats {
    per_tap: BTreeMap<usize, TapStats>,
}

/// Accumulated keep-fraction statistics for one tap.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapStats {
    /// Sum of per-item channel keep fractions.
    pub channel_keep_sum: f64,
    /// Sum of per-item spatial keep fractions.
    pub spatial_keep_sum: f64,
    /// Number of (item, tap) observations.
    pub count: u64,
}

impl PruneStats {
    /// Mean channel/spatial keep fraction for `tap`, if observed.
    pub fn mean_keep(&self, tap: usize) -> Option<(f64, f64)> {
        self.per_tap.get(&tap).map(|s| {
            (
                s.channel_keep_sum / s.count as f64,
                s.spatial_keep_sum / s.count as f64,
            )
        })
    }

    /// All observed taps in order.
    pub fn taps(&self) -> Vec<usize> {
        self.per_tap.keys().copied().collect()
    }

    /// Clears all statistics.
    pub fn reset(&mut self) {
        self.per_tap.clear();
    }
}

/// The testing-phase dynamic pruner (Sec. III): computes attention
/// coefficients at every tap and returns per-input binary keep-masks.
///
/// Implements [`FeatureHook`], so it plugs directly into
/// [`antidote_models::Network::forward_hooked`] (mask-multiply semantics)
/// and [`antidote_models::Network::forward_measured`] (computation
/// actually skipped, MACs counted).
///
/// # Examples
///
/// ```
/// use antidote_core::{DynamicPruner, PruneSchedule};
/// use antidote_models::{Vgg, VggConfig, Network};
/// use antidote_nn::Mode;
/// use antidote_tensor::Tensor;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 4));
/// let mut pruner = DynamicPruner::new(PruneSchedule::new(vec![0.5, 0.5], vec![]));
/// let logits = net.forward_hooked(&Tensor::zeros([1, 3, 8, 8]), Mode::Eval, &mut pruner);
/// assert_eq!(logits.dims(), &[1, 4]);
/// ```
#[derive(Debug)]
pub struct DynamicPruner {
    schedule: PruneSchedule,
    statistic: Statistic,
    policy: MaskPolicy,
    criterion: Criterion,
    rng: SmallRng,
    stats: PruneStats,
}

impl DynamicPruner {
    /// Creates a pruner with the paper's defaults: mean attention, top-k
    /// masks, attention criterion.
    pub fn new(schedule: PruneSchedule) -> Self {
        Self {
            schedule,
            statistic: Statistic::Mean,
            policy: MaskPolicy::TopK,
            criterion: Criterion::Attention,
            rng: SmallRng::seed_from_u64(0x0D1E),
            stats: PruneStats::default(),
        }
    }

    /// Overrides the attention statistic (ablation).
    pub fn with_statistic(mut self, statistic: Statistic) -> Self {
        self.statistic = statistic;
        self
    }

    /// Overrides the binarization policy (ablation).
    pub fn with_policy(mut self, policy: MaskPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the keep criterion (Fig. 2 controls).
    pub fn with_criterion(mut self, criterion: Criterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Reseeds the random criterion.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = SmallRng::seed_from_u64(seed);
        self
    }

    /// Current schedule.
    pub fn schedule(&self) -> &PruneSchedule {
        &self.schedule
    }

    /// Replaces the schedule (used by the TTD ratio ascent).
    pub fn set_schedule(&mut self, schedule: PruneSchedule) {
        self.schedule = schedule;
    }

    /// Accumulated keep statistics.
    pub fn stats(&self) -> &PruneStats {
        &self.stats
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn mask_one(
        &mut self,
        coefficients: &[f32],
        keep_fraction: f64,
    ) -> Option<Vec<bool>> {
        if keep_fraction >= 1.0 {
            return None;
        }
        Some(match self.criterion {
            Criterion::Attention => match self.policy {
                MaskPolicy::TopK => binarize_with_criterion(
                    coefficients,
                    keep_fraction,
                    Criterion::Attention,
                    &mut self.rng,
                ),
                MaskPolicy::Threshold { .. } => {
                    crate::mask::binarize(coefficients, keep_fraction, self.policy)
                }
            },
            other => binarize_with_criterion(coefficients, keep_fraction, other, &mut self.rng),
        })
    }
}

impl FeatureHook for DynamicPruner {
    fn on_feature(
        &mut self,
        tap: TapInfo,
        feature: &Tensor,
        _mode: Mode,
    ) -> Option<Vec<FeatureMask>> {
        let ck = self.schedule.channel_keep(tap.block);
        let sk = self.schedule.spatial_keep(tap.block);
        if ck >= 1.0 && sk >= 1.0 {
            return None;
        }
        let (n, c, h, w) = feature.shape().as_nchw().expect("tap feature must be NCHW");
        let ch_att = (ck < 1.0).then(|| channel_attention(feature, self.statistic));
        let sp_att = (sk < 1.0).then(|| spatial_attention(feature, self.statistic));
        let plane = h * w;
        // Build the histogram keys once per tap call — the former code
        // re-`format!`ed both strings for every batch item.
        let hist_keys = antidote_obs::enabled().then(|| {
            let id = tap.id.0;
            (
                format!("pruner.tap{id:02}.channel_keep"),
                format!("pruner.tap{id:02}.spatial_keep"),
            )
        });
        let mut masks = Vec::with_capacity(n);
        for ni in 0..n {
            let channel = ch_att
                .as_ref()
                .and_then(|a| self.mask_one(&a.data()[ni * c..(ni + 1) * c], ck));
            let spatial = sp_att
                .as_ref()
                .and_then(|a| self.mask_one(&a.data()[ni * plane..(ni + 1) * plane], sk));
            let mask = FeatureMask { channel, spatial };
            let (ck_frac, sk_frac) = (mask.channel_keep_fraction(), mask.spatial_keep_fraction());
            let entry = self.stats.per_tap.entry(tap.id.0).or_default();
            entry.channel_keep_sum += ck_frac;
            entry.spatial_keep_sum += sk_frac;
            entry.count += 1;
            if let Some((ck_key, sk_key)) = &hist_keys {
                antidote_obs::hist_record(ck_key, ck_frac);
                antidote_obs::hist_record(sk_key, sk_frac);
            }
            masks.push(mask);
        }
        Some(masks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_models::{TapId, TapInfo};

    fn tap(block: usize, channels: usize, spatial: usize) -> TapInfo {
        TapInfo {
            id: TapId(block),
            block,
            channels,
            spatial,
        }
    }

    #[test]
    fn batched_call_matches_item_at_a_time() {
        // Stats and obs histograms must be identical whether the tap sees
        // one batch-of-4 call or four batch-of-1 calls (pins the hoisted
        // once-per-call histogram keys).
        let schedule = || PruneSchedule::new(vec![0.5], vec![0.5]);
        let feature = Tensor::from_fn([4, 8, 5, 5], |i| ((i * 37 % 101) as f32) * 0.1 - 5.0);
        // A tap id no network has: the obs registry is process-wide, and
        // other tests prune real networks' taps concurrently.
        let t = TapInfo {
            id: TapId(99),
            ..tap(0, 8, 25)
        };

        antidote_obs::set_enabled(true);
        antidote_obs::reset();
        let mut batched = DynamicPruner::new(schedule());
        let masks_b = batched
            .on_feature(t, &feature, Mode::Eval)
            .expect("schedule prunes, masks expected");
        let snap_b = antidote_obs::snapshot();

        antidote_obs::reset();
        let mut single = DynamicPruner::new(schedule());
        let mut masks_s = Vec::new();
        for ni in 0..4 {
            let item = feature
                .batch_item(ni)
                .reshape(&[1, 8, 5, 5])
                .expect("item reshape");
            masks_s.extend(
                single
                    .on_feature(t, &item, Mode::Eval)
                    .expect("schedule prunes, masks expected"),
            );
        }
        let snap_s = antidote_obs::snapshot();
        antidote_obs::set_enabled(false);
        antidote_obs::reset();

        assert_eq!(masks_b, masks_s, "masks must not depend on batching");
        assert_eq!(
            batched.stats().mean_keep(0),
            single.stats().mean_keep(0),
            "keep statistics must not depend on batching"
        );
        for key in ["pruner.tap99.channel_keep", "pruner.tap99.spatial_keep"] {
            let hb = snap_b.hist(key).expect("batched histogram");
            let hs = snap_s.hist(key).expect("item-at-a-time histogram");
            assert_eq!(hb, hs, "{key} histogram must not depend on batching");
        }
    }

    #[test]
    fn schedule_accessors() {
        let s = PruneSchedule::new(vec![0.3], vec![0.6]);
        assert!((s.channel_keep(0) - 0.7).abs() < 1e-12);
        assert!((s.spatial_keep(0) - 0.4).abs() < 1e-12);
        assert_eq!(s.channel_keep(7), 1.0, "unconfigured blocks keep all");
        assert!(PruneSchedule::none().is_noop());
        assert!(!s.is_noop());
    }

    #[test]
    fn scaled_and_capped() {
        let s = PruneSchedule::new(vec![0.4, 0.8], vec![0.6, 0.6]);
        let half = s.scaled(0.5);
        assert_eq!(half.channel_prune(), &[0.2, 0.4]);
        let capped = s.capped(0.5);
        assert_eq!(capped.channel_prune(), &[0.4, 0.5]);
        assert_eq!(capped.spatial_prune(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_ratio_panics() {
        PruneSchedule::new(vec![1.2], vec![]);
    }

    #[test]
    fn try_new_reports_axis_block_and_value() {
        let err = PruneSchedule::try_new(vec![0.3, 1.2], vec![]).unwrap_err();
        assert_eq!((err.axis, err.block, err.value), ("channel", 1, 1.2));
        let err = PruneSchedule::try_new(vec![0.3], vec![0.1, -0.5]).unwrap_err();
        assert_eq!((err.axis, err.block, err.value), ("spatial", 1, -0.5));
        let err = PruneSchedule::try_new(vec![f64::NAN], vec![]).unwrap_err();
        assert!(err.value.is_nan());
        assert!(err.to_string().contains("outside [0,1]"));
    }

    #[test]
    fn pruner_keeps_top_attention_channels() {
        // Channel 1 has the largest mean activation; with keep=0.5 of 2
        // channels it must survive, channel 0 must not.
        let f = Tensor::from_vec(vec![0.1, 0.1, 0.1, 0.1, 5.0, 5.0, 5.0, 5.0], &[1, 2, 2, 2])
            .unwrap();
        let mut p = DynamicPruner::new(PruneSchedule::new(vec![0.5], vec![]));
        let masks = p.on_feature(tap(0, 2, 2), &f, Mode::Eval).unwrap();
        assert_eq!(masks[0].channel, Some(vec![false, true]));
        assert_eq!(masks[0].spatial, None);
    }

    #[test]
    fn pruner_spatial_masks_heat_map() {
        // Column (1,1) carries all the energy; with keep=0.25 of 4
        // columns only it survives.
        let f = Tensor::from_vec(vec![0.0, 0.0, 0.0, 9.0], &[1, 1, 2, 2]).unwrap();
        let mut p = DynamicPruner::new(PruneSchedule::new(vec![], vec![0.75]));
        let masks = p.on_feature(tap(0, 1, 2), &f, Mode::Eval).unwrap();
        assert_eq!(masks[0].spatial, Some(vec![false, false, false, true]));
        assert_eq!(masks[0].channel, None);
    }

    #[test]
    fn noop_blocks_return_none() {
        let f = Tensor::zeros([1, 2, 2, 2]);
        let mut p = DynamicPruner::new(PruneSchedule::new(vec![0.5], vec![]));
        // block 3 unconfigured -> keep everything -> None
        assert!(p.on_feature(tap(3, 2, 2), &f, Mode::Eval).is_none());
    }

    #[test]
    fn masks_are_per_input() {
        // Two items with opposite dominant channels get opposite masks —
        // the "fully recovered by the input dependent new binary mask"
        // property (Sec. III-B.1).
        let f = Tensor::from_vec(
            vec![
                5.0, 5.0, 5.0, 5.0, 0.1, 0.1, 0.1, 0.1, // item 0: ch0 hot
                0.1, 0.1, 0.1, 0.1, 5.0, 5.0, 5.0, 5.0, // item 1: ch1 hot
            ],
            &[2, 2, 2, 2],
        )
        .unwrap();
        let mut p = DynamicPruner::new(PruneSchedule::new(vec![0.5], vec![]));
        let masks = p.on_feature(tap(0, 2, 2), &f, Mode::Eval).unwrap();
        assert_eq!(masks[0].channel, Some(vec![true, false]));
        assert_eq!(masks[1].channel, Some(vec![false, true]));
    }

    #[test]
    fn stats_accumulate() {
        let f = Tensor::from_fn([2, 4, 2, 2], |i| i as f32);
        let mut p = DynamicPruner::new(PruneSchedule::new(vec![0.5], vec![]));
        p.on_feature(tap(0, 4, 2), &f, Mode::Eval);
        let (ck, sk) = p.stats().mean_keep(0).unwrap();
        assert!((ck - 0.5).abs() < 1e-9);
        assert!((sk - 1.0).abs() < 1e-9);
        p.reset_stats();
        assert!(p.stats().mean_keep(0).is_none());
    }

    #[test]
    fn random_criterion_differs_from_attention() {
        let f = Tensor::from_fn([1, 16, 4, 4], |i| i as f32);
        let mut att = DynamicPruner::new(PruneSchedule::new(vec![0.5], vec![]));
        let mut rnd = DynamicPruner::new(PruneSchedule::new(vec![0.5], vec![]))
            .with_criterion(Criterion::Random)
            .with_seed(3);
        let ma = att.on_feature(tap(0, 16, 4), &f, Mode::Eval).unwrap();
        let mr = rnd.on_feature(tap(0, 16, 4), &f, Mode::Eval).unwrap();
        assert_ne!(ma[0].channel, mr[0].channel);
    }
}
