//! The dynamic pruning runtime: per-input mask generation at every tap,
//! under one schedule for the whole batch or one per item, with a record
//! of the keep fractions the masks realized.

use crate::attention::{channel_attention, spatial_attention, Statistic};
use crate::mask::{binarize_with_criterion, Criterion, MaskPolicy};
use antidote_models::{FeatureHook, TapInfo};
use antidote_nn::masked::FeatureMask;
use antidote_nn::Mode;
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

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

/// The testing-phase dynamic pruner (Sec. III): computes attention
/// coefficients at every tap and returns per-input binary keep-masks.
///
/// Implements [`FeatureHook`], so it plugs directly into
/// [`antidote_models::Network::forward_hooked`] (mask-multiply semantics)
/// and [`antidote_models::Network::forward_measured`] (computation
/// actually skipped, MACs counted).
///
/// [`DynamicPruner::new`] applies one schedule to every item of a batch
/// (training, TTD, evaluation); [`DynamicPruner::per_item`] gives each
/// item its own (a serving batch whose requests carry different compute
/// budgets). Either way the attention statistics are computed once per
/// tap and binarized per item, and the keep fractions the masks realize
/// are recorded per item and tap ([`DynamicPruner::keep_fractions`]).
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
/// assert_eq!(pruner.keep_fractions()[0][1], (0.5, 1.0));
/// ```
#[derive(Debug)]
pub struct DynamicPruner {
    /// One schedule for every item, or one per item when `per_item`.
    schedules: Vec<PruneSchedule>,
    per_item: bool,
    statistic: Statistic,
    policy: MaskPolicy,
    criterion: Criterion,
    rng: SmallRng,
    /// `keep_fractions[item][tap]`: the `(channel, spatial)` keep
    /// fractions realized by the latest call at each tap.
    keep_fractions: Vec<Vec<(f64, f64)>>,
}

impl DynamicPruner {
    /// Creates a pruner applying `schedule` to every item, with the
    /// paper's defaults: mean attention, top-k masks, attention
    /// criterion.
    pub fn new(schedule: PruneSchedule) -> Self {
        Self::with_schedules(vec![schedule], false)
    }

    /// Creates a pruner for batches whose item `i` runs under
    /// `schedules[i]`, with the same defaults as [`DynamicPruner::new`].
    ///
    /// Its [`FeatureHook::on_feature`] panics on a batch whose size is
    /// not `schedules.len()`.
    pub fn per_item(schedules: Vec<PruneSchedule>) -> Self {
        let items = schedules.len();
        let mut pruner = Self::with_schedules(schedules, true);
        // Every item has a (dense) row even if no tap is ever called.
        pruner.keep_fractions = vec![Vec::new(); items];
        pruner
    }

    fn with_schedules(schedules: Vec<PruneSchedule>, per_item: bool) -> Self {
        Self {
            schedules,
            per_item,
            statistic: Statistic::Mean,
            policy: MaskPolicy::TopK,
            criterion: Criterion::Attention,
            rng: SmallRng::seed_from_u64(0x0D1E),
            keep_fractions: Vec::new(),
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

    /// Current schedule (item 0's, for a [`DynamicPruner::per_item`]
    /// pruner).
    ///
    /// # Panics
    ///
    /// Panics on a per-item pruner built from no schedules.
    pub fn schedule(&self) -> &PruneSchedule {
        &self.schedules[0]
    }

    /// Replaces the schedule with one for every item (used by the TTD
    /// ratio ascent).
    pub fn set_schedule(&mut self, schedule: PruneSchedule) {
        self.schedules.clear();
        self.schedules.push(schedule);
        self.per_item = false;
    }

    /// `[item][tap]` `(channel, spatial)` keep fractions realized by the
    /// latest call at each tap, for the items of the latest call: 1.0
    /// where a tap masked nothing, and a row ends at the highest tap id
    /// called so far.
    pub fn keep_fractions(&self) -> &[Vec<(f64, f64)>] {
        &self.keep_fractions
    }

    fn record(&mut self, item: usize, tap: usize, fractions: (f64, f64)) {
        let row = &mut self.keep_fractions[item];
        if row.len() <= tap {
            row.resize(tap + 1, (1.0, 1.0));
        }
        row[tap] = fractions;
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
        let (n, c, h, w) = feature.shape().as_nchw().expect("tap feature must be NCHW");
        let per_item = self.per_item;
        if per_item {
            assert_eq!(
                n,
                self.schedules.len(),
                "batch size disagrees with per-item schedule count"
            );
        }
        let keep = |s: &PruneSchedule| (s.channel_keep(tap.block), s.spatial_keep(tap.block));
        self.keep_fractions.resize_with(n, Vec::new);
        let keeps = || self.schedules.iter().map(keep);
        if keeps().all(|(ck, sk)| ck >= 1.0 && sk >= 1.0) {
            for ni in 0..n {
                self.record(ni, tap.id.0, (1.0, 1.0));
            }
            return None;
        }
        let ch_att = keeps()
            .any(|(ck, _)| ck < 1.0)
            .then(|| channel_attention(feature, self.statistic));
        let sp_att = keeps()
            .any(|(_, sk)| sk < 1.0)
            .then(|| spatial_attention(feature, self.statistic));
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
            let (ck, sk) = keep(&self.schedules[if per_item { ni } else { 0 }]);
            let channel = ch_att
                .as_ref()
                .and_then(|a| self.mask_one(&a.data()[ni * c..(ni + 1) * c], ck));
            let spatial = sp_att
                .as_ref()
                .and_then(|a| self.mask_one(&a.data()[ni * plane..(ni + 1) * plane], sk));
            let mask = FeatureMask { channel, spatial };
            let (ck_frac, sk_frac) = (mask.channel_keep_fraction(), mask.spatial_keep_fraction());
            self.record(ni, tap.id.0, (ck_frac, sk_frac));
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
        let mut fractions_s = Vec::new();
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
            fractions_s.extend_from_slice(single.keep_fractions());
        }
        let snap_s = antidote_obs::snapshot();
        antidote_obs::set_enabled(false);
        antidote_obs::reset();

        assert_eq!(masks_b, masks_s, "masks must not depend on batching");
        assert_eq!(
            batched.keep_fractions(),
            fractions_s,
            "recorded keep fractions must not depend on batching"
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
    fn keep_fractions_record_the_latest_call() {
        let f = Tensor::from_fn([2, 4, 2, 2], |i| i as f32);
        let mut p = DynamicPruner::new(PruneSchedule::new(vec![0.5], vec![]));
        p.on_feature(tap(0, 4, 2), &f, Mode::Eval);
        assert_eq!(p.keep_fractions(), &[vec![(0.5, 1.0)], vec![(0.5, 1.0)]]);
        // An unconfigured block masks nothing and records 1.0.
        p.on_feature(tap(2, 4, 2), &f, Mode::Eval);
        assert_eq!(
            p.keep_fractions()[1],
            vec![(0.5, 1.0), (1.0, 1.0), (1.0, 1.0)]
        );
        // A smaller batch leaves only its own items.
        let item = Tensor::from_fn([1, 4, 2, 2], |i| i as f32);
        p.on_feature(tap(0, 4, 2), &item, Mode::Eval);
        assert_eq!(p.keep_fractions().len(), 1);
    }

    #[test]
    fn items_get_their_own_keep_fractions() {
        // Item 0: keep half the channels. Item 1: dense.
        let schedules = vec![
            PruneSchedule::channel_only(vec![0.5]),
            PruneSchedule::none(),
        ];
        let mut p = DynamicPruner::per_item(schedules);
        let f = Tensor::from_fn([2, 4, 2, 2], |i| i as f32);
        let masks = p.on_feature(tap(0, 4, 2), &f, Mode::Eval).unwrap();
        assert_eq!(masks[0].channel, Some(vec![false, false, true, true]));
        assert_eq!(masks[1].channel, None, "dense item must not be masked");
        assert_eq!(p.keep_fractions()[0][0].0, 0.5);
        assert_eq!(p.keep_fractions()[1][0].0, 1.0);
    }

    #[test]
    fn all_dense_batch_returns_none() {
        let schedules = vec![PruneSchedule::none(), PruneSchedule::none()];
        let mut p = DynamicPruner::per_item(schedules);
        let f = Tensor::zeros([2, 4, 2, 2]);
        assert!(p.on_feature(tap(0, 4, 2), &f, Mode::Eval).is_none());
        assert_eq!(p.keep_fractions(), &[vec![(1.0, 1.0)], vec![(1.0, 1.0)]]);
    }

    #[test]
    fn masks_match_single_schedule_pruner_semantics() {
        // Each item's masks are what a shared-schedule pruner gives that
        // item alone.
        let schedules = [
            PruneSchedule::new(vec![0.75], vec![0.5]),
            PruneSchedule::none(),
            PruneSchedule::channel_only(vec![0.5]),
        ];
        let f = Tensor::from_fn([3, 4, 3, 3], |i| ((i * 37 % 101) as f32) * 0.1 - 5.0);
        let mut mixed = DynamicPruner::per_item(schedules.to_vec());
        let masks = mixed.on_feature(tap(0, 4, 3), &f, Mode::Eval).unwrap();
        for (ni, schedule) in schedules.iter().enumerate() {
            let item = f.batch_item(ni).reshape(&[1, 4, 3, 3]).unwrap();
            let mut alone = DynamicPruner::new(schedule.clone());
            let expected = alone
                .on_feature(tap(0, 4, 3), &item, Mode::Eval)
                .map_or_else(FeatureMask::default, |m| m[0].clone());
            assert_eq!(masks[ni], expected, "item {ni}");
            assert_eq!(mixed.keep_fractions()[ni], alone.keep_fractions()[0]);
        }
    }

    #[test]
    #[should_panic(expected = "per-item schedule count")]
    fn per_item_batch_size_must_match() {
        let mut p = DynamicPruner::per_item(vec![PruneSchedule::channel_only(vec![0.5])]);
        p.on_feature(tap(0, 4, 2), &Tensor::zeros([2, 4, 2, 2]), Mode::Eval);
    }

    #[test]
    fn spatial_fractions_recorded() {
        let mut p = DynamicPruner::per_item(vec![PruneSchedule::spatial_only(vec![0.75])]);
        let f = Tensor::from_vec(vec![0.0, 0.0, 0.0, 9.0], &[1, 1, 2, 2]).unwrap();
        let t = TapInfo {
            id: TapId(1),
            ..tap(0, 1, 2)
        };
        let masks = p.on_feature(t, &f, Mode::Eval).unwrap();
        assert_eq!(masks[0].spatial, Some(vec![false, false, false, true]));
        assert_eq!(p.keep_fractions()[0][1], (1.0, 0.25));
        let untouched = p.keep_fractions()[0][0];
        assert_eq!(untouched, (1.0, 1.0), "untouched tap stays dense");
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
