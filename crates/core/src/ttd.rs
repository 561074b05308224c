//! TTD — Training with Targeted Dropout (Sec. IV of the paper).
//!
//! A targeted-dropout "layer" is the [`DynamicPruner`] used as a training
//! hook: after every conv, the currently least-attended channels/columns
//! are dropped (multiplied by the binary mask, Eq. 5), so the model
//! gradually stops depending on them. The dropout ratio follows the
//! paper's *ratio ascent*: start from a warm-up ratio, and step the
//! per-block ratios toward their targets once training has settled at the
//! current ratio (Sec. IV-B).

use crate::pruner::{DynamicPruner, PruneSchedule};
use crate::recovery::{RunOptions, TrainError, TtdState};
use crate::trainer::{train_supervised, RunHook, TrainConfig, TrainHistory};
use antidote_data::SynthDataset;
use antidote_models::Network;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The dropout-ratio ascent policy of Sec. IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioAscent {
    /// Warm-up prune-ratio ceiling applied to every block at epoch 0
    /// (paper example: 0.1).
    pub warmup: f64,
    /// Ceiling increment per ascent step (paper example: 0.05).
    pub step: f64,
    /// Minimum epochs to spend at each ceiling before ascending — the
    /// "after the model converges during the current ratio" rule,
    /// simplified to a dwell time plus a loss-regression guard.
    pub epochs_per_step: usize,
}

impl Default for RatioAscent {
    fn default() -> Self {
        Self {
            warmup: 0.1,
            step: 0.05,
            epochs_per_step: 1,
        }
    }
}

/// Why a [`RatioAscent`] policy is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AscentError {
    /// `warmup` or `step` is NaN or infinite.
    NonFinite {
        /// Which field is non-finite.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `warmup` is outside `[0, 1]`.
    WarmupOutOfRange {
        /// The offending warmup ratio.
        warmup: f64,
    },
    /// `warmup` exceeds the largest target ratio, so the ascent could
    /// never terminate at the target.
    WarmupAboveTarget {
        /// The offending warmup ratio.
        warmup: f64,
        /// The largest ratio in the target schedule.
        max_target: f64,
    },
    /// `step` is outside `(0, 1]` — a non-positive step can never reach
    /// the target.
    StepOutOfRange {
        /// The offending step.
        step: f64,
    },
}

impl fmt::Display for AscentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AscentError::NonFinite { field, value } => {
                write!(f, "ascent {field} is not finite ({value})")
            }
            AscentError::WarmupOutOfRange { warmup } => {
                write!(f, "ascent warmup {warmup} outside [0, 1]")
            }
            AscentError::WarmupAboveTarget { warmup, max_target } => write!(
                f,
                "ascent warmup {warmup} exceeds the largest target ratio {max_target}"
            ),
            AscentError::StepOutOfRange { step } => {
                write!(f, "ascent step {step} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for AscentError {}

impl RatioAscent {
    /// Checks the policy against the largest ratio of the target
    /// schedule.
    ///
    /// # Errors
    ///
    /// [`AscentError`] when `warmup`/`step` is NaN or infinite, `warmup`
    /// is outside `[0, 1]` or above `max_target`, or `step` is outside
    /// `(0, 1]`.
    pub fn validate(&self, max_target: f64) -> Result<(), AscentError> {
        for (field, value) in [("warmup", self.warmup), ("step", self.step)] {
            if !value.is_finite() {
                return Err(AscentError::NonFinite { field, value });
            }
        }
        if !(0.0..=1.0).contains(&self.warmup) {
            return Err(AscentError::WarmupOutOfRange {
                warmup: self.warmup,
            });
        }
        if self.warmup > max_target {
            return Err(AscentError::WarmupAboveTarget {
                warmup: self.warmup,
                max_target,
            });
        }
        if self.step <= 0.0 || self.step > 1.0 {
            return Err(AscentError::StepOutOfRange { step: self.step });
        }
        Ok(())
    }
}

/// Configuration for a TTD training run.
#[derive(Debug, Clone)]
pub struct TtdConfig {
    /// Target per-block prune ratios (the upper bounds from the block
    /// sensitivity analysis).
    pub target: PruneSchedule,
    /// Ratio ascent policy; `None` trains at the full target ratio from
    /// epoch 0 (the ablation in `DESIGN.md` §6).
    pub ascent: Option<RatioAscent>,
    /// Underlying SGD/epoch configuration.
    pub train: TrainConfig,
}

impl TtdConfig {
    /// Paper-default TTD toward `target` over `epochs` epochs.
    ///
    /// The ascent step is *paced* so the ceiling reaches the largest
    /// target ratio by roughly 60 % of the run (the paper trains "until
    /// the target pruning ratio … is achieved"; with a fixed 0.05 step
    /// and few epochs the target would never be reached and test-time
    /// pruning would exceed anything seen in training).
    pub fn new(target: PruneSchedule, epochs: usize) -> Self {
        let max_target = max_target_ratio(&target);
        let warmup = 0.1f64.min(max_target);
        let ascent_epochs = (epochs as f64 * 0.6).max(1.0);
        let step = ((max_target - warmup) / ascent_epochs).max(0.05);
        Self {
            target,
            ascent: Some(RatioAscent {
                warmup,
                step,
                epochs_per_step: 1,
            }),
            train: TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
        }
    }

    /// Disables ratio ascent (fixed-ratio ablation).
    pub fn without_ascent(mut self) -> Self {
        self.ascent = None;
        self
    }
}

/// Outcome of a TTD run: the training history plus the ratio-ceiling
/// trace and the pruner (already configured at the final target) for
/// test-time dynamic pruning.
#[derive(Debug)]
pub struct TtdOutcome {
    /// Per-epoch training statistics.
    pub history: TrainHistory,
    /// `(epoch, ratio ceiling)` pairs, one per epoch.
    pub ratio_trace: Vec<(usize, f64)>,
    /// The pruner at the final schedule — "the model is then
    /// fully-prepared for dynamic pruning with the same ratio during test
    /// inference" (Sec. IV-B), no further fine-tuning required.
    pub pruner: DynamicPruner,
}

/// Runs TTD training: standard SGD + cosine decay, with the targeted
/// dropout hook active at every tap and its ratios ascending toward the
/// target schedule.
///
/// Runs under the default recovery supervisor (see [`crate::recovery`]):
/// a NaN/Inf epoch rolls back, reduces the learning rate and retreats
/// the ascent ceiling one step before retrying.
///
/// # Panics
///
/// Panics if the ascent policy is invalid or divergence persists through
/// every allowed retry; use [`train_ttd_with_options`] to handle those
/// as typed errors (and for checkpointing/resume).
pub fn train_ttd(net: &mut dyn Network, data: &SynthDataset, cfg: &TtdConfig) -> TtdOutcome {
    match train_ttd_with_options(net, data, cfg, &RunOptions::default()) {
        Ok(outcome) => outcome,
        Err(e) => panic!("TTD training failed: {e}"),
    }
}

/// Largest ratio anywhere in the target schedule.
fn max_target_ratio(target: &PruneSchedule) -> f64 {
    target
        .channel_prune()
        .iter()
        .chain(target.spatial_prune())
        .fold(0.0f64, |a, &b| a.max(b))
}

/// The "loss is not regressing" convergence proxy for ratio ascent:
/// compares the last epoch's loss against the one before it (vacuously
/// true with fewer than two epochs). Derived purely from the history so
/// a resumed run makes the identical ascent decisions.
fn ascent_loss_ok(history: &TrainHistory) -> bool {
    let n = history.epochs.len();
    if n < 2 {
        return true;
    }
    history.epochs[n - 1].train_loss <= history.epochs[n - 2].train_loss * 1.10
}

/// What a TTD run adds to the supervised loop of [`crate::trainer`]: the
/// targeted-dropout pruner every epoch trains through, and the ratio
/// ceiling it ascends toward the target. The loop calls it before each
/// epoch, after each rollback and after each healthy epoch.
pub(crate) struct Ascent {
    target: PruneSchedule,
    policy: Option<RatioAscent>,
    max_target: f64,
    pruner: DynamicPruner,
    cap: f64,
    epochs_at_cap: usize,
    ratio_trace: Vec<(usize, f64)>,
}

impl Ascent {
    /// The ascent of `cfg` at warm-up (at the full target without an
    /// ascent policy).
    fn new(cfg: &TtdConfig) -> Result<Self, AscentError> {
        let max_target = max_target_ratio(&cfg.target);
        if let Some(policy) = &cfg.ascent {
            policy.validate(max_target)?;
        }
        Ok(Self {
            target: cfg.target.clone(),
            policy: cfg.ascent,
            max_target,
            pruner: DynamicPruner::new(match &cfg.ascent {
                Some(a) => cfg.target.capped(a.warmup),
                None => cfg.target.clone(),
            }),
            cap: cfg.ascent.map_or(max_target, |a| a.warmup),
            epochs_at_cap: 0,
            ratio_trace: Vec::new(),
        })
    }

    /// The hook the next epoch trains through.
    pub(crate) fn pruner_mut(&mut self) -> &mut DynamicPruner {
        &mut self.pruner
    }

    /// The state a snapshot or checkpoint stores.
    pub(crate) fn state(&self) -> TtdState {
        TtdState {
            target: Some(self.target.clone()),
            ascent: self.policy,
            cap: self.cap,
            epochs_at_cap: self.epochs_at_cap,
            ratio_trace: self.ratio_trace.clone(),
        }
    }

    /// Continues from a resumed checkpoint's state.
    pub(crate) fn resume(&mut self, state: TtdState) {
        self.cap = state.cap;
        self.epochs_at_cap = state.epochs_at_cap;
        self.ratio_trace = state.ratio_trace;
    }

    /// Before `epoch`: ascends once the run has dwelt long enough at this
    /// ceiling and the loss is not regressing (the convergence proxy),
    /// caps the pruner at the ceiling, and records it.
    pub(crate) fn before_epoch(&mut self, epoch: usize, history: &TrainHistory) {
        if let Some(policy) = &self.policy {
            if self.cap < self.max_target
                && self.epochs_at_cap >= policy.epochs_per_step
                && ascent_loss_ok(history)
            {
                self.cap = (self.cap + policy.step).min(self.max_target);
                self.epochs_at_cap = 0;
                if antidote_obs::enabled() {
                    antidote_obs::info(
                        "ttd.ascent",
                        &[
                            ("epoch", antidote_obs::Value::U64(epoch as u64)),
                            ("cap", antidote_obs::Value::F64(self.cap)),
                            ("target", antidote_obs::Value::F64(self.max_target)),
                        ],
                    );
                }
            }
            self.pruner.set_schedule(self.target.capped(self.cap));
        }
        self.ratio_trace.push((epoch, self.cap));
    }

    /// After a rollback of `epoch`: restores the healthy point's ascent
    /// state, then retreats the ceiling one step (held at warm-up) and
    /// restarts the dwell, so the run re-approaches the target gently.
    pub(crate) fn retreat(&mut self, epoch: usize, healthy: &TtdState) {
        self.cap = healthy.cap;
        self.ratio_trace.clone_from(&healthy.ratio_trace);
        self.epochs_at_cap = 0;
        if let Some(policy) = &self.policy {
            self.cap = (self.cap - policy.step).max(policy.warmup);
            self.pruner.set_schedule(self.target.capped(self.cap));
            if antidote_obs::enabled() {
                antidote_obs::info(
                    "ttd.retreat",
                    &[
                        ("epoch", antidote_obs::Value::U64(epoch as u64)),
                        ("cap", antidote_obs::Value::F64(self.cap)),
                    ],
                );
            }
        }
    }

    /// After a healthy epoch: one more epoch dwelt at this ceiling.
    pub(crate) fn settled(&mut self) {
        self.epochs_at_cap += 1;
    }
}

/// Supervised TTD loop: [`train_ttd`] plus divergence rollback,
/// resumable checkpoints and fault injection, controlled by `opts` — the
/// supervised loop of [`crate::trainer::train_with_options`] with the
/// targeted-dropout ratio ascent added.
///
/// On divergence the rollback additionally *retreats* the ascent ceiling
/// one step (never below warm-up) and restarts the dwell counter, so the
/// run re-approaches the target ratio from a gentler setting.
///
/// # Errors
///
/// [`TrainError::InvalidAscent`] for a bad ascent policy,
/// [`TrainError::Diverged`] when retries are exhausted, and typed
/// checkpoint/resume errors when `opts` uses the filesystem (resuming a
/// checkpoint of a run with a different target or ascent is a
/// [`TrainError::ResumeMismatch`]).
pub fn train_ttd_with_options(
    net: &mut dyn Network,
    data: &SynthDataset,
    cfg: &TtdConfig,
    opts: &RunOptions,
) -> Result<TtdOutcome, TrainError> {
    let mut ascent = Ascent::new(cfg).map_err(TrainError::InvalidAscent)?;
    let history = train_supervised(net, data, &cfg.train, opts, RunHook::Ttd(&mut ascent))?;
    // Leave the pruner at the exact target for test-time pruning.
    let Ascent {
        target,
        mut pruner,
        ratio_trace,
        ..
    } = ascent;
    pruner.set_schedule(target);
    Ok(TtdOutcome {
        history,
        ratio_trace,
        pruner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{evaluate, evaluate_plain};
    use antidote_data::SynthConfig;
    use antidote_models::{Vgg, VggConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ratio_ascent_reaches_target() {
        let data = SynthConfig::tiny(2, 8).with_samples(8, 4).generate();
        let mut rng = SmallRng::seed_from_u64(31);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let target = PruneSchedule::new(vec![0.2, 0.5], vec![]);
        let mut cfg = TtdConfig::new(target, 12);
        cfg.train = TrainConfig {
            epochs: 12,
            ..TrainConfig::fast_test()
        };
        let outcome = train_ttd(&mut net, &data, &cfg);
        assert_eq!(outcome.ratio_trace.len(), 12);
        // Monotone non-decreasing ceiling ending at the max target.
        for w in outcome.ratio_trace.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((outcome.ratio_trace.last().unwrap().1 - 0.5).abs() < 1e-9);
        // Final pruner carries the exact target.
        assert_eq!(outcome.pruner.schedule().channel_prune(), &[0.2, 0.5]);
    }

    #[test]
    fn invalid_ascent_is_a_typed_error_not_a_panic() {
        let data = SynthConfig::tiny(2, 8).with_samples(8, 4).generate();
        let mut rng = SmallRng::seed_from_u64(32);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        // Warm-up ceiling above the largest target ratio: the ascent
        // could never terminate at the target.
        let mut cfg = TtdConfig::new(PruneSchedule::new(vec![0.2], vec![]), 3);
        cfg.ascent = Some(RatioAscent {
            warmup: 0.9,
            ..RatioAscent::default()
        });
        match train_ttd_with_options(&mut net, &data, &cfg, &crate::RunOptions::default()) {
            Err(crate::TrainError::InvalidAscent(AscentError::WarmupAboveTarget {
                warmup,
                max_target,
            })) => {
                assert_eq!(warmup, 0.9);
                assert_eq!(max_target, 0.2);
            }
            other => panic!("expected InvalidAscent, got {:?}", other.map(|o| o.history)),
        }
    }

    #[test]
    fn ttd_model_tolerates_dynamic_pruning_better_than_plain() {
        // The headline claim of Sec. IV: a TTD-trained model keeps its
        // accuracy under dynamic pruning much better than an identically
        // trained plain model.
        let data = SynthConfig::tiny(3, 8).with_samples(30, 10).generate();
        let target = PruneSchedule::new(vec![0.5, 0.5], vec![]);
        let epochs = 10;

        let mut rng = SmallRng::seed_from_u64(33);
        let mut plain_net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));
        let mut rng2 = SmallRng::seed_from_u64(33);
        let mut ttd_net = Vgg::new(&mut rng2, VggConfig::vgg_tiny(8, 3));

        // Plain training.
        let train_cfg = TrainConfig {
            epochs,
            ..TrainConfig::fast_test()
        };
        crate::trainer::train(
            &mut plain_net,
            &data,
            &mut antidote_models::NoopHook,
            &train_cfg,
        );
        // TTD training toward the same target.
        let mut cfg = TtdConfig::new(target.clone(), epochs);
        cfg.train = train_cfg;
        let outcome = train_ttd(&mut ttd_net, &data, &cfg);

        let mut pruner = DynamicPruner::new(target.clone());
        let plain_unpruned = evaluate_plain(&mut plain_net, &data.test, 16);
        let plain_pruned = evaluate(&mut plain_net, &data.test, &mut pruner, 16);
        let mut pruner2 = outcome.pruner;
        let ttd_pruned = evaluate(&mut ttd_net, &data.test, &mut pruner2, 16);

        // TTD-pruned must be at least as good as plain-pruned (usually
        // strictly better); tolerate ties on this tiny problem.
        assert!(
            ttd_pruned + 1e-6 >= plain_pruned,
            "ttd_pruned={ttd_pruned} plain_pruned={plain_pruned} (plain unpruned={plain_unpruned})"
        );
    }

    #[test]
    fn fixed_ratio_ablation_skips_ascent() {
        let data = SynthConfig::tiny(2, 8).with_samples(6, 2).generate();
        let mut rng = SmallRng::seed_from_u64(35);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let mut cfg = TtdConfig::new(PruneSchedule::new(vec![0.4, 0.4], vec![]), 3).without_ascent();
        cfg.train = TrainConfig {
            epochs: 3,
            ..TrainConfig::fast_test()
        };
        let outcome = train_ttd(&mut net, &data, &cfg);
        // Ceiling is at the target from epoch 0.
        assert!(outcome.ratio_trace.iter().all(|&(_, c)| (c - 0.4).abs() < 1e-9));
    }
}
