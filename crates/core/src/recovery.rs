//! Fault-tolerant training runtime: divergence detection, rollback with
//! learning-rate backoff, and resumable training state.
//!
//! Long TTD runs occasionally diverge (NaN/Inf loss or parameters —
//! aggressive schedules, bad seeds, or injected faults in tests) and at
//! `full` scale they take long enough that losing a run to a crash or a
//! kill is expensive. This module adds a supervision layer around the
//! one supervised epoch loop in [`crate::trainer`], which plain and TTD
//! runs share:
//!
//! - **Healthy point** — after every healthy epoch the run takes one
//!   snapshot: a [`Checkpoint`] of the network state (parameters and
//!   batch-norm running statistics) carrying the run's [`TrainState`].
//!   The same object is what a rollback restores, what a due checkpoint
//!   writes, and what a resume loads back from disk.
//! - **Divergence sentinel** — after every epoch the loss and all
//!   parameters are checked for finiteness. On a trip, the run restores
//!   the network, SGD momentum and (for TTD) ratio-ascent state of the
//!   last healthy point, keeps its live history and recovery
//!   bookkeeping, scales the learning rate down by a backoff factor, and
//!   retries the same epoch. Retries are bounded; exhausting them
//!   returns a typed [`TrainError::Diverged`] carrying the healthy
//!   partial history.
//! - **Resumable state** — [`TrainState`] holds everything needed to
//!   continue a killed run mid-ascent: the next epoch index, the full
//!   optimizer state, the recovery bookkeeping, the epoch history, and
//!   (for TTD) the ratio-ascent state with the target and policy it
//!   ascends by. A resume whose configuration, flavour, target or ascent
//!   differs from the checkpoint's is a typed
//!   [`TrainError::ResumeMismatch`].
//! - **Fault injection** — a one-shot test knob that corrupts one
//!   parameter after a chosen epoch, for exercising the recovery path
//!   end to end.
//!
//! Determinism: epoch shuffling and augmentation are (re)seeded per
//! epoch from `TrainConfig::seed`, so a rolled-back retry replays the
//! same data order, and a killed-and-resumed run reproduces the epoch
//! history of an uninterrupted one exactly.

use crate::checkpoint::Checkpoint;
use crate::pruner::PruneSchedule;
use crate::trainer::{TrainConfig, TrainHistory};
use crate::ttd::RatioAscent;
use antidote_models::Network;
use antidote_nn::optim::{Sgd, SgdState};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;

/// Bounds and knobs of the divergence sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoverySettings {
    /// Total rollbacks allowed over the whole run before giving up.
    pub max_retries: usize,
    /// Multiplier applied to the learning-rate scale on every rollback
    /// (persists for the rest of the run).
    pub lr_backoff: f32,
}

impl Default for RecoverySettings {
    fn default() -> Self {
        Self {
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

/// What the sentinel found wrong with an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DivergenceKind {
    /// The epoch's mean training loss was NaN or infinite.
    NonFiniteLoss,
    /// A parameter tensor contained a NaN or infinite value.
    NonFiniteParam,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceKind::NonFiniteLoss => write!(f, "non-finite loss"),
            DivergenceKind::NonFiniteParam => write!(f, "non-finite parameter"),
        }
    }
}

/// One recorded rollback.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Epoch whose result tripped the sentinel.
    pub epoch: usize,
    /// 1-based retry number (equals total retries used so far).
    pub attempt: usize,
    /// What tripped the sentinel.
    pub kind: DivergenceKind,
    /// Learning-rate scale in effect *after* the backoff.
    pub lr_scale: f32,
}

/// Ratio-ascent state persisted for resumable TTD runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TtdState {
    /// Target schedule the run ascends toward. `None` only in files
    /// written before it was stored; resuming one is refused.
    #[serde(default)]
    pub target: Option<PruneSchedule>,
    /// Ascent policy of the run (`None` for the fixed-ratio ablation).
    #[serde(default)]
    pub ascent: Option<RatioAscent>,
    /// Current ascent ceiling.
    pub cap: f64,
    /// Healthy epochs spent at the current ceiling.
    pub epochs_at_cap: usize,
    /// `(epoch, ceiling)` trace so far.
    pub ratio_trace: Vec<(usize, f64)>,
}

/// Everything needed to continue an interrupted run, stored inside a
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainState {
    /// Index of the next epoch to run.
    pub next_epoch: usize,
    /// The configuration the run was started with (resume refuses a
    /// different one).
    pub config: TrainConfig,
    /// Full optimizer state including momentum buffers.
    pub sgd: SgdState,
    /// Cumulative learning-rate backoff scale.
    pub lr_scale: f32,
    /// Rollbacks consumed so far.
    pub retries_used: usize,
    /// Healthy epoch history so far.
    pub history: TrainHistory,
    /// Ratio-ascent state (`None` for plain, non-TTD runs).
    #[serde(default)]
    pub ttd: Option<TtdState>,
}

/// Per-run options for the supervised training entry points.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Sentinel bounds.
    pub recovery: RecoverySettings,
    /// Resume from a checkpoint written by a previous supervised run.
    pub resume_from: Option<PathBuf>,
    /// Write a resumable checkpoint to this path as the run progresses.
    pub checkpoint_to: Option<PathBuf>,
    /// Save every N completed epochs (0 ⇒ only at the end of the
    /// invocation). Ignored without `checkpoint_to`.
    pub checkpoint_every: usize,
    /// Stop after this many epochs *in this invocation* (simulates a
    /// kill; combine with `checkpoint_to` + `resume_from` to continue).
    pub stop_after_epochs: Option<usize>,
    /// One-shot fault injection: corrupt one parameter with NaN after
    /// the given epoch completes (testing knob).
    pub inject_nan_at_epoch: Option<usize>,
}

impl RunOptions {
    /// Options that resume from `path` and keep checkpointing to it.
    pub fn resuming(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        Self {
            resume_from: Some(path.clone()),
            checkpoint_to: Some(path),
            ..Self::default()
        }
    }
}

/// Failure of a supervised training run.
#[derive(Debug)]
pub enum TrainError {
    /// Divergence persisted through all allowed rollbacks.
    Diverged {
        /// Epoch that kept diverging.
        epoch: usize,
        /// Last observed divergence kind.
        kind: DivergenceKind,
        /// Rollbacks consumed before giving up.
        retries: usize,
        /// Healthy history up to the last good epoch.
        history: TrainHistory,
    },
    /// The ratio-ascent policy is invalid (see
    /// [`crate::ttd::RatioAscent::validate`]).
    InvalidAscent(crate::ttd::AscentError),
    /// Loading or saving a checkpoint failed.
    Checkpoint(String),
    /// The resume checkpoint does not belong to this run (different
    /// config, missing train state, or plain/TTD mismatch).
    ResumeMismatch(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged {
                epoch,
                kind,
                retries,
                ..
            } => write!(
                f,
                "training diverged at epoch {epoch} ({kind}) after {retries} rollback(s)"
            ),
            TrainError::InvalidAscent(e) => write!(f, "invalid ratio ascent: {e}"),
            TrainError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            TrainError::ResumeMismatch(msg) => write!(f, "resume mismatch: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Scans every parameter of `net` for non-finite values.
pub fn params_finite(net: &mut dyn Network) -> bool {
    let mut ok = true;
    net.visit_params_mut(&mut |p| {
        if ok && !p.value.data().iter().all(|v| v.is_finite()) {
            ok = false;
        }
    });
    ok
}

/// Why `stored` cannot continue a run of `config` whose ascent state is
/// `ttd` (`None` for a plain run), or `None` when it belongs to it: the
/// configuration, the plain/TTD flavour, and a TTD run's target and
/// ascent policy must all match.
fn run_mismatch(
    stored: &TrainState,
    config: &TrainConfig,
    ttd: Option<&TtdState>,
) -> Option<&'static str> {
    if stored.config != *config {
        return Some("checkpoint was written with a different TrainConfig");
    }
    match (&stored.ttd, ttd) {
        (None, None) => None,
        (Some(_), None) => Some("checkpoint is from a TTD run"),
        (None, Some(_)) => Some("checkpoint is from a plain (non-TTD) run"),
        (Some(s), Some(t)) => ((&s.target, s.ascent) != (&t.target, t.ascent)).then_some(
            "checkpoint is from a TTD run with a different target or ascent \
             (or one written before they were recorded)",
        ),
    }
}

/// Loads a resumable checkpoint, checks that it belongs to this run (see
/// [`run_mismatch`]), and restores its network state into `net`. The
/// returned checkpoint carries the run's [`TrainState`].
pub(crate) fn load_resume_state(
    path: &std::path::Path,
    config: &TrainConfig,
    ttd: Option<&TtdState>,
    net: &mut dyn Network,
) -> Result<Checkpoint, TrainError> {
    let ckpt = Checkpoint::load(path).map_err(|e| TrainError::Checkpoint(e.to_string()))?;
    let Some(state) = &ckpt.train_state else {
        return Err(TrainError::ResumeMismatch(
            "checkpoint carries no training state (weights-only checkpoint)".into(),
        ));
    };
    if let Some(why) = run_mismatch(state, config, ttd) {
        return Err(TrainError::ResumeMismatch(why.into()));
    }
    ckpt.restore(net)
        .map_err(|e| TrainError::ResumeMismatch(e.to_string()))?;
    Ok(ckpt)
}

/// The sentinel and the healthy point of the supervised loop.
pub(crate) struct Supervisor {
    settings: RecoverySettings,
    /// The last healthy point — the network state carrying the run's
    /// [`TrainState`] — or `None` before the first snapshot.
    healthy: Option<Checkpoint>,
    pub(crate) lr_scale: f32,
    pub(crate) retries_used: usize,
    injected: bool,
}

impl Supervisor {
    pub(crate) fn new(settings: RecoverySettings) -> Self {
        assert!(
            settings.lr_backoff.is_finite() && settings.lr_backoff > 0.0,
            "lr_backoff must be positive"
        );
        Self {
            settings,
            healthy: None,
            lr_scale: 1.0,
            retries_used: 0,
            injected: false,
        }
    }

    /// Records the current state as the last healthy point: `net`, plus
    /// the run state of `config` about to start `next_epoch`.
    pub(crate) fn snapshot(
        &mut self,
        net: &mut dyn Network,
        config: &TrainConfig,
        next_epoch: usize,
        sgd: &Sgd,
        history: &TrainHistory,
        ttd: Option<TtdState>,
    ) {
        let state = TrainState {
            next_epoch,
            config: *config,
            sgd: sgd.export_state(),
            lr_scale: self.lr_scale,
            retries_used: self.retries_used,
            history: history.clone(),
            ttd,
        };
        self.healthy = Some(Checkpoint::capture(net).with_train_state(state));
    }

    /// Writes the last healthy point to `path` as a resumable checkpoint
    /// (atomic write, see [`crate::checkpoint`]).
    pub(crate) fn save(&self, path: &std::path::Path) -> Result<(), TrainError> {
        self.healthy
            .as_ref()
            .expect("a snapshot precedes every save")
            .save(path)
            .map_err(|e| TrainError::Checkpoint(e.to_string()))
    }

    /// One-shot fault injection: after epoch `epoch`, if requested and
    /// not yet fired, poisons the first parameter element with NaN.
    pub(crate) fn maybe_inject(
        &mut self,
        epoch: usize,
        inject_at: Option<usize>,
        net: &mut dyn Network,
    ) {
        if self.injected || inject_at != Some(epoch) {
            return;
        }
        self.injected = true;
        let mut done = false;
        net.visit_params_mut(&mut |p| {
            if !done {
                if let Some(v) = p.value.data_mut().first_mut() {
                    *v = f32::NAN;
                    done = true;
                }
            }
        });
    }

    /// Health check for a just-finished epoch.
    pub(crate) fn verdict(&self, loss: f32, net: &mut dyn Network) -> Option<DivergenceKind> {
        if !loss.is_finite() {
            return Some(DivergenceKind::NonFiniteLoss);
        }
        if !params_finite(net) {
            return Some(DivergenceKind::NonFiniteParam);
        }
        None
    }

    /// Whether another rollback is allowed.
    pub(crate) fn can_retry(&self) -> bool {
        self.retries_used < self.settings.max_retries
    }

    /// Restores the network and SGD state of the last healthy point,
    /// applies the learning-rate backoff, and returns the event plus the
    /// healthy point's TTD state. The live history and recovery
    /// bookkeeping are kept.
    pub(crate) fn rollback(
        &mut self,
        epoch: usize,
        kind: DivergenceKind,
        net: &mut dyn Network,
        sgd: &mut Sgd,
    ) -> (RecoveryEvent, Option<&TtdState>) {
        self.retries_used += 1;
        self.lr_scale *= self.settings.lr_backoff;
        let event = RecoveryEvent {
            epoch,
            attempt: self.retries_used,
            kind,
            lr_scale: self.lr_scale,
        };
        if antidote_obs::enabled() {
            antidote_obs::info(
                "train.rollback",
                &[
                    ("epoch", antidote_obs::Value::U64(epoch as u64)),
                    ("attempt", antidote_obs::Value::U64(self.retries_used as u64)),
                    ("kind", antidote_obs::Value::Str(&kind.to_string())),
                    ("lr_scale", antidote_obs::Value::F64(self.lr_scale as f64)),
                ],
            );
        }
        let healthy = self
            .healthy
            .as_ref()
            .expect("a snapshot precedes every rollback");
        healthy.restore(net).expect("snapshot drifted from network");
        let state = healthy
            .train_state
            .as_ref()
            .expect("snapshots carry train state");
        sgd.load_state(&state.sgd);
        (event, state.ttd.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_models::{Network, Vgg, VggConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net() -> Vgg {
        let mut rng = SmallRng::seed_from_u64(7);
        Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2))
    }

    #[test]
    fn params_finite_detects_poison() {
        let mut n = net();
        assert!(params_finite(&mut n));
        let mut first = true;
        n.visit_params_mut(&mut |p| {
            if first {
                p.value.data_mut()[0] = f32::INFINITY;
                first = false;
            }
        });
        assert!(!params_finite(&mut n));
    }

    #[test]
    fn rollback_restores_snapshot_and_backs_off() {
        let mut n = net();
        let mut sgd = Sgd::new(0.1).with_momentum(0.9);
        let mut sup = Supervisor::new(RecoverySettings::default());
        let history = TrainHistory::default();
        sup.snapshot(&mut n, &TrainConfig::fast_test(), 0, &sgd, &history, None);
        let mut before = Vec::new();
        n.visit_params_mut(&mut |p| before.push(p.value.clone()));

        // Poison and roll back.
        sup.maybe_inject(4, Some(4), &mut n);
        assert_eq!(
            sup.verdict(0.5, &mut n),
            Some(DivergenceKind::NonFiniteParam)
        );
        assert!(sup.can_retry());
        let (event, _) = sup.rollback(4, DivergenceKind::NonFiniteParam, &mut n, &mut sgd);
        assert_eq!(event.epoch, 4);
        assert_eq!(event.attempt, 1);
        assert!((sup.lr_scale - 0.5).abs() < 1e-7);
        let mut i = 0;
        n.visit_params_mut(&mut |p| {
            assert_eq!(p.value.data(), before[i].data());
            i += 1;
        });
        assert_eq!(sup.verdict(0.5, &mut n), None);
    }

    #[test]
    fn injection_is_one_shot() {
        let mut n = net();
        let mut sup = Supervisor::new(RecoverySettings::default());
        sup.maybe_inject(2, Some(2), &mut n);
        assert!(!params_finite(&mut n));
        // Clean the poison manually; a second call must not re-fire.
        n.visit_params_mut(&mut |p| {
            for v in p.value.data_mut() {
                if !v.is_finite() {
                    *v = 0.0;
                }
            }
        });
        sup.maybe_inject(2, Some(2), &mut n);
        assert!(params_finite(&mut n));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut n = net();
        let mut sgd = Sgd::new(0.1);
        let mut sup = Supervisor::new(RecoverySettings {
            max_retries: 2,
            lr_backoff: 0.5,
        });
        let history = TrainHistory::default();
        sup.snapshot(&mut n, &TrainConfig::fast_test(), 0, &sgd, &history, None);
        for _ in 0..2 {
            assert!(sup.can_retry());
            sup.rollback(0, DivergenceKind::NonFiniteLoss, &mut n, &mut sgd);
        }
        assert!(!sup.can_retry());
    }

    #[test]
    fn zero_retries_never_allows_rollback() {
        let sup = Supervisor::new(RecoverySettings {
            max_retries: 0,
            lr_backoff: 0.5,
        });
        assert!(!sup.can_retry());
    }

    #[test]
    fn error_display() {
        let e = TrainError::Diverged {
            epoch: 3,
            kind: DivergenceKind::NonFiniteLoss,
            retries: 2,
            history: TrainHistory::default(),
        };
        assert!(e.to_string().contains("epoch 3"));
        assert!(e.to_string().contains("non-finite loss"));
        let e = TrainError::ResumeMismatch("different config".into());
        assert!(e.to_string().contains("different config"));
    }
}
