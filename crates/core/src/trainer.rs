//! Shared training/evaluation loops (used by TTD, the baselines and the
//! experiment harness). [`train_with_options`] and
//! [`crate::ttd::train_ttd_with_options`] run the one supervised epoch
//! loop; a TTD run is a plain run plus a ratio-ascent policy.

use crate::recovery::{self, RecoveryEvent, RunOptions, TrainError, TtdState};
use crate::ttd::Ascent;
use antidote_data::{Augmentation, BatchIter, Split, SynthDataset};
use antidote_models::{FeatureHook, Network, NoopHook};
use antidote_nn::loss::{accuracy, softmax_cross_entropy};
use antidote_nn::masked::MacCounter;
use antidote_nn::optim::{CosineAnnealing, LrSchedule, Sgd};
use antidote_nn::Mode;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Peak learning rate of the cosine schedule (paper: 0.1 → 0).
    pub lr_max: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Whether to apply flip/crop augmentation (paper's CIFAR pipeline).
    pub augment: bool,
    /// Seed for shuffling/augmentation.
    pub seed: u64,
    /// Optional global-L2 gradient clipping threshold: when the combined
    /// L2 norm of all gradients exceeds this value, every gradient is
    /// scaled down so the global norm equals it. `None` disables
    /// clipping.
    #[serde(default)]
    pub grad_clip: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            lr_max: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            augment: true,
            seed: 1,
            grad_clip: None,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast_test() -> Self {
        Self {
            epochs: 3,
            batch_size: 16,
            lr_max: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            augment: false,
            seed: 1,
            grad_clip: None,
        }
    }
}

/// Statistics of one completed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Training accuracy.
    pub train_acc: f32,
    /// Learning rate used.
    pub lr: f32,
}

/// History of a training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainHistory {
    /// Per-epoch statistics, in order.
    pub epochs: Vec<EpochStats>,
    /// Divergence rollbacks performed by the recovery supervisor, in
    /// order (empty for a run that never tripped the sentinel).
    #[serde(default)]
    pub recoveries: Vec<RecoveryEvent>,
}

impl TrainHistory {
    /// Final training accuracy (0.0 when no epochs ran).
    pub fn final_train_acc(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.train_acc)
    }
}

/// Trains `net` on `data.train` with the hook active at every tap (pass
/// [`NoopHook`] for plain training), using SGD + cosine decay per the
/// paper's setup.
///
/// Runs under the default recovery supervisor: a NaN/Inf epoch rolls
/// back to the previous healthy state and retries with a reduced
/// learning rate (see [`crate::recovery`]). If divergence persists
/// through every allowed retry, the healthy partial history is returned.
/// Use [`train_with_options`] for checkpointing, resume, or custom
/// recovery bounds.
pub fn train(
    net: &mut dyn Network,
    data: &SynthDataset,
    hook: &mut dyn FeatureHook,
    cfg: &TrainConfig,
) -> TrainHistory {
    match train_with_options(net, data, hook, cfg, &RunOptions::default()) {
        Ok(history) => history,
        Err(TrainError::Diverged { history, .. }) => history,
        // Default options never touch the filesystem, so checkpoint and
        // resume errors cannot occur here.
        Err(e) => unreachable!("train with default options cannot fail with {e}"),
    }
}

/// Deterministic per-epoch augmentation seed: rebuilding the augmenter
/// each epoch (rather than threading one stateful RNG through the run)
/// is what makes rolled-back retries and killed-and-resumed runs replay
/// the identical data stream.
fn aug_seed(cfg: &TrainConfig, epoch: usize) -> u64 {
    (cfg.seed ^ 0xA076_1D64_78BD_642F).wrapping_add(epoch as u64)
}

/// Supervised training loop: [`train`] plus divergence rollback,
/// resumable checkpoints, and fault injection, controlled by `opts`.
///
/// On success returns the full [`TrainHistory`] (including any recovery
/// events). Errors are typed: persistent divergence returns
/// [`TrainError::Diverged`] carrying the healthy partial history;
/// checkpoint I/O and resume-validation failures are reported without
/// panicking.
pub fn train_with_options(
    net: &mut dyn Network,
    data: &SynthDataset,
    hook: &mut dyn FeatureHook,
    cfg: &TrainConfig,
    opts: &RunOptions,
) -> Result<TrainHistory, TrainError> {
    train_supervised(net, data, cfg, opts, RunHook::Plain(hook))
}

/// What a supervised run trains each epoch through.
pub(crate) enum RunHook<'a> {
    /// A fixed hook ([`NoopHook`] for plain training).
    Plain(&'a mut dyn FeatureHook),
    /// TTD: the targeted-dropout pruner under ratio ascent, which also
    /// moves its ceiling around every epoch and rollback.
    Ttd(&'a mut Ascent),
}

impl RunHook<'_> {
    fn ascent(&mut self) -> Option<&mut Ascent> {
        match self {
            RunHook::Plain(_) => None,
            RunHook::Ttd(ascent) => Some(ascent),
        }
    }

    fn ttd_state(&self) -> Option<TtdState> {
        match self {
            RunHook::Plain(_) => None,
            RunHook::Ttd(ascent) => Some(ascent.state()),
        }
    }
}

/// The one supervised epoch loop behind plain and TTD training: SGD with
/// the cosine schedule, resume, a healthy-point snapshot after every
/// healthy epoch, divergence rollback, fault injection, and periodic and
/// final checkpoints (which write the healthy point; see
/// [`crate::recovery`]). A TTD run adds its ratio ascent through
/// [`RunHook::Ttd`].
pub(crate) fn train_supervised(
    net: &mut dyn Network,
    data: &SynthDataset,
    cfg: &TrainConfig,
    opts: &RunOptions,
    mut hook: RunHook<'_>,
) -> Result<TrainHistory, TrainError> {
    let mut sgd = Sgd::new(cfg.lr_max)
        .with_momentum(cfg.momentum)
        .with_weight_decay(cfg.weight_decay);
    let schedule = CosineAnnealing {
        lr_max: cfg.lr_max,
        lr_min: 0.0,
        total_epochs: cfg.epochs,
    };
    let mut sup = recovery::Supervisor::new(opts.recovery);
    let mut history = TrainHistory::default();
    let mut epoch = 0usize;
    if let Some(path) = &opts.resume_from {
        let ckpt = recovery::load_resume_state(path, cfg, hook.ttd_state().as_ref(), net)?;
        let state = ckpt.train_state.expect("validated by load_resume_state");
        sgd.load_state(&state.sgd);
        history = state.history;
        epoch = state.next_epoch;
        sup.lr_scale = state.lr_scale;
        sup.retries_used = state.retries_used;
        if let (Some(ascent), Some(ttd)) = (hook.ascent(), state.ttd) {
            ascent.resume(ttd);
        }
    }
    sup.snapshot(net, cfg, epoch, &sgd, &history, hook.ttd_state());
    let mut ran_this_invocation = 0usize;
    while epoch < cfg.epochs {
        if opts
            .stop_after_epochs
            .is_some_and(|n| ran_this_invocation >= n)
        {
            break;
        }
        if let Some(ascent) = hook.ascent() {
            ascent.before_epoch(epoch, &history);
        }
        let lr = schedule.lr_at(epoch) * sup.lr_scale;
        sgd.set_lr(lr);
        let mut aug = cfg
            .augment
            .then(|| Augmentation::paper_default(data.config.image_size, aug_seed(cfg, epoch)));
        let epoch_hook: &mut dyn FeatureHook = match &mut hook {
            RunHook::Plain(h) => &mut **h,
            RunHook::Ttd(ascent) => ascent.pruner_mut(),
        };
        let (loss, acc) = train_epoch(
            net,
            &data.train,
            epoch_hook,
            &mut sgd,
            aug.as_mut(),
            cfg.batch_size,
            cfg.seed.wrapping_add(epoch as u64),
            cfg.grad_clip,
        );
        sup.maybe_inject(epoch, opts.inject_nan_at_epoch, net);
        if let Some(kind) = sup.verdict(loss, net) {
            if !sup.can_retry() {
                return Err(TrainError::Diverged {
                    epoch,
                    kind,
                    retries: sup.retries_used,
                    history,
                });
            }
            let (event, healthy_ttd) = sup.rollback(epoch, kind, net, &mut sgd);
            history.recoveries.push(event);
            if let (Some(ascent), Some(ttd)) = (hook.ascent(), healthy_ttd) {
                ascent.retreat(epoch, ttd);
            }
            continue; // retry the same epoch at the reduced rate
        }
        history.epochs.push(EpochStats {
            epoch,
            train_loss: loss,
            train_acc: acc,
            lr,
        });
        emit_epoch_event(epoch, loss, acc, lr);
        if let Some(ascent) = hook.ascent() {
            ascent.settled();
        }
        epoch += 1;
        ran_this_invocation += 1;
        sup.snapshot(net, cfg, epoch, &sgd, &history, hook.ttd_state());
        if let Some(path) = &opts.checkpoint_to {
            if opts.checkpoint_every > 0
                && epoch.is_multiple_of(opts.checkpoint_every)
                && epoch < cfg.epochs
            {
                sup.save(path)?;
            }
        }
    }
    if let Some(path) = &opts.checkpoint_to {
        sup.save(path)?;
    }
    Ok(history)
}

/// Structured per-epoch telemetry (`train.epoch`), emitted only when
/// observability is enabled: with `ANTIDOTE_LOG=info` it reaches
/// stderr, with `ANTIDOTE_TRACE=path` the JSONL file, and it always
/// lands in the in-process ring — so `--quiet` runs stay quiet by
/// default while remaining inspectable.
fn emit_epoch_event(epoch: usize, loss: f32, acc: f32, lr: f32) {
    if !antidote_obs::enabled() {
        return;
    }
    antidote_obs::info(
        "train.epoch",
        &[
            ("epoch", antidote_obs::Value::U64(epoch as u64)),
            ("loss", antidote_obs::Value::F64(loss as f64)),
            ("acc", antidote_obs::Value::F64(acc as f64)),
            ("lr", antidote_obs::Value::F64(lr as f64)),
        ],
    );
}

/// Runs one epoch; returns `(mean loss, accuracy)`.
///
/// An empty split runs no batches and returns `(0.0, 0.0)` rather than
/// dividing by zero.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_epoch(
    net: &mut dyn Network,
    split: &Split,
    hook: &mut dyn FeatureHook,
    sgd: &mut Sgd,
    mut aug: Option<&mut Augmentation>,
    batch_size: usize,
    shuffle_seed: u64,
    grad_clip: Option<f32>,
) -> (f32, f32) {
    if let Some(c) = grad_clip {
        assert!(c.is_finite() && c > 0.0, "grad_clip must be positive");
    }
    let mut total_loss = 0.0f64;
    let mut total_correct = 0.0f64;
    let mut total = 0usize;
    for (images, labels) in BatchIter::new(split, batch_size, Some(shuffle_seed)) {
        let images = match aug.as_deref_mut() {
            Some(a) => a.apply(&images),
            None => images,
        };
        let logits = net.forward_hooked(&images, Mode::Train, hook);
        let out = softmax_cross_entropy(&logits, &labels);
        net.zero_grad();
        net.backward(&out.grad);
        if let Some(max_norm) = grad_clip {
            clip_grad_norm(net, max_norm);
        }
        sgd.begin_step();
        net.visit_params_mut(&mut |p| sgd.update(p));
        total_loss += out.loss as f64 * labels.len() as f64;
        total_correct += (accuracy(&logits, &labels) * labels.len() as f32) as f64;
        total += labels.len();
    }
    if total == 0 {
        return (0.0, 0.0);
    }
    (
        (total_loss / total as f64) as f32,
        (total_correct / total as f64) as f32,
    )
}

/// Scales every gradient so the global L2 norm across all parameters is
/// at most `max_norm`. No-op when the norm is already within bounds or
/// not finite (a non-finite norm is left for the divergence sentinel to
/// catch rather than smuggled back into range).
pub(crate) fn clip_grad_norm(net: &mut dyn Network, max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    net.visit_params_mut(&mut |p| {
        for &g in p.grad.data() {
            sq += (g as f64) * (g as f64);
        }
    });
    let norm = sq.sqrt() as f32;
    if norm.is_finite() && norm > max_norm {
        let scale = max_norm / norm;
        net.visit_params_mut(&mut |p| {
            for g in p.grad.data_mut() {
                *g *= scale;
            }
        });
    }
    norm
}

/// Evaluates accuracy on `split` with the hook active (dynamic pruning
/// applied via mask-multiplication).
///
/// An empty split returns `0.0` rather than dividing by zero.
pub fn evaluate(
    net: &mut dyn Network,
    split: &Split,
    hook: &mut dyn FeatureHook,
    batch_size: usize,
) -> f32 {
    let mut correct = 0.0f64;
    let mut total = 0usize;
    for (images, labels) in BatchIter::new(split, batch_size, None) {
        let logits = net.forward_hooked(&images, Mode::Eval, hook);
        correct += (accuracy(&logits, &labels) * labels.len() as f32) as f64;
        total += labels.len();
    }
    if total == 0 {
        return 0.0;
    }
    (correct / total as f64) as f32
}

/// Evaluates accuracy on `split` without any pruning.
pub fn evaluate_plain(net: &mut dyn Network, split: &Split, batch_size: usize) -> f32 {
    evaluate(net, split, &mut NoopHook, batch_size)
}

/// Evaluates through the masked executor, returning `(accuracy,
/// mean MACs per image)` — the *measured* FLOPs path.
///
/// An empty split returns `(0.0, 0.0)` rather than dividing by zero.
pub fn evaluate_measured(
    net: &mut dyn Network,
    split: &Split,
    hook: &mut dyn FeatureHook,
    batch_size: usize,
) -> (f32, f64) {
    let mut counter = MacCounter::new();
    let mut correct = 0.0f64;
    let mut total = 0usize;
    for (images, labels) in BatchIter::new(split, batch_size, None) {
        let logits = net.forward_measured(&images, hook, &mut counter);
        correct += (accuracy(&logits, &labels) * labels.len() as f32) as f64;
        total += labels.len();
    }
    if total == 0 {
        return (0.0, 0.0);
    }
    (
        (correct / total as f64) as f32,
        counter.total() as f64 / total as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::SynthConfig;
    use antidote_models::{Vgg, VggConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let data = SynthConfig::tiny(3, 8).with_samples(24, 8).generate();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));
        let cfg = TrainConfig {
            epochs: 8,
            ..TrainConfig::fast_test()
        };
        let history = train(&mut net, &data, &mut NoopHook, &cfg);
        assert!(history.epochs.len() == 8);
        assert!(
            history.epochs[7].train_loss < history.epochs[0].train_loss,
            "loss should decrease: {:?}",
            history.epochs
        );
        let acc = evaluate_plain(&mut net, &data.test, 16);
        assert!(acc > 0.34, "test accuracy {acc} should beat chance (1/3)");
    }

    #[test]
    fn empty_split_returns_zeros_not_nan() {
        use antidote_tensor::Tensor;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        // A zero-sample split: tensors cannot have a zero dimension, so
        // emptiness is represented by an empty label vector (the sample
        // count `Split::len` is defined by).
        let empty = Split {
            images: Tensor::zeros([1, 3, 8, 8]),
            labels: vec![],
        };
        let mut sgd = Sgd::new(0.05);
        let (loss, acc) = train_epoch(&mut net, &empty, &mut NoopHook, &mut sgd, None, 4, 0, None);
        assert_eq!((loss, acc), (0.0, 0.0), "must not be NaN");
        assert_eq!(evaluate_plain(&mut net, &empty, 4), 0.0);
        let (acc, macs) = evaluate_measured(&mut net, &empty, &mut NoopHook, 4);
        assert_eq!((acc, macs), (0.0, 0.0));
    }

    fn global_grad_norm(net: &mut dyn Network) -> f32 {
        let mut sq = 0.0f64;
        net.visit_params_mut(&mut |p| {
            for &g in p.grad.data() {
                sq += (g as f64) * (g as f64);
            }
        });
        sq.sqrt() as f32
    }

    #[test]
    fn grad_clip_bounds_global_norm() {
        use antidote_tensor::Tensor;
        let mut rng = SmallRng::seed_from_u64(6);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        // Plant large gradients so the global norm clearly exceeds 1.
        net.visit_params_mut(&mut |p| p.grad = Tensor::full(p.value.dims().to_vec(), 2.0));
        let first = |net: &mut Vgg| {
            let mut v = None;
            net.visit_params_mut(&mut |p| {
                if v.is_none() {
                    v = Some(p.grad.data()[0]);
                }
            });
            v.unwrap()
        };
        let before_first = first(&mut net);
        let before = global_grad_norm(&mut net);
        assert!(before > 1.0);
        let reported = clip_grad_norm(&mut net, 1.0);
        assert!((reported - before).abs() / before < 1e-5);
        assert!((global_grad_norm(&mut net) - 1.0).abs() < 1e-4);
        // Direction preserved: components scaled, not truncated.
        let after_first = first(&mut net);
        assert!(after_first > 0.0 && after_first < before_first);
        // A norm already in bounds is untouched.
        let kept = first(&mut net);
        clip_grad_norm(&mut net, 10.0);
        assert_eq!(first(&mut net), kept);
    }

    #[test]
    fn measured_eval_agrees_with_plain_eval_when_unpruned() {
        let data = SynthConfig::tiny(2, 8).generate();
        let mut rng = SmallRng::seed_from_u64(22);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let plain = evaluate_plain(&mut net, &data.test, 8);
        let (measured, macs) = evaluate_measured(&mut net, &data.test, &mut NoopHook, 8);
        assert!((plain - measured).abs() < 1e-6);
        assert!(macs > 0.0);
    }
}
