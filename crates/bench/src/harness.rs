//! Shared experiment plumbing: static-baseline schedules and the Table I
//! row runner.

use crate::workloads::ReproWorkload;
use antidote_baselines::{prune_statically, StaticMethod, StaticPruneConfig};
use antidote_core::checkpoint::{atomic_write, Checkpoint, LoadCheckpointError};
use antidote_core::flops::analytic_flops;
use antidote_core::report::ExperimentRow;
use antidote_core::settings::{baseline_rows, PaperSetting, Workload};
use antidote_core::trainer::{evaluate, evaluate_plain, train_with_options, TrainConfig};
use antidote_core::{
    train_ttd_with_options, PruneSchedule, RecoverySettings, RunOptions, TrainError, TtdConfig,
};
use antidote_data::{BatchIter, Split};
use antidote_models::{FeatureHook, Network, NoopHook};
use antidote_nn::loss::accuracy;
use antidote_nn::masked::MacCounter;
use std::fmt;
use std::io::Write;
use std::time::Instant;

/// Per-run knobs of the workload runner: recovery bounds, gradient
/// clipping, and fault injection for exercising the failure paths.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRunOptions {
    /// Divergence-recovery bounds for the training runs.
    pub recovery: RecoverySettings,
    /// Optional global-L2 gradient clipping threshold.
    pub grad_clip: Option<f32>,
    /// Inject a NaN fault after this baseline-training epoch (testing
    /// knob; `None` disables injection).
    pub inject_fault_epoch: Option<usize>,
    /// Restrict injection to one workload, by key (`vgg16_cifar10`) or
    /// display name (`VGG16 (CIFAR10)`); `None` injects into every
    /// workload.
    pub inject_workload: Option<String>,
}

impl WorkloadRunOptions {
    /// Reads options from the environment:
    ///
    /// - `ANTIDOTE_MAX_RETRIES` — divergence rollbacks allowed per run;
    /// - `ANTIDOTE_LR_BACKOFF` — learning-rate factor per rollback;
    /// - `ANTIDOTE_GRAD_CLIP` — global-L2 gradient clipping threshold;
    /// - `ANTIDOTE_INJECT_FAULT` — epoch to inject a NaN fault after;
    /// - `ANTIDOTE_INJECT_WORKLOAD` — restrict injection to one workload.
    ///
    /// Values that fail to parse — including non-positive or non-finite
    /// `ANTIDOTE_LR_BACKOFF` / `ANTIDOTE_GRAD_CLIP` — are ignored with a
    /// warning, keeping the defaults (the shared warn-and-ignore
    /// convention of [`antidote_obs::env`]).
    pub fn from_env() -> Self {
        use antidote_obs::env::parse;
        fn positive(key: &str) -> Option<f32> {
            // `env::positive` admits +inf (it only checks `> 0`); the
            // recovery supervisor asserts finiteness, so reject it here.
            let f = antidote_obs::env::positive::<f32>(key)?;
            if f.is_finite() {
                Some(f)
            } else {
                antidote_obs::env::warn_ignored(key, &f.to_string(), "must be finite");
                None
            }
        }
        let mut opts = Self::default();
        if let Some(n) = parse::<usize>("ANTIDOTE_MAX_RETRIES") {
            opts.recovery.max_retries = n;
        }
        if let Some(f) = positive("ANTIDOTE_LR_BACKOFF") {
            opts.recovery.lr_backoff = f;
        }
        opts.grad_clip = positive("ANTIDOTE_GRAD_CLIP");
        opts.inject_fault_epoch = parse::<usize>("ANTIDOTE_INJECT_FAULT");
        opts.inject_workload = std::env::var("ANTIDOTE_INJECT_WORKLOAD").ok();
        opts
    }
}

/// Accuracy, measured cost, and per-batch latency distribution of one
/// masked-executor evaluation pass.
#[derive(Debug, Clone)]
pub struct MeasuredEval {
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Measured MACs per image.
    pub macs_per_image: f64,
    /// Per-batch forward latencies, ms, ascending.
    pub batch_ms: Vec<f64>,
}

impl MeasuredEval {
    /// Nearest-rank percentile `q` of the per-batch latency, ms (the
    /// workspace's one [`antidote_obs::percentile`]).
    pub fn latency_ms(&self, q: f64) -> f64 {
        antidote_obs::percentile(&self.batch_ms, q)
    }

    /// `p50 …ms p95 …ms p99 …ms (N batches)`, for the report notes.
    fn latency_note(&self) -> String {
        format!(
            "p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms ({} batches)",
            self.latency_ms(50.0),
            self.latency_ms(95.0),
            self.latency_ms(99.0),
            self.batch_ms.len()
        )
    }
}

/// [`antidote_core::trainer::evaluate_measured`]-equivalent that also times every batch's
/// masked forward pass, summarizing the distribution as percentiles
/// instead of a bare mean — a mean hides the tail that serving SLOs
/// care about.
pub fn evaluate_measured_timed(
    net: &mut dyn Network,
    split: &Split,
    hook: &mut dyn FeatureHook,
    batch_size: usize,
) -> MeasuredEval {
    let mut counter = MacCounter::new();
    let mut correct = 0.0f64;
    let mut total = 0usize;
    let mut batch_ms = Vec::new();
    for (images, labels) in BatchIter::new(split, batch_size, None) {
        let start = Instant::now();
        let logits = net.forward_measured(&images, hook, &mut counter);
        batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
        correct += (accuracy(&logits, &labels) * labels.len() as f32) as f64;
        total += labels.len();
    }
    batch_ms.sort_by(f64::total_cmp);
    if total == 0 {
        return MeasuredEval {
            accuracy: 0.0,
            macs_per_image: 0.0,
            batch_ms,
        };
    }
    MeasuredEval {
        accuracy: (correct / total as f64) as f32,
        macs_per_image: counter.total() as f64 / total as f64,
        batch_ms,
    }
}

/// Typed failure of one Table I workload: which stage failed and why.
/// The experiment binaries turn these into
/// [`antidote_core::report::FailureRecord`] rows instead of aborting.
#[derive(Debug)]
pub enum WorkloadError {
    /// The plain baseline training run failed.
    Baseline(TrainError),
    /// A TTD run for one "Proposed" setting failed.
    Ttd {
        /// Name of the setting whose run failed.
        setting: String,
        /// The underlying training error.
        error: TrainError,
    },
    /// Restoring the shared trained snapshot failed.
    Restore(LoadCheckpointError),
}

impl WorkloadError {
    /// Short stage label for failure records.
    pub fn stage(&self) -> &'static str {
        match self {
            WorkloadError::Baseline(_) => "baseline-train",
            WorkloadError::Ttd { .. } => "ttd",
            WorkloadError::Restore(_) => "restore",
        }
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Baseline(e) => write!(f, "baseline training failed: {e}"),
            WorkloadError::Ttd { setting, error } => {
                write!(f, "TTD run for '{setting}' failed: {error}")
            }
            WorkloadError::Restore(e) => write!(f, "snapshot restore failed: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The per-block channel schedule given to every static baseline — the
/// strongest static schedule Table I quotes (FO pruning's
/// `[0.17, 0.1, 0.1, 0.45, 0.65]` for VGG), so the static methods are
/// compared at their best published operating point.
pub fn static_schedule_for(workload: Workload) -> PruneSchedule {
    match workload {
        Workload::Vgg16Cifar10 | Workload::Vgg16Cifar100 => {
            PruneSchedule::channel_only(vec![0.17, 0.1, 0.1, 0.45, 0.65])
        }
        Workload::ResNet56Cifar10 => PruneSchedule::channel_only(vec![0.2, 0.2, 0.4]),
        Workload::Vgg16ImageNet100 => {
            PruneSchedule::channel_only(vec![0.2, 0.2, 0.3, 0.5, 0.6])
        }
    }
}

/// Everything measured for one Table I section.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Result rows (baselines + proposed settings).
    pub rows: Vec<ExperimentRow>,
    /// Free-form notes (measured-MAC cross-checks etc.).
    pub notes: Vec<String>,
}

/// Runs one full Table I section at reproduction scale: plain baseline
/// training, the four static baselines (rank → mask → finetune from the
/// same trained weights), and TTD + dynamic pruning for each "Proposed"
/// setting.
///
/// Training runs execute under the recovery supervisor configured in
/// `opts`; a run that diverges beyond its retry budget (or a snapshot
/// mismatch) is returned as a typed [`WorkloadError`] so callers can
/// isolate the failure instead of aborting the whole experiment.
///
/// # Errors
///
/// [`WorkloadError`] naming the failed stage.
pub fn run_table1_workload(
    rw: &ReproWorkload,
    settings: &[PaperSetting],
    seed: u64,
    opts: &WorkloadRunOptions,
) -> Result<WorkloadResult, WorkloadError> {
    let data = rw.data.generate();
    let paper_shapes = rw.paper_shapes();
    let paper_baseline_macs: u64 = paper_shapes.iter().map(|s| s.macs()).sum();
    let mut rows = Vec::new();
    let mut notes = Vec::new();

    // --- plain baseline ----------------------------------------------
    let train_cfg = TrainConfig {
        epochs: rw.epochs,
        batch_size: rw.batch_size,
        grad_clip: opts.grad_clip,
        ..TrainConfig::default()
    };
    let inject_here = opts
        .inject_workload
        .as_deref()
        .is_none_or(|w| rw.workload.matches(w));
    let baseline_run = RunOptions {
        recovery: opts.recovery,
        inject_nan_at_epoch: opts.inject_fault_epoch.filter(|_| inject_here),
        ..RunOptions::default()
    };
    let mut baseline_net = rw.build_network(seed);
    let baseline_history = train_with_options(
        baseline_net.as_mut(),
        &data,
        &mut NoopHook,
        &train_cfg,
        &baseline_run,
    )
    .map_err(WorkloadError::Baseline)?;
    for event in &baseline_history.recoveries {
        notes.push(format!(
            "{}: recovered from {} at epoch {} (attempt {}, lr scale {:.3})",
            rw.workload.name(),
            event.kind,
            event.epoch,
            event.attempt,
            event.lr_scale,
        ));
    }
    let baseline_acc = evaluate_plain(baseline_net.as_mut(), &data.test, rw.batch_size) * 100.0;
    let dense_eval =
        evaluate_measured_timed(baseline_net.as_mut(), &data.test, &mut NoopHook, rw.batch_size);
    let dense_macs_per_img = dense_eval.macs_per_image;
    notes.push(format!(
        "{}: repro baseline acc {:.2}% (paper {:.1}%); dense measured MACs/img {:.3e} at repro scale, paper-scale baseline {:.3e}",
        rw.workload.name(),
        baseline_acc,
        rw.paper_baseline_acc(),
        dense_macs_per_img,
        paper_baseline_macs as f64,
    ));
    notes.push(format!(
        "{}: dense per-batch latency {}",
        rw.workload.name(),
        dense_eval.latency_note(),
    ));
    // Every static baseline starts from this trained state: parameters
    // and batch-norm running statistics.
    let trained = Checkpoint::capture(baseline_net.as_mut());

    // --- static baselines ---------------------------------------------
    let static_schedule = static_schedule_for(rw.workload);
    let paper_rows = baseline_rows();
    for method in StaticMethod::all() {
        // Skip method/workload pairs absent from Table I (GM is only
        // reported for VGG16/CIFAR10).
        let paper_row = paper_rows
            .iter()
            .find(|r| r.workload == rw.workload && r.method == method.name());
        let Some(paper_row) = paper_row else {
            continue;
        };
        trained.restore(baseline_net.as_mut()).map_err(WorkloadError::Restore)?;
        let cfg = StaticPruneConfig {
            method,
            schedule: static_schedule.clone(),
            finetune: TrainConfig {
                epochs: rw.finetune_epochs,
                lr_max: 0.01,
                batch_size: rw.batch_size,
                grad_clip: opts.grad_clip,
                ..TrainConfig::default()
            },
            ranking_batches: 4,
        };
        let outcome = prune_statically(baseline_net.as_mut(), &data, &cfg);
        let static_flops = analytic_flops(&paper_shapes, &static_schedule);
        rows.push(ExperimentRow {
            experiment: "table1".into(),
            workload: rw.workload.name().into(),
            method: method.name().into(),
            baseline_acc_pct: baseline_acc as f64,
            final_acc_pct: outcome.post_finetune_acc as f64 * 100.0,
            baseline_flops: paper_baseline_macs as f64,
            final_flops: static_flops.pruned_macs,
            flops_reduction_pct: static_flops.reduction_pct(),
            paper_reduction_pct: paper_row.reduction_pct,
            paper_accuracy_drop_pct: paper_row.accuracy_drop_pct,
        });
    }

    // --- proposed: TTD + dynamic pruning --------------------------------
    for setting in settings {
        let mut net = rw.build_network(seed);
        // TTD trains longer than the plain baseline: the paper keeps
        // training through the ratio ascent "until the target pruning
        // ratio and a satisfying accuracy is achieved" (Sec. IV-B).
        let ttd_epochs = rw.epochs * 2;
        let mut cfg = TtdConfig::new(setting.schedule.clone(), ttd_epochs);
        cfg.train = TrainConfig {
            epochs: ttd_epochs,
            ..train_cfg
        };
        let ttd_run = RunOptions {
            recovery: opts.recovery,
            ..RunOptions::default()
        };
        let outcome =
            train_ttd_with_options(net.as_mut(), &data, &cfg, &ttd_run).map_err(|error| {
                WorkloadError::Ttd {
                    setting: setting.name.clone(),
                    error,
                }
            })?;
        let mut pruner = outcome.pruner;
        let acc = evaluate(net.as_mut(), &data.test, &mut pruner, rw.batch_size) * 100.0;
        let pruned_eval =
            evaluate_measured_timed(net.as_mut(), &data.test, &mut pruner, rw.batch_size);
        let pruned_macs_per_img = pruned_eval.macs_per_image;
        let breakdown = analytic_flops(&paper_shapes, &setting.schedule);
        let measured_reduction =
            100.0 * (1.0 - pruned_macs_per_img / dense_macs_per_img);
        notes.push(format!(
            "{} / {}: measured MACs/img {:.3e} -> {:.3e} ({:.1}% reduction at repro scale; analytic paper-scale {:.1}%); mask-path acc {:.2}% vs masked-executor acc {:.2}%",
            rw.workload.name(),
            setting.name,
            dense_macs_per_img,
            pruned_macs_per_img,
            measured_reduction,
            breakdown.reduction_pct(),
            acc,
            pruned_eval.accuracy * 100.0,
        ));
        notes.push(format!(
            "{} / {}: pruned per-batch latency {}",
            rw.workload.name(),
            setting.name,
            pruned_eval.latency_note(),
        ));
        rows.push(ExperimentRow {
            experiment: "table1".into(),
            workload: rw.workload.name().into(),
            method: setting.name.clone(),
            baseline_acc_pct: baseline_acc as f64,
            final_acc_pct: acc as f64,
            baseline_flops: paper_baseline_macs as f64,
            final_flops: breakdown.pruned_macs,
            flops_reduction_pct: breakdown.reduction_pct(),
            paper_reduction_pct: setting.paper_reduction_pct,
            paper_accuracy_drop_pct: setting.paper_accuracy_drop_pct,
        });
    }
    Ok(WorkloadResult { rows, notes })
}

/// Writes an experiment report to `results/<name>.json` under the
/// workspace root, atomically via [`atomic_write`]. Best effort:
/// printing is the primary output, so failures are swallowed.
pub fn write_report(report: &antidote_core::report::ExperimentReport, name: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let json = report.to_json();
        let _ = atomic_write(&dir.join(format!("{name}.json")), |w| {
            w.write_all(json.as_bytes())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;
    use antidote_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn snapshot_round_trip() {
        let rw = ReproWorkload::for_workload(Workload::Vgg16Cifar10, Scale::Quick);
        let mut net = rw.build_network(5);
        let trained = Checkpoint::capture(net.as_mut());
        assert!(!trained.buffers.is_empty(), "the repro VGG has batch norm");
        // Perturb, then restore.
        net.visit_params_mut(&mut |p| {
            for v in p.value.data_mut() {
                *v += 1.0;
            }
        });
        net.visit_buffers_mut(&mut |b| {
            for v in b.data_mut() {
                *v += 1.0;
            }
        });
        trained.restore(net.as_mut()).unwrap();
        assert_eq!(Checkpoint::capture(net.as_mut()), trained);
    }

    /// The Table I reset between static baselines: capture the trained
    /// network, let a baseline fine-tune it (training-mode forwards move
    /// the batch-norm running statistics; a parameter nudge stands in
    /// for the optimizer), restore, and the eval logits are back bit for
    /// bit.
    fn reset_restores_eval_logits(batchnorm: bool) {
        use antidote_models::{Vgg, VggConfig};
        use antidote_nn::Mode;

        let config = VggConfig::vgg_tiny(8, 3);
        let config = if batchnorm { config.with_batchnorm() } else { config };
        let mut net: Box<dyn Network> = Box::new(Vgg::new(&mut SmallRng::seed_from_u64(5), config));
        let x = Tensor::from_fn([4, 3, 8, 8], |i| (i as f32 * 0.031).sin());
        let eval_bits = |net: &mut dyn Network| -> Vec<u32> {
            let logits = net.forward(&x, Mode::Eval);
            logits.data().iter().map(|v| v.to_bits()).collect()
        };
        let before = eval_bits(net.as_mut());
        let trained = Checkpoint::capture(net.as_mut());
        for _ in 0..3 {
            let _ = net.forward(&x, Mode::Train);
        }
        net.visit_params_mut(&mut |p| {
            for v in p.value.data_mut() {
                *v += 0.25;
            }
        });
        trained.restore(net.as_mut()).unwrap();
        assert_eq!(eval_bits(net.as_mut()), before, "batchnorm={batchnorm}");
    }

    #[test]
    fn table1_reset_restores_eval_logits_plain() {
        reset_restores_eval_logits(false);
    }

    #[test]
    fn table1_reset_restores_eval_logits_batchnorm() {
        reset_restores_eval_logits(true);
    }

    #[test]
    fn workload_options_from_env_defaults() {
        // With none of the variables set, from_env matches Default.
        for key in [
            "ANTIDOTE_MAX_RETRIES",
            "ANTIDOTE_LR_BACKOFF",
            "ANTIDOTE_GRAD_CLIP",
            "ANTIDOTE_INJECT_FAULT",
            "ANTIDOTE_INJECT_WORKLOAD",
        ] {
            assert!(std::env::var(key).is_err(), "{key} leaked into test env");
        }
        let opts = WorkloadRunOptions::from_env();
        assert_eq!(opts.recovery, RecoverySettings::default());
        assert_eq!(opts.grad_clip, None);
        assert_eq!(opts.inject_fault_epoch, None);
        assert_eq!(opts.inject_workload, None);
    }

    #[test]
    fn timed_eval_matches_untimed_and_orders_percentiles() {
        use antidote_core::trainer::evaluate_measured;
        use antidote_data::SynthConfig;
        use antidote_models::{Vgg, VggConfig};

        // 3 classes x 4 test samples per class = 12 images.
        let data = SynthConfig::tiny(3, 8).with_samples(4, 4).generate();
        let mut net = Vgg::new(
            &mut SmallRng::seed_from_u64(9),
            VggConfig::vgg_tiny(8, 3),
        );
        let timed = evaluate_measured_timed(&mut net, &data.test, &mut NoopHook, 4);
        let (acc, macs) = evaluate_measured(&mut net, &data.test, &mut NoopHook, 4);
        assert_eq!(timed.accuracy, acc);
        assert_eq!(timed.macs_per_image, macs);
        assert_eq!(timed.batch_ms.len(), 3, "12 samples / batch 4 = 3 batches");
        assert!(timed.latency_ms(50.0) <= timed.latency_ms(95.0));
        assert!(timed.latency_ms(95.0) <= timed.latency_ms(99.0));
        assert!(timed.latency_ms(99.0) <= timed.batch_ms[2]);
        assert!(timed.batch_ms[0] > 0.0);
    }

    #[test]
    fn static_schedules_exist_for_all_workloads() {
        for w in Workload::all() {
            assert!(!static_schedule_for(w).is_noop());
        }
    }

    #[test]
    fn resnet_static_schedule_has_three_blocks() {
        assert_eq!(
            static_schedule_for(Workload::ResNet56Cifar10)
                .channel_prune()
                .len(),
            3
        );
        let _ = SmallRng::seed_from_u64(0); // keep rand linked in tests
    }
}
