//! Fault-tolerance workflow: divergence rollback, kill-and-resume
//! equivalence (plain and TTD), typed resume errors, and harness
//! isolation of a failing workload.

use antidote_bench::{run_table1_workload, ReproWorkload, Scale, WorkloadError, WorkloadRunOptions};
use antidote_repro::core::checkpoint::Checkpoint;
use antidote_repro::core::recovery::params_finite;
use antidote_repro::core::settings::{proposed_settings, Workload};
use antidote_repro::core::trainer::{TrainConfig, TrainHistory};
use antidote_repro::core::{
    train_ttd_with_options, train_with_options, PruneSchedule, RecoverySettings, RunOptions,
    TrainError, TtdConfig,
};
use antidote_repro::data::{SynthConfig, SynthDataset};
use antidote_repro::models::{Network, NoopHook, Vgg, VggConfig};
use antidote_repro::nn::Mode;
use antidote_repro::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tiny_data() -> SynthDataset {
    SynthConfig::tiny(2, 8).with_samples(16, 8).generate()
}

fn tiny_net(seed: u64) -> Vgg {
    let mut rng = SmallRng::seed_from_u64(seed);
    Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2))
}

fn tiny_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 8,
        ..TrainConfig::fast_test()
    }
}

fn temp_ckpt(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "antidote_recovery_{name}_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// NaN injected at epoch k trips the sentinel: the run rolls back, backs
/// the learning rate off, and still completes with finite results.
#[test]
fn injected_nan_rolls_back_and_completes_finite() {
    let data = tiny_data();
    let cfg = tiny_cfg(4);

    let mut clean_net = tiny_net(0xFA);
    let clean = train_with_options(
        &mut clean_net,
        &data,
        &mut NoopHook,
        &cfg,
        &RunOptions::default(),
    )
    .expect("clean run succeeds");

    let mut net = tiny_net(0xFA);
    let opts = RunOptions {
        inject_nan_at_epoch: Some(1),
        ..RunOptions::default()
    };
    let history = train_with_options(&mut net, &data, &mut NoopHook, &cfg, &opts)
        .expect("run recovers from the injected fault");

    assert_eq!(history.recoveries.len(), 1, "exactly one rollback");
    let event = history.recoveries[0];
    assert_eq!(event.epoch, 1);
    assert_eq!(event.attempt, 1);
    assert!((event.lr_scale - 0.5).abs() < 1e-6, "default backoff halves the LR");

    assert_eq!(history.epochs.len(), cfg.epochs, "full run completes");
    assert!(
        history
            .epochs
            .iter()
            .all(|e| e.train_loss.is_finite() && e.train_acc.is_finite()),
        "no non-finite epoch stats survive recovery"
    );
    assert!(params_finite(&mut net), "final parameters are finite");

    // Epoch 0 was healthy and identical; the retried epoch ran at the
    // backed-off learning rate.
    assert_eq!(history.epochs[0], clean.epochs[0]);
    assert!(
        (history.epochs[1].lr - clean.epochs[1].lr * 0.5).abs() < 1e-7,
        "retried epoch uses the scaled LR: {} vs clean {}",
        history.epochs[1].lr,
        clean.epochs[1].lr
    );
}

/// Eval logits of `net` on a fixed probe batch, as bit patterns.
fn eval_bits(net: &mut Vgg) -> Vec<u32> {
    let x = Tensor::from_fn([4, 3, 8, 8], |i| (i as f32 * 0.037).sin());
    let logits = net.forward(&x, Mode::Eval);
    logits.data().iter().map(|v| v.to_bits()).collect()
}

/// A rolled-back epoch leaves nothing behind: without learning-rate
/// backoff the retry replays the discarded epoch exactly, so the
/// finished network (batch-norm running statistics included) serves the
/// clean run's eval logits bit for bit.
fn rollback_replay_matches_a_clean_run(batchnorm: bool) {
    let data = tiny_data();
    let cfg = tiny_cfg(3);
    let net = || {
        let config = VggConfig::vgg_tiny(8, 2);
        let config = if batchnorm { config.with_batchnorm() } else { config };
        Vgg::new(&mut SmallRng::seed_from_u64(0xFC), config)
    };

    let mut clean = net();
    train_with_options(&mut clean, &data, &mut NoopHook, &cfg, &RunOptions::default())
        .expect("clean run succeeds");

    let mut replayed = net();
    let opts = RunOptions {
        recovery: RecoverySettings {
            lr_backoff: 1.0,
            ..RecoverySettings::default()
        },
        inject_nan_at_epoch: Some(1),
        ..RunOptions::default()
    };
    let history = train_with_options(&mut replayed, &data, &mut NoopHook, &cfg, &opts)
        .expect("run recovers from the injected fault");
    assert_eq!(history.recoveries.len(), 1, "exactly one rollback");
    assert_eq!(
        eval_bits(&mut replayed),
        eval_bits(&mut clean),
        "replayed run differs from the clean one (batchnorm={batchnorm})"
    );
}

#[test]
fn rollback_replay_matches_a_clean_run_in_eval_logits_plain() {
    rollback_replay_matches_a_clean_run(false);
}

#[test]
fn rollback_replay_matches_a_clean_run_in_eval_logits_batchnorm() {
    rollback_replay_matches_a_clean_run(true);
}

/// With a zero retry budget the same fault is a typed `Diverged` error
/// carrying the healthy prefix of the history — never a panic.
#[test]
fn exhausted_retry_budget_is_a_typed_error() {
    let data = tiny_data();
    let cfg = tiny_cfg(3);
    let mut net = tiny_net(0xFB);
    let opts = RunOptions {
        recovery: RecoverySettings {
            max_retries: 0,
            ..RecoverySettings::default()
        },
        inject_nan_at_epoch: Some(1),
        ..RunOptions::default()
    };
    match train_with_options(&mut net, &data, &mut NoopHook, &cfg, &opts) {
        Err(TrainError::Diverged {
            epoch,
            retries,
            history,
            ..
        }) => {
            assert_eq!(epoch, 1);
            assert_eq!(retries, 0);
            assert_eq!(history.epochs.len(), 1, "healthy prefix is preserved");
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
}

/// A run killed mid-way and resumed from its checkpoint reproduces the
/// uninterrupted run's epoch history exactly.
#[test]
fn killed_plain_run_resumes_to_identical_history() {
    let data = tiny_data();
    let cfg = tiny_cfg(4);
    let path = temp_ckpt("plain_resume");

    let mut uninterrupted_net = tiny_net(0xC0);
    let uninterrupted = train_with_options(
        &mut uninterrupted_net,
        &data,
        &mut NoopHook,
        &cfg,
        &RunOptions::default(),
    )
    .expect("uninterrupted run succeeds");

    // First invocation: "killed" after 2 epochs, checkpointing as it goes.
    let mut net = tiny_net(0xC0);
    let first_leg = RunOptions {
        checkpoint_to: Some(path.clone()),
        checkpoint_every: 1,
        stop_after_epochs: Some(2),
        ..RunOptions::default()
    };
    let partial = train_with_options(&mut net, &data, &mut NoopHook, &cfg, &first_leg)
        .expect("first leg succeeds");
    assert_eq!(partial.epochs.len(), 2);

    // Second invocation: a *differently initialized* network proves the
    // weights come from the checkpoint, not the in-memory state.
    let mut resumed_net = tiny_net(0xDEAD);
    let resumed = train_with_options(
        &mut resumed_net,
        &data,
        &mut NoopHook,
        &cfg,
        &RunOptions::resuming(&path),
    )
    .expect("resumed run succeeds");

    assert_eq!(
        resumed.epochs, uninterrupted.epochs,
        "resumed history must match the uninterrupted run epoch-for-epoch"
    );
    let _ = std::fs::remove_file(path);
}

/// The same kill-and-resume equivalence holds for TTD, including the
/// ratio-ascent ceiling trace (the ceiling resumes mid-ascent).
#[test]
fn killed_ttd_run_resumes_to_identical_history_and_trace() {
    let data = tiny_data();
    let schedule = PruneSchedule::new(vec![0.25, 0.5], vec![]);
    let mut cfg = TtdConfig::new(schedule, 6);
    cfg.train = tiny_cfg(6);
    let path = temp_ckpt("ttd_resume");

    let mut uninterrupted_net = tiny_net(0xC1);
    let uninterrupted =
        train_ttd_with_options(&mut uninterrupted_net, &data, &cfg, &RunOptions::default())
            .expect("uninterrupted TTD run succeeds");

    let mut net = tiny_net(0xC1);
    let first_leg = RunOptions {
        checkpoint_to: Some(path.clone()),
        checkpoint_every: 1,
        stop_after_epochs: Some(3),
        ..RunOptions::default()
    };
    let partial = train_ttd_with_options(&mut net, &data, &cfg, &first_leg)
        .expect("first TTD leg succeeds");
    assert_eq!(partial.history.epochs.len(), 3);

    let mut resumed_net = tiny_net(0xBEEF);
    let resumed =
        train_ttd_with_options(&mut resumed_net, &data, &cfg, &RunOptions::resuming(&path))
            .expect("resumed TTD run succeeds");

    assert_eq!(
        resumed.history.epochs, uninterrupted.history.epochs,
        "resumed TTD history must match the uninterrupted run"
    );
    assert_eq!(
        resumed.ratio_trace, uninterrupted.ratio_trace,
        "ratio-ascent ceiling trace must continue mid-ascent, not restart"
    );
    let _ = std::fs::remove_file(path);
}

/// Resuming against the wrong run flavor or configuration is a typed
/// error, and a missing checkpoint file is a checkpoint error.
#[test]
fn resume_mismatches_are_typed_errors() {
    let data = tiny_data();
    let cfg = tiny_cfg(3);
    let path = temp_ckpt("mismatch");

    let mut net = tiny_net(0xC2);
    let write = RunOptions {
        checkpoint_to: Some(path.clone()),
        stop_after_epochs: Some(1),
        ..RunOptions::default()
    };
    train_with_options(&mut net, &data, &mut NoopHook, &cfg, &write).expect("first leg succeeds");

    // A plain-training checkpoint cannot resume a TTD run.
    let mut ttd_cfg = TtdConfig::new(PruneSchedule::new(vec![0.25, 0.5], vec![]), 3);
    ttd_cfg.train = cfg;
    let mut ttd_net = tiny_net(0xC2);
    match train_ttd_with_options(&mut ttd_net, &data, &ttd_cfg, &RunOptions::resuming(&path)) {
        Err(TrainError::ResumeMismatch(msg)) => {
            assert!(!msg.is_empty());
        }
        other => panic!("expected ResumeMismatch, got {:?}", other.map(|o| o.history)),
    }

    // A different training configuration is rejected.
    let mut other_cfg = cfg;
    other_cfg.lr_max *= 2.0;
    let mut net2 = tiny_net(0xC2);
    match train_with_options(
        &mut net2,
        &data,
        &mut NoopHook,
        &other_cfg,
        &RunOptions::resuming(&path),
    ) {
        Err(TrainError::ResumeMismatch(_)) => {}
        other => panic!("expected ResumeMismatch, got {other:?}"),
    }

    // A TTD checkpoint resumes only the TTD run it was written by: a
    // different target, a different ascent policy, a plain run, or a
    // file written before the target and ascent were recorded are each
    // refused.
    let ttd_path = temp_ckpt("mismatch_ttd");
    let ttd_write = RunOptions {
        checkpoint_to: Some(ttd_path.clone()),
        stop_after_epochs: Some(2),
        ..RunOptions::default()
    };
    train_ttd_with_options(&mut tiny_net(0xC2), &data, &ttd_cfg, &ttd_write)
        .expect("first TTD leg succeeds");
    let mut lower_target = TtdConfig::new(PruneSchedule::new(vec![0.0, 0.1], vec![]), 3);
    lower_target.train = cfg;
    let fixed_ratio = ttd_cfg.clone().without_ascent();
    for other in [&lower_target, &fixed_ratio] {
        let resumed = train_ttd_with_options(
            &mut tiny_net(0xC2),
            &data,
            other,
            &RunOptions::resuming(&ttd_path),
        );
        match resumed {
            Err(TrainError::ResumeMismatch(msg)) => assert!(msg.contains("target or ascent")),
            other => panic!("expected ResumeMismatch, got {:?}", other.map(|o| o.ratio_trace)),
        }
    }
    match train_with_options(
        &mut tiny_net(0xC2),
        &data,
        &mut NoopHook,
        &cfg,
        &RunOptions::resuming(&ttd_path),
    ) {
        Err(TrainError::ResumeMismatch(_)) => {}
        other => panic!("expected ResumeMismatch, got {other:?}"),
    }
    let mut legacy = Checkpoint::load(&ttd_path).expect("TTD checkpoint loads");
    let ttd_state = legacy.train_state.as_mut().and_then(|s| s.ttd.as_mut()).unwrap();
    (ttd_state.target, ttd_state.ascent) = (None, None);
    legacy.save(&ttd_path).unwrap();
    let json = std::fs::read_to_string(&ttd_path).unwrap();
    let stripped = json.replace("\"target\":null,\"ascent\":null,", "");
    assert_ne!(json, stripped, "test must actually strip the fields");
    std::fs::write(&ttd_path, stripped).unwrap();
    let resumed = train_ttd_with_options(
        &mut tiny_net(0xC2),
        &data,
        &ttd_cfg,
        &RunOptions::resuming(&ttd_path),
    );
    match resumed {
        Err(TrainError::ResumeMismatch(_)) => {}
        other => panic!("expected ResumeMismatch, got {:?}", other.map(|o| o.ratio_trace)),
    }
    let _ = std::fs::remove_file(ttd_path);

    // A missing checkpoint file is a typed checkpoint error.
    let missing = temp_ckpt("never_written");
    let mut net3 = tiny_net(0xC2);
    match train_with_options(
        &mut net3,
        &data,
        &mut NoopHook,
        &cfg,
        &RunOptions::resuming(&missing),
    ) {
        Err(TrainError::Checkpoint(_)) => {}
        other => panic!("expected Checkpoint error, got {other:?}"),
    }
    let _ = std::fs::remove_file(path);
}

/// The Table I harness surfaces an unrecoverable workload as a typed
/// error (which the `table1` binary turns into a failure row) instead of
/// aborting the whole sweep.
#[test]
fn table1_harness_isolates_a_failing_workload() {
    let workload = Workload::Vgg16Cifar10;
    let rw = ReproWorkload::for_workload(workload, Scale::Quick);
    let settings: Vec<_> = proposed_settings()
        .into_iter()
        .filter(|s| s.workload == workload)
        .collect();
    let opts = WorkloadRunOptions {
        recovery: RecoverySettings {
            max_retries: 0,
            ..RecoverySettings::default()
        },
        inject_fault_epoch: Some(0),
        ..WorkloadRunOptions::default()
    };
    match run_table1_workload(&rw, &settings, 0xAB1E, &opts) {
        Err(err @ WorkloadError::Baseline(TrainError::Diverged { .. })) => {
            assert_eq!(err.stage(), "baseline-train");
        }
        Err(other) => panic!("expected a baseline divergence, got {other}"),
        Ok(_) => panic!("injected fault with zero retries must fail the workload"),
    }
}

/// The TTD run the fault tests share: two blocks ascending toward
/// `[0.25, 0.5]` over six epochs.
fn ttd_cfg() -> TtdConfig {
    let mut cfg = TtdConfig::new(PruneSchedule::new(vec![0.25, 0.5], vec![]), 6);
    cfg.train = tiny_cfg(6);
    cfg
}

fn faulted_at(epoch: usize) -> RunOptions {
    RunOptions {
        inject_nan_at_epoch: Some(epoch),
        ..RunOptions::default()
    }
}

/// A fault in a TTD run rolls back to the last healthy snapshot, whose
/// ceiling then retreats one ascent step (held at warm-up) before the
/// retry; the run re-ascends from there.
#[test]
fn faulted_ttd_run_retreats_one_ascent_step() {
    let data = tiny_data();
    let cfg = ttd_cfg();
    let outcome = train_ttd_with_options(&mut tiny_net(0xC4), &data, &cfg, &faulted_at(2))
        .expect("run recovers from the injected fault");
    assert_eq!(outcome.history.recoveries.len(), 1, "exactly one rollback");
    assert_eq!(outcome.history.recoveries[0].epoch, 2);
    assert_eq!(outcome.history.epochs.len(), 6);
    let caps: Vec<f64> = outcome.ratio_trace.iter().map(|&(_, c)| c).collect();
    let step = cfg.ascent.expect("paced ascent").step;
    let expected = [0.1, 0.1 + step, 0.1, 0.1 + step, 0.1 + 2.0 * step, 0.1 + 3.0 * step];
    for (got, want) in caps.iter().zip(expected) {
        assert!((got - want).abs() < 1e-9, "trace {caps:?}");
    }
    assert_eq!(caps.len(), expected.len());

    let clean =
        train_ttd_with_options(&mut tiny_net(0xC4), &data, &cfg, &RunOptions::default())
            .expect("clean run succeeds");
    assert!((clean.ratio_trace.last().unwrap().1 - 0.5).abs() < 1e-9);
}

/// Epoch losses and ratio-ceiling trace as bit patterns.
fn run_bits(history: &TrainHistory, trace: &[(usize, f64)]) -> (Vec<u32>, Vec<u64>) {
    (
        history.epochs.iter().map(|e| e.train_loss.to_bits()).collect(),
        trace.iter().map(|&(_, c)| c.to_bits()).collect(),
    )
}

/// Golden bit patterns of three supervised runs — a clean TTD run, the
/// same run with a fault at epoch 2, and a plain run with a fault at
/// epoch 1 — so a change to the training loop that moves any loss or
/// ceiling by one ulp fails here. The same constants must come out at
/// every thread budget and kernel backend.
#[test]
fn supervised_runs_match_their_recorded_bits() {
    let data = tiny_data();
    let cfg = ttd_cfg();
    let run_ttd = |opts: &RunOptions| {
        let o = train_ttd_with_options(&mut tiny_net(0xC4), &data, &cfg, opts)
            .expect("TTD run recovers");
        run_bits(&o.history, &o.ratio_trace)
    };
    let clean = run_ttd(&RunOptions::default());
    let faulted = run_ttd(&faulted_at(2));
    let mut plain_net = tiny_net(0xC5);
    let plain = train_with_options(
        &mut plain_net,
        &data,
        &mut NoopHook,
        &tiny_cfg(4),
        &faulted_at(1),
    )
    .expect("plain run recovers");
    let plain = run_bits(&plain, &[]);

    const CAP_0_1: u64 = 4591870180066957722; // warm-up 0.1
    const CAP_1: u64 = 4596774099661205596; // 0.1 + 1 step
    const CAP_2: u64 = 4599476259437627894;
    const CAP_3: u64 = 4601477859272014782;
    const CAP_0_5: u64 = 4602678819172646912; // the target 0.5
    assert_eq!(
        clean,
        (
            vec![1061799645, 1055481456, 1051880168, 1048554415, 1044917196, 1043956322],
            vec![CAP_0_1, CAP_1, CAP_2, CAP_3, CAP_0_5, CAP_0_5],
        ),
        "clean TTD run"
    );
    assert_eq!(
        faulted,
        (
            vec![1061799645, 1055481456, 1050521530, 1049595634, 1049342884, 1048782007],
            vec![CAP_0_1, CAP_1, CAP_0_1, CAP_1, CAP_2, CAP_3],
        ),
        "faulted TTD run"
    );
    assert_eq!(
        plain,
        (vec![1064217615, 1057755140, 1054191198, 1053245412], vec![]),
        "faulted plain run"
    );
}

/// A run that rolls back in its first leg, is killed, and resumes ends
/// exactly where the uninterrupted faulted run ends: history (recoveries
/// and backed-off learning rates included), ceiling trace and network.
/// Resuming the same checkpoint into a second fault with a one-retry
/// budget fails, because the spent retry travels with the checkpoint.
fn killed_faulted_run_resumes_exactly<R>(name: &str, run: R)
where
    R: Fn(&mut Vgg, &RunOptions) -> Result<(TrainHistory, Vec<(usize, f64)>), TrainError>,
{
    let path = temp_ckpt(name);
    let one_retry = RecoverySettings {
        max_retries: 1,
        ..RecoverySettings::default()
    };
    let mut whole_net = tiny_net(0xC6);
    let whole = run(
        &mut whole_net,
        &RunOptions {
            recovery: one_retry,
            ..faulted_at(1)
        },
    )
    .expect("uninterrupted faulted run recovers");
    assert_eq!(whole.0.recoveries.len(), 1);

    let first_leg = RunOptions {
        recovery: one_retry,
        checkpoint_to: Some(path.clone()),
        checkpoint_every: 1,
        stop_after_epochs: Some(2),
        ..faulted_at(1)
    };
    let partial = run(&mut tiny_net(0xC6), &first_leg).expect("first leg recovers");
    assert_eq!(partial.0.recoveries.len(), 1, "the rollback happens in the first leg");
    assert_eq!(partial.0.epochs.len(), 2);

    let second_fault = RunOptions {
        recovery: one_retry,
        resume_from: Some(path.clone()),
        ..faulted_at(3)
    };
    match run(&mut tiny_net(0xBAD), &second_fault) {
        Err(TrainError::Diverged { epoch, retries, .. }) => {
            assert_eq!((epoch, retries), (3, 1), "the spent retry must survive resume");
        }
        other => panic!("expected Diverged, got {:?}", other.map(|r| r.0)),
    }

    let mut resumed_net = tiny_net(0xBAD);
    let resumed = run(
        &mut resumed_net,
        &RunOptions {
            recovery: one_retry,
            ..RunOptions::resuming(&path)
        },
    )
    .expect("resumed run succeeds");
    assert_eq!(resumed, whole, "resumed faulted run differs from the uninterrupted one");
    assert_eq!(eval_bits(&mut resumed_net), eval_bits(&mut whole_net));
    let _ = std::fs::remove_file(path);
}

#[test]
fn killed_faulted_plain_run_resumes_exactly() {
    let data = tiny_data();
    killed_faulted_run_resumes_exactly("faulted_plain", |net, opts| {
        train_with_options(net, &data, &mut NoopHook, &tiny_cfg(4), opts).map(|h| (h, vec![]))
    });
}

#[test]
fn killed_faulted_ttd_run_resumes_exactly() {
    let data = tiny_data();
    let cfg = ttd_cfg();
    killed_faulted_run_resumes_exactly("faulted_ttd", |net, opts| {
        train_ttd_with_options(net, &data, &cfg, opts).map(|o| (o.history, o.ratio_trace))
    });
}
