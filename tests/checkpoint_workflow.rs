//! Checkpoint workflow: TTD-train, save, reload into a fresh network,
//! and verify the reloaded model prunes identically.

use antidote_repro::core::checkpoint::Checkpoint;
use antidote_repro::core::trainer::{self, TrainConfig};
use antidote_repro::core::{
    train_ttd, train_with_options, DynamicPruner, PruneSchedule, RunOptions, TtdConfig,
};
use antidote_repro::data::SynthConfig;
use antidote_repro::models::{Network, NoopHook, Vgg, VggConfig};
use antidote_repro::nn::Mode;
use antidote_repro::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn ttd_checkpoint_round_trip_preserves_pruned_accuracy() {
    let data = SynthConfig::tiny(3, 8).with_samples(16, 8).generate();
    let schedule = PruneSchedule::new(vec![0.25, 0.5], vec![]);
    let mut rng = SmallRng::seed_from_u64(0xCC);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));
    let mut cfg = TtdConfig::new(schedule.clone(), 6);
    cfg.train = TrainConfig {
        epochs: 6,
        ..TrainConfig::fast_test()
    };
    let outcome = train_ttd(&mut net, &data, &cfg);
    let mut pruner = outcome.pruner;
    let acc_before = trainer::evaluate(&mut net, &data.test, &mut pruner, 8);

    // Save + reload into a *differently initialized* network.
    let ckpt = Checkpoint::capture(&mut net as &mut dyn Network);
    let path = std::env::temp_dir().join("antidote_workflow_ckpt.json");
    ckpt.save(&path).expect("save succeeds");
    let loaded = Checkpoint::load(&path).expect("load succeeds");
    let mut rng2 = SmallRng::seed_from_u64(0xDD);
    let mut fresh = Vgg::new(&mut rng2, VggConfig::vgg_tiny(8, 3));
    loaded
        .restore(&mut fresh as &mut dyn Network)
        .expect("shapes match");

    let mut pruner2 = DynamicPruner::new(schedule);
    let acc_after = trainer::evaluate(&mut fresh, &data.test, &mut pruner2, 8);
    assert!(
        (acc_before - acc_after).abs() < 1e-6,
        "reloaded model must prune identically: {acc_before} vs {acc_after}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn checkpoint_architecture_string_matches_network() {
    let mut rng = SmallRng::seed_from_u64(0xEE);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
    let ckpt = Checkpoint::capture(&mut net as &mut dyn Network);
    assert_eq!(ckpt.architecture, net.describe());
    assert!(ckpt.architecture.starts_with("vgg("));
}

/// A run killed after one epoch and resumed from its checkpoint ends on
/// the uninterrupted run's network: the eval logits agree bit for bit,
/// which needs the batch-norm running statistics to travel with the
/// checkpoint, not only the parameters.
fn resumed_run_matches_an_uninterrupted_one(batchnorm: bool) {
    let data = SynthConfig::tiny(2, 8).with_samples(16, 8).generate();
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        ..TrainConfig::fast_test()
    };
    let net = |seed| {
        let config = VggConfig::vgg_tiny(8, 2);
        let config = if batchnorm { config.with_batchnorm() } else { config };
        Vgg::new(&mut SmallRng::seed_from_u64(seed), config)
    };
    let path = std::env::temp_dir().join(format!(
        "antidote_resume_bits_{}_{}.json",
        u8::from(batchnorm),
        std::process::id()
    ));

    let mut whole = net(0xC3);
    train_with_options(&mut whole, &data, &mut NoopHook, &cfg, &RunOptions::default())
        .expect("uninterrupted run succeeds");

    let killed = RunOptions {
        checkpoint_to: Some(path.clone()),
        stop_after_epochs: Some(1),
        ..RunOptions::default()
    };
    train_with_options(&mut net(0xC3), &data, &mut NoopHook, &cfg, &killed)
        .expect("first leg succeeds");
    // A differently seeded network: everything must come from the file.
    let mut resumed = net(0xBAD);
    train_with_options(&mut resumed, &data, &mut NoopHook, &cfg, &RunOptions::resuming(&path))
        .expect("resumed run succeeds");

    let x = Tensor::from_fn([4, 3, 8, 8], |i| (i as f32 * 0.037).sin());
    let bits = |net: &mut Vgg| -> Vec<u32> {
        let logits = net.forward(&x, Mode::Eval);
        logits.data().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(
        bits(&mut resumed),
        bits(&mut whole),
        "resumed network differs from the uninterrupted one (batchnorm={batchnorm})"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn resumed_run_matches_an_uninterrupted_one_in_eval_logits_plain() {
    resumed_run_matches_an_uninterrupted_one(false);
}

#[test]
fn resumed_run_matches_an_uninterrupted_one_in_eval_logits_batchnorm() {
    resumed_run_matches_an_uninterrupted_one(true);
}
