//! Qualitative "shape" checks: the orderings and crossovers the paper's
//! figures report must hold at reproduction scale.

use antidote_repro::core::analysis::{criteria_comparison, Axis};
use antidote_repro::core::flops::decompose;
use antidote_repro::core::settings::{proposed_settings, Workload};
use antidote_repro::core::trainer::{self, TrainConfig};
use antidote_repro::core::{train_ttd, DynamicPruner, PruneSchedule, TtdConfig};
use antidote_repro::data::SynthConfig;
use antidote_repro::models::{NoopHook, Vgg, VggConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn trained_vgg(seed: u64, epochs: usize) -> (Vgg, antidote_repro::data::SynthDataset) {
    let data = SynthConfig::tiny(3, 16).with_samples(24, 10).generate();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(16, 3));
    trainer::train(
        &mut net,
        &data,
        &mut NoopHook,
        &TrainConfig {
            epochs,
            ..TrainConfig::fast_test()
        },
    );
    (net, data)
}

#[test]
fn fig2_shape_attention_dominates_inverse_on_average() {
    // Fig. 2's headline: attention-kept channels preserve accuracy far
    // better than inverse selection; random sits in between. We assert
    // the averaged ordering across moderate ratios (attention >= inverse
    // strictly, random within the envelope).
    let (mut net, data) = trained_vgg(71, 8);
    let ratios = [0.3, 0.5, 0.7];
    let curves = criteria_comparison(&mut net, &data.test, Axis::Channel, 2, 1, &ratios, 16);
    let avg = |label: &str| -> f32 {
        let c = curves.iter().find(|c| c.label == label).unwrap();
        c.accuracy.iter().sum::<f32>() / c.accuracy.len() as f32
    };
    let (att, rnd, inv) = (avg("attention"), avg("random"), avg("inverse"));
    assert!(
        att >= inv,
        "attention ({att}) must dominate inverse ({inv}); random = {rnd}"
    );
    assert!(
        att >= rnd - 0.05,
        "attention ({att}) should not lose clearly to random ({rnd})"
    );
}

#[test]
fn fig4_shape_redundancy_composition_orderings() {
    // ImageNet config: spatial share ≫ channel share.
    // CIFAR config: all channel. ResNet: balanced.
    let settings = proposed_settings();
    let imagenet = settings
        .iter()
        .find(|s| s.workload == Workload::Vgg16ImageNet100)
        .unwrap();
    let shapes = VggConfig::vgg16(224, 100).conv_shapes();
    let comp = decompose(&shapes, &imagenet.schedule);
    assert!(comp.spatial_pct > 5.0 * comp.channel_pct);

    let cifar = settings
        .iter()
        .find(|s| s.workload == Workload::Vgg16Cifar10)
        .unwrap();
    let shapes = VggConfig::vgg16(32, 10).conv_shapes();
    let comp = decompose(&shapes, &cifar.schedule);
    assert_eq!(comp.spatial_pct, 0.0);
    assert!(comp.channel_pct > 40.0);
}

#[test]
fn table1_shape_dynamic_reaches_higher_ratios_than_static_quotes() {
    // The paper's argument: dynamic pruning sustains per-block ratios
    // ([0.2 0.2 0.6 0.9 0.9]) far above the best static schedule
    // ([0.17 0.1 0.1 0.45 0.65]) — so its analytic reduction is higher.
    use antidote_repro::core::flops::analytic_flops;
    let shapes = VggConfig::vgg16(32, 10).conv_shapes();
    let dynamic = PruneSchedule::channel_only(vec![0.2, 0.2, 0.6, 0.9, 0.9]);
    let static_best = PruneSchedule::channel_only(vec![0.17, 0.1, 0.1, 0.45, 0.65]);
    let d = analytic_flops(&shapes, &dynamic).reduction_pct();
    let s = analytic_flops(&shapes, &static_best).reduction_pct();
    assert!(
        d > s + 5.0,
        "dynamic ({d}%) must clearly exceed best static ({s}%)"
    );
}

#[test]
fn ttd_shape_pruned_accuracy_close_to_unpruned() {
    // The paper's TTD claim: after targeted-dropout training, dynamic
    // pruning at the trained ratio costs little accuracy.
    let data = SynthConfig::tiny(3, 16).with_samples(24, 10).generate();
    let schedule = PruneSchedule::new(vec![0.25, 0.5], vec![]);
    let mut rng = SmallRng::seed_from_u64(73);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(16, 3));
    let mut cfg = TtdConfig::new(schedule.clone(), 10);
    cfg.train = TrainConfig {
        epochs: 10,
        ..TrainConfig::fast_test()
    };
    let outcome = train_ttd(&mut net, &data, &cfg);
    let unpruned = trainer::evaluate_plain(&mut net, &data.test, 16);
    let mut pruner = outcome.pruner;
    let pruned = trainer::evaluate(&mut net, &data.test, &mut pruner, 16);
    assert!(
        unpruned - pruned < 0.25,
        "TTD-trained model should tolerate its schedule: unpruned {unpruned} pruned {pruned}"
    );
}

#[test]
fn dynamic_outperforms_static_masks_at_equal_ratio_without_finetune() {
    // At the same prune ratio and without any recovery training, the
    // per-input dynamic mask should lose no more accuracy than a fixed
    // random-but-frozen mask (the degenerate static baseline).
    use antidote_repro::core::Criterion;
    let (mut net, data) = trained_vgg(74, 8);
    let schedule = PruneSchedule::channel_only(vec![0.0, 0.5]);
    let mut dynamic = DynamicPruner::new(schedule.clone());
    let dyn_acc = trainer::evaluate(&mut net, &data.test, &mut dynamic, 16);
    // Frozen random mask = random criterion with a fixed seed acts as a
    // static mask surrogate whose choice ignores the input.
    let mut frozen = DynamicPruner::new(schedule)
        .with_criterion(Criterion::Random)
        .with_seed(123);
    let frozen_acc = trainer::evaluate(&mut net, &data.test, &mut frozen, 16);
    assert!(
        dyn_acc + 1e-6 >= frozen_acc - 0.05,
        "dynamic ({dyn_acc}) should not lose to input-blind masks ({frozen_acc})"
    );
}
