//! Cross-crate integration: the full AntiDote pipeline from data
//! generation through TTD training to measured dynamic-pruning inference.

use antidote_repro::core::trainer::{self, TrainConfig};
use antidote_repro::core::{train_ttd, DynamicPruner, PruneSchedule, TtdConfig};
use antidote_repro::data::{BatchIter, SynthConfig};
use antidote_repro::models::{Network, NoopHook, ResNet, ResNetConfig, Vgg, VggConfig};
use antidote_repro::nn::loss::softmax_cross_entropy;
use antidote_repro::nn::Mode;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn vgg_pipeline_trains_prunes_and_measures() {
    let data = SynthConfig::tiny(3, 8).with_samples(20, 8).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));

    let target = PruneSchedule::new(vec![0.25, 0.5], vec![]);
    let mut cfg = TtdConfig::new(target, 8);
    cfg.train = TrainConfig {
        epochs: 8,
        ..TrainConfig::fast_test()
    };
    let outcome = train_ttd(&mut net, &data, &cfg);
    assert!(outcome.history.final_train_acc() > 0.3, "TTD should learn");

    let mut pruner = outcome.pruner;
    let (acc, pruned_macs) = trainer::evaluate_measured(&mut net, &data.test, &mut pruner, 8);
    let (_, dense_macs) = trainer::evaluate_measured(&mut net, &data.test, &mut NoopHook, 8);
    assert!(acc > 0.3, "pruned accuracy {acc} should beat chance");
    assert!(
        pruned_macs < dense_macs,
        "dynamic pruning must reduce measured MACs: {pruned_macs} vs {dense_macs}"
    );
    // Block-2 prunes 50% of channels; savings should be visible (>5%).
    assert!(pruned_macs / dense_macs < 0.95);
}

#[test]
fn resnet_pipeline_with_spatial_pruning() {
    let data = SynthConfig::tiny(2, 8).with_samples(12, 4).generate();
    let mut rng = SmallRng::seed_from_u64(2);
    let mut net = ResNet::new(&mut rng, ResNetConfig::resnet_small(8, 2, 4));

    // The paper's ResNet regime: both channel and spatial pruning, odd
    // layers only (enforced by the model's tap placement).
    let target = PruneSchedule::new(vec![0.3, 0.3, 0.5], vec![0.5, 0.5, 0.5]);
    let mut cfg = TtdConfig::new(target.clone(), 5);
    cfg.train = TrainConfig {
        epochs: 5,
        ..TrainConfig::fast_test()
    };
    let outcome = train_ttd(&mut net, &data, &cfg);
    let mut pruner = outcome.pruner;
    let (acc, pruned_macs) = trainer::evaluate_measured(&mut net, &data.test, &mut pruner, 8);
    let (_, dense_macs) = trainer::evaluate_measured(&mut net, &data.test, &mut NoopHook, 8);
    assert!((0.0..=1.0).contains(&acc));
    assert!(pruned_macs < dense_macs);
    // The last batch's masks prune both dimensions at every tap.
    let last_batch = pruner.keep_fractions();
    assert!(!last_batch.is_empty());
    for taps in last_batch {
        assert_eq!(taps.len(), net.taps().len());
        for (tap, &(ck, sk)) in taps.iter().enumerate() {
            assert!(ck < 1.0, "channel pruning active at tap {tap}");
            assert!(sk < 1.0, "spatial pruning active at tap {tap}");
        }
    }
}

#[test]
fn mask_multiply_and_masked_executor_agree_after_training() {
    // The two inference paths (Eq. 5 multiplicative masking vs actual
    // computation skipping) must be numerically equivalent on a trained
    // network — this is the lossless-skipping guarantee.
    let data = SynthConfig::tiny(2, 8).with_samples(10, 6).generate();
    let mut rng = SmallRng::seed_from_u64(3);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
    trainer::train(
        &mut net,
        &data,
        &mut NoopHook,
        &TrainConfig {
            epochs: 4,
            ..TrainConfig::fast_test()
        },
    );
    let schedule = PruneSchedule::new(vec![0.5, 0.5], vec![0.25, 0.0]);
    let mut p1 = DynamicPruner::new(schedule.clone());
    let acc_mask = trainer::evaluate(&mut net, &data.test, &mut p1, 8);
    let mut p2 = DynamicPruner::new(schedule);
    let (acc_measured, _) = trainer::evaluate_measured(&mut net, &data.test, &mut p2, 8);
    assert!(
        (acc_mask - acc_measured).abs() < 1e-6,
        "mask path {acc_mask} vs executor path {acc_measured}"
    );
}

#[test]
fn gradients_flow_through_masked_taps_during_ttd() {
    // A TTD training step with aggressive masks must still produce
    // finite, nonzero gradients in the earliest layer (no vanishing
    // through the mask multiply).
    let data = SynthConfig::tiny(2, 8).generate();
    let mut rng = SmallRng::seed_from_u64(4);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
    let mut pruner = DynamicPruner::new(PruneSchedule::new(vec![0.5, 0.75], vec![]));
    let (images, labels) = BatchIter::new(&data.train, 8, Some(0)).next().unwrap();
    let logits = net.forward_hooked(&images, Mode::Train, &mut pruner);
    let out = softmax_cross_entropy(&logits, &labels);
    net.zero_grad();
    net.backward(&out.grad);
    let mut first_grad_norm = None;
    net.visit_params_mut(&mut |p| {
        if first_grad_norm.is_none() {
            first_grad_norm = Some(p.grad.norm());
        }
        assert!(p.grad.data().iter().all(|v| v.is_finite()));
    });
    assert!(first_grad_norm.unwrap() > 0.0, "first layer must receive gradient");
}

#[test]
fn per_input_masks_differ_across_test_set() {
    // Dynamic pruning's defining property: different inputs produce
    // different masks. We check that the pruner's per-tap keep stats are
    // exact (top-k) while the actual kept sets differ between two
    // distinct images.
    use antidote_repro::models::FeatureHook;
    let data = SynthConfig::tiny(2, 8).generate();
    let mut rng = SmallRng::seed_from_u64(5);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
    let mut captured: Vec<Vec<bool>> = Vec::new();
    struct Capture<'a> {
        inner: DynamicPruner,
        sink: &'a mut Vec<Vec<bool>>,
    }
    impl FeatureHook for Capture<'_> {
        fn on_feature(
            &mut self,
            tap: antidote_repro::models::TapInfo,
            feature: &antidote_repro::tensor::Tensor,
            mode: Mode,
        ) -> Option<Vec<antidote_repro::nn::masked::FeatureMask>> {
            let masks = self.inner.on_feature(tap, feature, mode)?;
            if tap.block == 1 {
                for m in &masks {
                    if let Some(ch) = &m.channel {
                        self.sink.push(ch.clone());
                    }
                }
            }
            Some(masks)
        }
    }
    let mut hook = Capture {
        inner: DynamicPruner::new(PruneSchedule::new(vec![0.0, 0.5], vec![])),
        sink: &mut captured,
    };
    let (images, _) = BatchIter::new(&data.test, 8, None).next().unwrap();
    let _ = net.forward_hooked(&images, Mode::Eval, &mut hook);
    assert!(captured.len() >= 2);
    // Every mask keeps exactly half the channels…
    for m in &captured {
        assert_eq!(m.iter().filter(|&&b| b).count(), m.len() / 2);
    }
    // …but not every input keeps the same ones.
    assert!(
        captured.windows(2).any(|w| w[0] != w[1]),
        "masks should vary across inputs"
    );
}
