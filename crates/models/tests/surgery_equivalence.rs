//! Filter surgery must be semantics-preserving: the shrunk network's
//! logits equal the mask-multiplied network's logits for every input.

use antidote_models::{FeatureHook, Network, TapInfo, Vgg, VggConfig};
use antidote_nn::masked::FeatureMask;
use antidote_nn::Mode;
use antidote_tensor::{init, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Static hook replaying fixed per-tap channel masks.
#[derive(Debug)]
struct FixedMasks(BTreeMap<usize, Vec<bool>>);

impl FeatureHook for FixedMasks {
    fn on_feature(
        &mut self,
        tap: TapInfo,
        feature: &Tensor,
        _mode: Mode,
    ) -> Option<Vec<FeatureMask>> {
        let mask = self.0.get(&tap.id.0)?;
        Some(vec![
            FeatureMask {
                channel: Some(mask.clone()),
                spatial: None,
            };
            feature.dims()[0]
        ])
    }
}

fn masks_for(net_channels: &[usize], pattern: impl Fn(usize, usize) -> bool) -> BTreeMap<usize, Vec<bool>> {
    net_channels
        .iter()
        .enumerate()
        .map(|(tap, &c)| (tap, (0..c).map(|i| pattern(tap, i)).collect()))
        .collect()
}

fn tap_channels(net: &Vgg) -> Vec<usize> {
    net.taps().iter().map(|t| t.channels).collect()
}

#[test]
fn shrunk_equals_masked_plain_vgg() {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));
    let masks = masks_for(&tap_channels(&net), |_, i| i % 2 == 0);
    let x = init::uniform(&mut rng, &[3, 3, 8, 8], -1.0, 1.0);
    let masked = net.forward_hooked(&x, Mode::Eval, &mut FixedMasks(masks.clone()));
    let mut small = net.shrink(&masks);
    let shrunk = small.forward(&x);
    assert!(
        masked.allclose(&shrunk, 1e-4),
        "surgery must preserve logits exactly"
    );
}

#[test]
fn shrunk_equals_masked_batchnorm_vgg() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2).with_batchnorm());
    // Push some data through in train mode so BN running stats are
    // non-trivial: a surgery that reset them would then change logits.
    let warm = init::uniform(&mut rng, &[4, 3, 8, 8], -1.0, 1.0);
    let _ = net.forward(&warm, Mode::Train);
    // Uneven masks: keep 3 of 4 at tap 0, 2 of 8 at tap 1.
    let mut masks = BTreeMap::new();
    masks.insert(0usize, vec![true, true, true, false]);
    masks.insert(1usize, vec![false, true, false, false, false, false, true, false]);
    let x = init::uniform(&mut rng, &[2, 3, 8, 8], -1.0, 1.0);
    let masked = net.forward_hooked(&x, Mode::Eval, &mut FixedMasks(masks.clone()));
    let mut small = net.shrink(&masks);
    assert!(masked.allclose(&small.forward(&x), 1e-4));
}

#[test]
fn shrunk_has_fewer_params_and_macs() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
    let masks = masks_for(&tap_channels(&net), |_, i| i % 2 == 0);
    let mut small = net.shrink(&masks);
    assert!(small.param_count() < net.param_count());
    // Dense MACs of the original (tap 0 halves conv2's input AND conv1's
    // output; both layers shrink).
    let full_macs: u64 = net
        .conv_shapes()
        .iter()
        .map(antidote_models::ConvShape::macs)
        .sum();
    assert!(small.macs(8, 8) < full_macs);
    // conv1: 3->2 out (half), conv2: 2 in, 4 out => about a quarter of
    // the original conv work plus the halved classifier.
    assert!(small.macs(8, 8) < full_macs * 6 / 10);
}

#[test]
fn missing_masks_mean_identity_surgery() {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
    let x = init::uniform(&mut rng, &[1, 3, 8, 8], -1.0, 1.0);
    let plain = net.forward(&x, Mode::Eval);
    let mut same = net.shrink(&BTreeMap::new());
    assert!(plain.allclose(&same.forward(&x), 1e-4));
    assert_eq!(same.param_count(), net.param_count());
    // The analytic MAC walker agrees with the config's FLOPs model.
    let config = net.config();
    let dense: u64 = config
        .conv_shapes()
        .iter()
        .map(antidote_models::ConvShape::macs)
        .sum();
    let classifier = (config.classes * config.classifier_inputs()) as u64;
    assert_eq!(same.macs(8, 8), dense + classifier);
}

#[test]
#[should_panic(expected = "mask length mismatch")]
fn wrong_mask_length_panics() {
    let mut rng = SmallRng::seed_from_u64(5);
    let net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
    let mut masks = BTreeMap::new();
    masks.insert(0usize, vec![true; 99]);
    let _ = net.shrink(&masks);
}
