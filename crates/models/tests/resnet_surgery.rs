//! ResNet filter surgery: equivalence with the masked network and real
//! parameter/MAC savings under the skip-connection constraint.

use antidote_models::{FeatureHook, Network, ResNet, ResNetConfig, TapInfo};
use antidote_nn::masked::FeatureMask;
use antidote_nn::Mode;
use antidote_tensor::{init, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

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

fn half_masks(net: &ResNet) -> BTreeMap<usize, Vec<bool>> {
    net.taps()
        .iter()
        .map(|t| (t.id.0, (0..t.channels).map(|i| i % 2 == 0).collect()))
        .collect()
}

#[test]
fn shrunk_resnet_equals_masked_resnet() {
    let mut rng = SmallRng::seed_from_u64(21);
    let mut net = ResNet::new(&mut rng, ResNetConfig::resnet_small(8, 3, 4));
    // Push some data through in train mode so BN running stats are
    // non-trivial, then compare eval paths.
    let warm = init::uniform(&mut rng, &[4, 3, 8, 8], -1.0, 1.0);
    let _ = net.forward(&warm, Mode::Train);

    let masks = half_masks(&net);
    let x = init::uniform(&mut rng, &[2, 3, 8, 8], -1.0, 1.0);
    let masked = net.forward_hooked(&x, Mode::Eval, &mut FixedMasks(masks.clone()));
    let mut small = net.shrink(&masks);
    let shrunk = small.forward(&x);
    assert!(
        masked.allclose(&shrunk, 1e-3),
        "resnet surgery must preserve logits"
    );
}

#[test]
fn shrunk_resnet_saves_params_and_macs() {
    let mut rng = SmallRng::seed_from_u64(22);
    let mut net = ResNet::new(&mut rng, ResNetConfig::resnet_small(16, 2, 8));
    let masks = half_masks(&net);
    let mut small = net.shrink(&masks);
    assert!(small.param_count() < net.param_count());
    let dense_macs: u64 = net
        .conv_shapes()
        .iter()
        .map(antidote_models::ConvShape::macs)
        .sum();
    // Both conv1 (half outputs) and conv2 (half inputs) shrink; block
    // outputs keep full width, so total savings sit between 25% and 60%.
    let shrunk_macs = small.macs(16, 16);
    let ratio = shrunk_macs as f64 / dense_macs as f64;
    assert!(
        (0.4..0.85).contains(&ratio),
        "shrunk/dense MAC ratio {ratio} out of expected band"
    );
}

#[test]
fn identity_surgery_preserves_everything() {
    let mut rng = SmallRng::seed_from_u64(23);
    let mut net = ResNet::new(&mut rng, ResNetConfig::resnet_small(8, 2, 4));
    let x = init::uniform(&mut rng, &[1, 3, 8, 8], -1.0, 1.0);
    let plain = net.forward(&x, Mode::Eval);
    let mut same = net.shrink(&BTreeMap::new());
    assert!(plain.allclose(&same.forward(&x), 1e-4));
}

#[test]
#[should_panic(expected = "mask length mismatch")]
fn wrong_mask_length_panics() {
    let mut rng = SmallRng::seed_from_u64(24);
    let net = ResNet::new(&mut rng, ResNetConfig::resnet_small(8, 2, 4));
    let mut masks = BTreeMap::new();
    masks.insert(0usize, vec![true; 3]);
    let _ = net.shrink(&masks);
}
