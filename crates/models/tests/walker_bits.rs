//! Golden bit patterns of the network walkers — the ResNet forward
//! paths and the ResNet and VGG training step — recorded before ResNet
//! moved onto the shared op list, and required to survive it unchanged.
//!
//! Each checksum is FNV-1a over `to_bits` patterns. Per network:
//!
//! - the *step* checksum covers one `Mode::Train` hooked forward under a
//!   half-channels + every-third-position mask, then `backward`: the
//!   input gradient, then every parameter gradient in visit order (so it
//!   also pins the RNG draw order of construction and the visit order);
//! - the *forward* checksum (ResNet only; `golden_bits.rs` pins VGG's)
//!   covers `forward_measured`'s logits and counted MACs under the same
//!   mask, then the `forward_hooked` eval logits, taken after the step
//!   has moved the batch-norm running statistics.
//!
//! The same constants must come out at every thread budget and kernel
//! backend: tier-1 runs the suite at `ANTIDOTE_THREADS=1` and `=4` and
//! under `ANTIDOTE_KERNEL_BACKEND=scalar`.

use antidote_models::{FeatureHook, Network, ResNet, ResNetConfig, TapInfo, Vgg, VggConfig};
use antidote_nn::loss::softmax_cross_entropy;
use antidote_nn::masked::{FeatureMask, MacCounter};
use antidote_nn::Mode;
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn hash_bits(hash: u64, t: &Tensor) -> u64 {
    t.data()
        .iter()
        .fold(hash, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// Keeps even channels and every third spatial position, for every item.
#[derive(Debug)]
struct HalfAndThird;

impl FeatureHook for HalfAndThird {
    fn on_feature(
        &mut self,
        _tap: TapInfo,
        feature: &Tensor,
        _mode: Mode,
    ) -> Option<Vec<FeatureMask>> {
        let (n, c, h, w) = feature.shape().as_nchw().expect("tap is NCHW");
        let mask = FeatureMask {
            channel: Some((0..c).map(|i| i % 2 == 0).collect()),
            spatial: Some((0..h * w).map(|p| p % 3 == 0).collect()),
        };
        Some(vec![mask; n])
    }
}

fn input() -> Tensor {
    Tensor::from_fn([3, 3, 8, 8], |i| (i as f32 * 0.031).sin() * 0.8)
}

/// One masked training step: the input gradient, then every parameter
/// gradient in visit order.
fn step_checksum(net: &mut dyn Network) -> u64 {
    let logits = net.forward_hooked(&input(), Mode::Train, &mut HalfAndThird);
    let loss = softmax_cross_entropy(&logits, &[0, 2, 1]);
    net.zero_grad();
    let mut hash = hash_bits(FNV_OFFSET, &net.backward(&loss.grad));
    net.visit_params_mut(&mut |p| hash = hash_bits(hash, &p.grad));
    hash
}

/// The measured logits, the counted MACs, and the hooked eval logits.
fn forward_checksum(net: &mut dyn Network) -> u64 {
    let mut counter = MacCounter::new();
    let measured = net.forward_measured(&input(), &mut HalfAndThird, &mut counter);
    let hooked = net.forward_hooked(&input(), Mode::Eval, &mut HalfAndThird);
    let hash = hash_bits(FNV_OFFSET, &measured);
    hash_bits(fnv1a(hash, &counter.total().to_le_bytes()), &hooked)
}

/// `[step, forward]` of a seeded `resnet_small` (two projection blocks).
fn resnet_checksums(batchnorm: bool) -> [u64; 2] {
    let mut config = ResNetConfig::resnet_small(8, 3, 4);
    config.batchnorm = batchnorm;
    let mut net = ResNet::new(&mut SmallRng::seed_from_u64(31), config);
    [step_checksum(&mut net), forward_checksum(&mut net)]
}

fn vgg_step_checksum() -> u64 {
    let config = VggConfig::vgg_tiny(8, 3).with_batchnorm();
    step_checksum(&mut Vgg::new(&mut SmallRng::seed_from_u64(31), config))
}

const RESNET_PLAIN: [u64; 2] = [0x4a9b_b7d5_6ee4_96f7, 0x74a0_7466_801a_000e];
const RESNET_BATCHNORM: [u64; 2] = [0xf461_bf96_ec31_79a1, 0xc03e_0d01_e976_5402];
const VGG_BATCHNORM_STEP: u64 = 0x1c25_41f7_87ae_2cad;

#[test]
fn walker_bits_match_the_recorded_goldens() {
    let hex = |sums: &[u64]| {
        sums.iter()
            .map(|c| format!("{c:#018x}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        hex(&resnet_checksums(false)),
        hex(&RESNET_PLAIN),
        "resnet_small [step, forward]"
    );
    assert_eq!(
        hex(&resnet_checksums(true)),
        hex(&RESNET_BATCHNORM),
        "resnet_small+BN [step, forward]"
    );
    assert_eq!(
        hex(&[vgg_step_checksum()]),
        hex(&[VGG_BATCHNORM_STEP]),
        "vgg_tiny+BN step"
    );
}
