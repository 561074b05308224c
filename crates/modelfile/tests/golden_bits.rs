//! Golden bit patterns of the VGG forward paths and the int8 `.adm`
//! bytes, recorded at the parent of the one-`Vgg` refactor (ISSUE 14)
//! and required to survive it unchanged.
//!
//! Each checksum is FNV-1a over the `to_bits` patterns of a seeded
//! `vgg_tiny`'s logits — the masked-executor path (`forward_measured`,
//! followed by its counted MACs) and the hooked path (`forward_hooked`
//! in eval mode) — for fp32 and int8, with and without batch norm,
//! dense and under a fixed half-channels + every-third-position mask.
//! The same constants must come out at thread budgets 1 and 4; tier-1
//! additionally runs the suite under `ANTIDOTE_KERNEL_BACKEND=scalar`.
//!
//! One `#[test]` on purpose: the thread budget is process-global.

use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::{quantize_vgg, CalibrationMethod};
use antidote_data::SynthConfig;
use antidote_modelfile::ModelArtifact;
use antidote_models::{FeatureHook, Network, NoopHook, TapInfo, Vgg, VggConfig};
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

/// Checksum of the measured logits, the counted MACs, and the hooked
/// eval logits of one network under one hook.
fn forward_checksum(net: &mut dyn Network, input: &Tensor, masked: bool) -> u64 {
    let mut counter = MacCounter::new();
    let (measured, hooked) = if masked {
        (
            net.forward_measured(input, &mut HalfAndThird, &mut counter),
            net.forward_hooked(input, Mode::Eval, &mut HalfAndThird),
        )
    } else {
        (
            net.forward_measured(input, &mut NoopHook, &mut counter),
            net.forward_hooked(input, Mode::Eval, &mut NoopHook),
        )
    };
    let mut hash = FNV_OFFSET;
    for v in measured.data() {
        hash = fnv1a(hash, &v.to_bits().to_le_bytes());
    }
    hash = fnv1a(hash, &counter.total().to_le_bytes());
    for v in hooked.data() {
        hash = fnv1a(hash, &v.to_bits().to_le_bytes());
    }
    hash
}

fn config(batchnorm: bool) -> VggConfig {
    let config = VggConfig::vgg_tiny(8, 3);
    if batchnorm {
        config.with_batchnorm()
    } else {
        config
    }
}

/// `[fp32 dense, fp32 masked, int8 dense, int8 masked]` for one config.
fn logit_checksums(batchnorm: bool) -> [u64; 4] {
    let mut fp32 = Vgg::new(&mut SmallRng::seed_from_u64(14), config(batchnorm));
    let input = Tensor::from_fn([3, 3, 8, 8], |i| (i as f32 * 0.029).sin() * 0.8);
    // One training-mode pass moves the batch-norm running statistics off
    // their identity initialisation, so eval-mode BN is not a no-op.
    let _ = fp32.forward(&input, Mode::Train);
    let data = SynthConfig::tiny(3, 8).with_samples(8, 8).generate();
    let mut int8 = quantize_vgg(&mut fp32, &data.test, 4, 2, CalibrationMethod::MinMax);
    [
        forward_checksum(&mut fp32, &input, false),
        forward_checksum(&mut fp32, &input, true),
        forward_checksum(&mut int8, &input, false),
        forward_checksum(&mut int8, &input, true),
    ]
}

/// Byte checksum of the int8 `.adm` written for a seeded network.
fn adm_checksum(batchnorm: bool) -> u64 {
    let config = config(batchnorm);
    let mut net = Vgg::new(&mut SmallRng::seed_from_u64(14), config.clone());
    let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
    let int8 = ModelArtifact::from_checkpoint(&ckpt, None)
        .expect("a fresh Vgg fits its own config")
        .quantize(CalibrationMethod::MinMax, 8, 2, 7)
        .expect("3-channel fp32 artifact quantizes");
    let path = std::env::temp_dir().join(format!(
        "adm_golden_{}_{}.adm",
        u8::from(batchnorm),
        std::process::id()
    ));
    int8.save(&path).expect("temp dir is writable");
    let bytes = std::fs::read(&path).expect("file just written");
    let _ = std::fs::remove_file(&path);
    fnv1a(FNV_OFFSET, &bytes)
}

const PLAIN_LOGITS: [u64; 4] = [
    0xfaa8_6702_34f4_9307,
    0x40bd_f66c_4d2c_2f20,
    0xae80_6947_d23f_827b,
    0x7127_aa20_8976_6900,
];
const BATCHNORM_LOGITS: [u64; 4] = [
    0xbec4_4ca0_832d_eac3,
    0xd2a4_51e5_8af1_5290,
    0xda6d_6582_fce6_4453,
    0x7674_7b1f_6b84_117c,
];
const PLAIN_ADM: u64 = 0xfe0d_70f3_a868_0df0;
const BATCHNORM_ADM: u64 = 0xbdd3_1359_018f_3cec;

#[test]
fn forward_bits_and_int8_adm_bytes_match_the_recorded_goldens() {
    let hex = |sums: &[u64]| {
        sums.iter()
            .map(|c| format!("{c:#018x}"))
            .collect::<Vec<_>>()
    };
    let prev = antidote_par::current_threads();
    for threads in [1, 4] {
        antidote_par::set_threads(threads);
        assert_eq!(
            hex(&logit_checksums(false)),
            hex(&PLAIN_LOGITS),
            "vgg_tiny logits at {threads} thread(s)"
        );
        assert_eq!(
            hex(&logit_checksums(true)),
            hex(&BATCHNORM_LOGITS),
            "vgg_tiny+BN logits at {threads} thread(s)"
        );
        assert_eq!(
            hex(&[adm_checksum(false), adm_checksum(true)]),
            hex(&[PLAIN_ADM, BATCHNORM_ADM]),
            "int8 .adm bytes (plain, BN) at {threads} thread(s)"
        );
    }
    antidote_par::set_threads(prev);
}
