//! Artifact-level round trips: a network saved to `.adm` and loaded
//! back must produce **bit-identical logits** to the source network,
//! for both dtypes, and the container layer must round-trip arbitrary
//! payload bits exactly (`to_bits` equality, not approximate).

use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::CalibrationMethod;
use antidote_modelfile::{Container, ContainerBuilder, ModelArtifact, ModelDtype};
use antidote_models::{Network, Vgg, VggConfig};
use antidote_nn::Mode;
use antidote_tensor::Tensor;
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adm_{name}_{}.adm", std::process::id()))
}

/// A deterministic probe batch exercising positive and negative values.
fn probe_input(config: &VggConfig) -> Tensor {
    let s = config.input_size;
    let n = 3 * s * s;
    let vals: Vec<f32> = (0..n)
        .map(|i| ((i * 37 + 11) % 97) as f32 / 48.5 - 1.0)
        .collect();
    Tensor::from_vec(vals, &[1, 3, s, s]).unwrap()
}

fn logits_bits(net: &mut dyn Network, input: &Tensor) -> Vec<u32> {
    net.forward(input, Mode::Eval)
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn trained_like_artifact() -> (Vgg, ModelArtifact) {
    let config = VggConfig::vgg_tiny(8, 4);
    let mut net = Vgg::new(&mut SmallRng::seed_from_u64(42), config.clone());
    let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
    let artifact = ModelArtifact::from_checkpoint(&ckpt, None).unwrap();
    (net, artifact)
}

#[test]
fn fp32_save_load_serves_bit_identical_logits() {
    let (mut source, artifact) = trained_like_artifact();
    let path = tmp_path("fp32_roundtrip");
    artifact.save(&path).unwrap();

    let loaded = ModelArtifact::load(&path).unwrap();
    assert_eq!(loaded.dtype(), ModelDtype::F32);
    assert_eq!(loaded.config(), artifact.config());

    let input = probe_input(loaded.config());
    let want = logits_bits(&mut source, &input);
    // Factories build per replica; every replica must agree bit-exactly.
    for _ in 0..2 {
        let mut replica = loaded.build_network();
        assert_eq!(logits_bits(replica.as_mut(), &input), want);
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn int8_save_load_serves_bit_identical_logits() {
    let (_, fp32) = trained_like_artifact();
    let int8 = fp32
        .quantize(CalibrationMethod::Percentile(99.9), 8, 2, 7)
        .unwrap();
    assert_eq!(int8.dtype(), ModelDtype::Int8);

    let path = tmp_path("int8_roundtrip");
    int8.save(&path).unwrap();
    let loaded = ModelArtifact::load(&path).unwrap();
    assert_eq!(loaded.dtype(), ModelDtype::Int8);

    let input = probe_input(loaded.config());
    let mut exported = int8.build_network();
    let mut from_file = loaded.build_network();
    assert_eq!(
        logits_bits(from_file.as_mut(), &input),
        logits_bits(exported.as_mut(), &input),
        "int8 logits must survive the file round trip bit-exactly"
    );
    let _ = std::fs::remove_file(path);
}

/// The fp32 `.adm` of a seeded network is the file the commit before
/// weight sharing wrote (FNV-1a over its bytes, recorded there); the
/// int8 file is pinned the same way in `golden_bits.rs`. Covers the
/// artifact reading its tensors out of the shared prototype and the
/// streamed writer.
#[test]
fn fp32_adm_bytes_are_the_pre_sharing_file() {
    for (batchnorm, len, golden) in [
        (false, 2960, 0xef1b_19dc_64c6_537a_u64),
        (true, 3408, 0xb314_3aea_f568_ed1f),
    ] {
        let mut config = VggConfig::vgg_tiny(8, 4);
        config.batchnorm = batchnorm;
        let mut net = Vgg::new(&mut SmallRng::seed_from_u64(42), config.clone());
        let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
        let artifact = ModelArtifact::from_checkpoint(&ckpt, None).unwrap();
        let path = tmp_path(&format!("fp32_golden_{}", u8::from(batchnorm)));
        artifact.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(bytes.len(), len);
        assert_eq!(
            format!("{:#018x}", antidote_modelfile::fnv1a(&bytes)),
            format!("{golden:#018x}"),
            "fp32 .adm bytes, batchnorm={batchnorm}"
        );
    }
}

#[test]
fn provenance_metadata_survives_quantize_and_round_trip() {
    let (_, fp32) = trained_like_artifact();
    let int8 = fp32.quantize(CalibrationMethod::MinMax, 8, 1, 0).unwrap();
    let path = tmp_path("metadata");
    int8.save(&path).unwrap();
    let loaded = ModelArtifact::load(&path).unwrap();

    let keys: Vec<&str> = loaded.metadata().iter().map(|(k, _)| k.as_str()).collect();
    for expected in [
        antidote_modelfile::KV_PROVENANCE_ARCH,
        antidote_modelfile::KV_PROVENANCE_CHECKSUM,
        antidote_modelfile::KV_CALIBRATION,
        antidote_modelfile::KV_QUANT_SCHEME,
    ] {
        assert!(keys.contains(&expected), "lost {expected}: {keys:?}");
    }
    let _ = std::fs::remove_file(path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn container_round_trips_f32_bits_exactly(
        // Arbitrary *bit patterns* (including NaNs and infinities —
        // the container stores bits, not numbers).
        bits in collection::vec(0u32..=u32::MAX, 1usize..=64),
    ) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut b = ContainerBuilder::new();
        b.tensor_f32("t", &[values.len()], &values);
        let c = Container::from_bytes(b.to_bytes()).unwrap();
        let back = c.f32_values(c.tensor("t").unwrap()).unwrap();
        let got: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, bits);
    }

    #[test]
    fn container_round_trips_i8_and_scales_exactly(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..=u64::MAX,
        scale_bits in collection::vec(0u32..=u32::MAX, 6usize),
    ) {
        let mut s = seed | 1;
        let data: Vec<i8> = (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as i8
            })
            .collect();
        let scales: Vec<f32> = scale_bits[..rows].iter().map(|&b| f32::from_bits(b)).collect();

        let mut b = ContainerBuilder::new();
        b.tensor_i8("q", rows, cols, &data, &scales);
        let c = Container::from_bytes(b.to_bytes()).unwrap();
        let (data_back, scales_back) = c.i8_values(c.tensor("q").unwrap()).unwrap();
        prop_assert_eq!(data_back, data);
        let want: Vec<u32> = scales.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = scales_back.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
