//! The shipped `convert` binary: fp32 and `--quantize int8 --calibrate
//! minmax` artifacts written by the CLI must be byte-identical to the
//! library's `ModelArtifact::from_checkpoint(..).save` and
//! `.quantize(MinMax, ..)` at the CLI's default calibration settings,
//! and must load and serve logits bit-identical to the in-memory builds.

use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::CalibrationMethod;
use antidote_modelfile::ModelArtifact;
use antidote_models::{Vgg, VggConfig};
use antidote_nn::Mode;
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::Command;

/// `convert`'s calibration defaults: batch size, batches, seed.
const CALIB_BATCH_SIZE: usize = 16;
const CALIB_BATCHES: usize = 4;
const CALIB_SEED: u64 = 0;

fn convert(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_convert"))
        .args(args)
        .output()
        .expect("run convert");
    assert!(
        out.status.success(),
        "convert {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn logits_bits(artifact: &ModelArtifact, input: &Tensor) -> Vec<u32> {
    artifact
        .build_network()
        .forward(input, Mode::Eval)
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn assert_cli_matches_library(cli_file: &Path, library: &ModelArtifact, dir: &Path) {
    let library_file = dir.join("library.adm");
    library.save(&library_file).unwrap();
    assert!(
        std::fs::read(cli_file).unwrap() == std::fs::read(&library_file).unwrap(),
        "{} differs from the library's bytes",
        cli_file.display()
    );
    let loaded = ModelArtifact::load(cli_file).unwrap();
    assert_eq!(loaded.dtype(), library.dtype());
    let input = Tensor::from_fn([2, 3, 8, 8], |i| ((i * 37 + 11) % 97) as f32 / 48.5 - 1.0);
    assert_eq!(logits_bits(&loaded, &input), logits_bits(library, &input));
}

#[test]
fn convert_cli_writes_the_library_artifacts_for_fp32_and_int8() {
    let dir = std::env::temp_dir().join(format!("adm_convert_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = VggConfig::vgg_tiny(8, 3);
    let mut net = Vgg::new(&mut SmallRng::seed_from_u64(5), config.clone());
    let ckpt_path = dir.join("ckpt.json");
    Checkpoint::capture(&mut net)
        .with_vgg_config(config)
        .save(&ckpt_path)
        .unwrap();
    let (fp32_path, int8_path) = (dir.join("cli-fp32.adm"), dir.join("cli-int8.adm"));
    let ckpt_arg = ckpt_path.to_str().unwrap();
    convert(&[
        "--checkpoint",
        ckpt_arg,
        "--out",
        fp32_path.to_str().unwrap(),
    ]);
    convert(&[
        "--checkpoint",
        ckpt_arg,
        "--out",
        int8_path.to_str().unwrap(),
        "--quantize",
        "int8",
        "--calibrate",
        "minmax",
    ]);

    let fp32 =
        ModelArtifact::from_checkpoint(&Checkpoint::load(&ckpt_path).unwrap(), None).unwrap();
    let int8 = fp32
        .quantize(
            CalibrationMethod::MinMax,
            CALIB_BATCH_SIZE,
            CALIB_BATCHES,
            CALIB_SEED,
        )
        .unwrap();
    assert_cli_matches_library(&fp32_path, &fp32, &dir);
    assert_cli_matches_library(&int8_path, &int8, &dir);
    let _ = std::fs::remove_dir_all(dir);
}
