//! Weight checkpointing: save and restore a network's trainable
//! parameters (and, optionally, full training state) as JSON.
//!
//! TTD training at `full` scale takes CPU-minutes; checkpoints let the
//! experiment binaries reuse trained weights across runs, let users ship
//! trained models with the crate, and — via the embedded
//! [`TrainState`] — let a killed run resume mid-ascent.
//!
//! The v2 on-disk format is defensive:
//!
//! - **atomic writes** — the file is written to a temporary sibling and
//!   renamed into place, so a crash mid-save never leaves a truncated
//!   checkpoint at the target path;
//! - **versioned header** — [`CHECKPOINT_VERSION`] is embedded and
//!   verified at load (v1 files, which predate the header, decode as
//!   version 0 and are rejected with a typed error);
//! - **parameter checksum** — an FNV-1a digest over every shape and
//!   value bit-pattern, verified at load, catches silent corruption that
//!   still parses as JSON;
//! - **finiteness validation** — non-finite parameters are rejected at
//!   save time (JSON cannot represent them; they round-trip as `null`)
//!   and again at load time.
//!
//! Every failure path returns a typed error; loading never panics on bad
//! input.

use crate::recovery::TrainState;
use antidote_models::{Network, VggConfig};
use antidote_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Current on-disk checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A serialized set of network parameters plus a structural fingerprint
/// and optional resumable training state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// On-disk format version (see [`CHECKPOINT_VERSION`]). Files
    /// written before versioning decode as `0` and are rejected at load.
    #[serde(default)]
    pub version: u32,
    /// Network description at save time (structural sanity check).
    pub architecture: String,
    /// Parameter tensors in visit order.
    pub params: Vec<Tensor>,
    /// FNV-1a digest over parameter shapes and value bit-patterns.
    #[serde(default)]
    pub checksum: u64,
    /// Training state for resumable runs (`None` for weights-only
    /// checkpoints).
    #[serde(default)]
    pub train_state: Option<TrainState>,
    /// Generating [`VggConfig`] when the captured network was a VGG
    /// (`None` for other architectures and for files written before the
    /// field existed). The model-file converter needs it to rebuild the
    /// network structurally; `architecture` is a human-readable string,
    /// not a constructor input. Decodes as `None` when the field is
    /// absent, so pre-existing v2 files keep loading.
    #[serde(default)]
    pub vgg_config: Option<VggConfig>,
}

/// Error raised when loading a checkpoint, or restoring one into an
/// incompatible network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadCheckpointError {
    /// Parameter count differs from the target network.
    ParamCountMismatch {
        /// Parameters in the checkpoint.
        checkpoint: usize,
        /// Parameters in the network.
        network: usize,
    },
    /// A parameter's shape differs.
    ShapeMismatch {
        /// Index of the offending parameter (visit order).
        index: usize,
    },
    /// The file could not be read.
    Io(String),
    /// The file is not valid checkpoint JSON (truncated, corrupted, or
    /// not a checkpoint at all).
    Malformed(String),
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file (0 for pre-versioning files).
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The stored checksum does not match the stored parameters.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the file's parameters.
        computed: u64,
    },
    /// A stored parameter contains NaN or infinite values.
    NonFiniteParam {
        /// Index of the offending parameter (visit order).
        index: usize,
    },
}

impl fmt::Display for LoadCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadCheckpointError::ParamCountMismatch {
                checkpoint,
                network,
            } => write!(
                f,
                "checkpoint has {checkpoint} parameters but network has {network}"
            ),
            LoadCheckpointError::ShapeMismatch { index } => {
                write!(f, "parameter {index} has a different shape")
            }
            LoadCheckpointError::Io(msg) => write!(f, "cannot read checkpoint: {msg}"),
            LoadCheckpointError::Malformed(msg) => {
                write!(f, "malformed checkpoint: {msg}")
            }
            LoadCheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} (expected {expected})"
            ),
            LoadCheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            LoadCheckpointError::NonFiniteParam { index } => {
                write!(f, "parameter {index} contains non-finite values")
            }
        }
    }
}

impl Error for LoadCheckpointError {}

/// Error raised when saving a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveCheckpointError {
    /// A parameter contains NaN or infinite values (JSON would silently
    /// store them as `null`, so they are rejected up front).
    NonFiniteParam {
        /// Index of the offending parameter (visit order).
        index: usize,
    },
    /// Writing the file failed.
    Io(String),
}

impl fmt::Display for SaveCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveCheckpointError::NonFiniteParam { index } => {
                write!(f, "refusing to save: parameter {index} is non-finite")
            }
            SaveCheckpointError::Io(msg) => write!(f, "cannot write checkpoint: {msg}"),
        }
    }
}

impl Error for SaveCheckpointError {}

/// FNV-1a digest over every parameter's shape and value bit-patterns.
pub fn param_checksum(params: &[Tensor]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mix = |h: u64, bytes: &[u8]| {
        let mut h = h;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    };
    for t in params {
        for &d in t.dims() {
            h = mix(h, &(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            h = mix(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Index of the first tensor containing a non-finite value, if any.
fn first_non_finite(params: &[Tensor]) -> Option<usize> {
    params
        .iter()
        .position(|t| !t.data().iter().all(|v| v.is_finite()))
}

/// Validates `tensors` against `net` (count and shapes) and, only if
/// everything matches, copies them into the network's parameters and
/// clears gradients. On error the network is left untouched.
///
/// This is the single restore path shared by [`Checkpoint::restore`] and
/// the bench harness.
///
/// # Errors
///
/// [`LoadCheckpointError::ParamCountMismatch`] or
/// [`LoadCheckpointError::ShapeMismatch`].
pub fn restore_tensors(net: &mut dyn Network, tensors: &[Tensor]) -> Result<(), LoadCheckpointError> {
    // Validate first so a failed restore cannot half-apply.
    let mut shapes = Vec::new();
    net.visit_params_mut(&mut |p| shapes.push(p.value.dims().to_vec()));
    if shapes.len() != tensors.len() {
        return Err(LoadCheckpointError::ParamCountMismatch {
            checkpoint: tensors.len(),
            network: shapes.len(),
        });
    }
    for (index, (shape, param)) in shapes.iter().zip(tensors).enumerate() {
        if shape != param.dims() {
            return Err(LoadCheckpointError::ShapeMismatch { index });
        }
    }
    let mut i = 0;
    net.visit_params_mut(&mut |p| {
        p.value = tensors[i].clone();
        p.zero_grad();
        i += 1;
    });
    Ok(())
}

impl Checkpoint {
    /// Captures the current parameters of `net` (weights only; attach
    /// training state with [`Checkpoint::with_train_state`]).
    pub fn capture(net: &mut dyn Network) -> Self {
        let mut params = Vec::new();
        net.visit_params_mut(&mut |p| params.push(p.value.clone()));
        let checksum = param_checksum(&params);
        Self {
            version: CHECKPOINT_VERSION,
            architecture: net.describe(),
            params,
            checksum,
            train_state: None,
            vgg_config: None,
        }
    }

    /// Attaches resumable training state.
    pub fn with_train_state(mut self, state: TrainState) -> Self {
        self.train_state = Some(state);
        self
    }

    /// Attaches the generating VGG configuration, making the checkpoint
    /// self-describing for model-file conversion.
    pub fn with_vgg_config(mut self, config: VggConfig) -> Self {
        self.vgg_config = Some(config);
        self
    }

    /// Restores the captured parameters into `net`.
    ///
    /// # Errors
    ///
    /// Returns [`LoadCheckpointError`] if the parameter count or any
    /// shape differs; the network is left unchanged in that case.
    pub fn restore(&self, net: &mut dyn Network) -> Result<(), LoadCheckpointError> {
        restore_tensors(net, &self.params)
    }

    /// Saves as JSON, atomically: the content is written to a temporary
    /// sibling file and renamed over `path`, so a crash mid-write never
    /// leaves a truncated checkpoint behind.
    ///
    /// The version and checksum fields are recomputed at save time, so a
    /// checkpoint whose `params` were modified after capture still
    /// round-trips.
    ///
    /// # Errors
    ///
    /// [`SaveCheckpointError::NonFiniteParam`] if any parameter holds
    /// NaN/Inf (JSON cannot represent them), or
    /// [`SaveCheckpointError::Io`] if writing fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SaveCheckpointError> {
        if let Some(index) = first_non_finite(&self.params) {
            return Err(SaveCheckpointError::NonFiniteParam { index });
        }
        let normalized = Self {
            version: CHECKPOINT_VERSION,
            checksum: param_checksum(&self.params),
            ..self.clone()
        };
        let json =
            serde_json::to_string(&normalized).expect("checkpoint serialization cannot fail");
        atomic_write(path.as_ref(), &json).map_err(|e| SaveCheckpointError::Io(e.to_string()))
    }

    /// Loads from a JSON file written by [`Checkpoint::save`], verifying
    /// the format version, the parameter checksum and finiteness.
    ///
    /// # Errors
    ///
    /// Every failure mode is a typed [`LoadCheckpointError`]; this never
    /// panics on bad input.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, LoadCheckpointError> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| LoadCheckpointError::Io(e.to_string()))?;
        let ckpt: Self = serde_json::from_str(&json)
            .map_err(|e| LoadCheckpointError::Malformed(e.to_string()))?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(LoadCheckpointError::VersionMismatch {
                found: ckpt.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let computed = param_checksum(&ckpt.params);
        if computed != ckpt.checksum {
            return Err(LoadCheckpointError::ChecksumMismatch {
                stored: ckpt.checksum,
                computed,
            });
        }
        if let Some(index) = first_non_finite(&ckpt.params) {
            return Err(LoadCheckpointError::NonFiniteParam { index });
        }
        Ok(ckpt)
    }
}

/// Writes `contents` to a process-unique temporary sibling of `path`,
/// then renames it into place.
fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint");
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_models::{ResNet, ResNetConfig, Vgg, VggConfig};
    use antidote_nn::Mode;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("antidote_ckpt_{}_{name}.json", std::process::id()))
    }

    #[test]
    fn capture_restore_round_trip() {
        let mut rng = SmallRng::seed_from_u64(81);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let x = antidote_tensor::Tensor::from_fn([1, 3, 8, 8], |i| (i as f32 * 0.01).sin());
        let before = net.forward(&x, Mode::Eval);
        let ckpt = Checkpoint::capture(net.as_mut_network());

        // Perturb, then restore.
        net.visit_params_mut(&mut |p| {
            for v in p.value.data_mut() {
                *v += 0.5;
            }
        });
        assert!(!net.forward(&x, Mode::Eval).allclose(&before, 1e-6));
        ckpt.restore(net.as_mut_network()).unwrap();
        assert!(net.forward(&x, Mode::Eval).allclose(&before, 1e-6));
    }

    #[test]
    fn capture_shares_until_the_optimizer_writes() {
        use antidote_nn::loss::softmax_cross_entropy;
        use antidote_nn::optim::Sgd;
        let mut rng = SmallRng::seed_from_u64(91);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let ckpt = Checkpoint::capture(net.as_mut_network());
        let captured: Vec<Vec<u32>> = ckpt
            .params
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        let mut i = 0;
        net.visit_params_mut(&mut |p| {
            assert!(
                p.value.shares_storage(&ckpt.params[i]),
                "capture must not copy"
            );
            i += 1;
        });

        // One training step writes every parameter exactly once.
        let x = antidote_tensor::Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.03).sin());
        let logits = net.forward(&x, Mode::Train);
        net.zero_grad();
        net.backward(&softmax_cross_entropy(&logits, &[0, 1]).grad);
        let mut sgd = Sgd::new(0.1);
        sgd.begin_step();
        net.visit_params_mut(&mut |p| sgd.update(p));

        let mut i = 0;
        net.visit_params_mut(&mut |p| {
            let held = &ckpt.params[i];
            assert!(
                !p.value.shares_storage(held),
                "parameter {i} was written through"
            );
            let bits: Vec<u32> = held.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, captured[i], "the step reached checkpoint tensor {i}");
            assert_ne!(p.value.data(), held.data(), "parameter {i} did not train");
            i += 1;
        });
        // The pre-step values are still restorable.
        ckpt.restore(net.as_mut_network()).unwrap();
        assert_eq!(
            Checkpoint::capture(net.as_mut_network()).checksum,
            ckpt.checksum
        );
    }

    // Helper so tests can pass &mut Vgg as &mut dyn Network ergonomically.
    trait AsMutNetwork {
        fn as_mut_network(&mut self) -> &mut dyn Network;
    }
    impl<T: Network> AsMutNetwork for T {
        fn as_mut_network(&mut self) -> &mut dyn Network {
            self
        }
    }

    #[test]
    fn restore_rejects_wrong_architecture() {
        let mut rng = SmallRng::seed_from_u64(82);
        let mut vgg = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let ckpt = Checkpoint::capture(vgg.as_mut_network());
        let mut other = ResNet::new(&mut rng, ResNetConfig::resnet_small(8, 2, 4));
        let err = ckpt.restore(other.as_mut_network()).unwrap_err();
        assert!(matches!(
            err,
            LoadCheckpointError::ParamCountMismatch { .. }
                | LoadCheckpointError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn failed_restore_leaves_network_unchanged() {
        let mut rng = SmallRng::seed_from_u64(83);
        let mut a = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let mut b = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3)); // 3 classes
        let x = antidote_tensor::Tensor::zeros([1, 3, 8, 8]);
        let before = b.forward(&x, Mode::Eval);
        let ckpt = Checkpoint::capture(a.as_mut_network());
        assert!(ckpt.restore(b.as_mut_network()).is_err());
        assert!(b.forward(&x, Mode::Eval).allclose(&before, 0.0));
    }

    #[test]
    fn save_load_round_trip() {
        let mut rng = SmallRng::seed_from_u64(84);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let ckpt = Checkpoint::capture(net.as_mut_network());
        let path = temp_path("round_trip");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        assert_eq!(loaded.version, CHECKPOINT_VERSION);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn vgg_config_round_trips_and_defaults_to_none() {
        let mut rng = SmallRng::seed_from_u64(90);
        let cfg = VggConfig::vgg_tiny(8, 2);
        let mut net = Vgg::new(&mut rng, cfg.clone());
        let ckpt = Checkpoint::capture(net.as_mut_network()).with_vgg_config(cfg.clone());
        let path = temp_path("vgg_config");
        ckpt.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().vgg_config, Some(cfg));
        // Files written without the field (all pre-existing v2
        // checkpoints) must still load, decoding as `None`.
        let bare = Checkpoint::capture(net.as_mut_network());
        bare.save(&path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let legacy = json.replace(",\"vgg_config\":null", "");
        assert_ne!(json, legacy, "test must actually strip the field");
        std::fs::write(&path, legacy).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().vgg_config, None);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_truncated_file() {
        let mut rng = SmallRng::seed_from_u64(85);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let ckpt = Checkpoint::capture(net.as_mut_network());
        let path = temp_path("truncated");
        ckpt.save(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            LoadCheckpointError::Malformed(_)
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_missing_file_and_garbage() {
        assert!(matches!(
            Checkpoint::load(temp_path("never_written")).unwrap_err(),
            LoadCheckpointError::Io(_)
        ));
        let path = temp_path("garbage");
        std::fs::write(&path, "not json at all {{{").unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            LoadCheckpointError::Malformed(_)
        ));
        // Valid JSON, wrong shape.
        std::fs::write(&path, "{\"foo\": 1}").unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            LoadCheckpointError::Malformed(_)
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_corrupted_params_via_checksum() {
        let mut rng = SmallRng::seed_from_u64(86);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let ckpt = Checkpoint::capture(net.as_mut_network());
        let path = temp_path("bitflip");
        ckpt.save(&path).unwrap();
        // Corrupt one stored value in a way that still parses as JSON.
        let json = std::fs::read_to_string(&path).unwrap();
        let needle = ckpt.params[0].data()[0];
        let corrupted = json.replacen(&format!("{needle}"), &format!("{}", needle + 1.0), 1);
        assert_ne!(json, corrupted, "corruption should change the file");
        std::fs::write(&path, corrupted).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            LoadCheckpointError::ChecksumMismatch { .. }
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_version_mismatch() {
        let mut rng = SmallRng::seed_from_u64(87);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let ckpt = Checkpoint::capture(net.as_mut_network());
        let path = temp_path("version");
        ckpt.save(&path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            json.replacen(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":99",
                1,
            ),
        )
        .unwrap();
        assert_eq!(
            Checkpoint::load(&path).unwrap_err(),
            LoadCheckpointError::VersionMismatch {
                found: 99,
                expected: CHECKPOINT_VERSION
            }
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_rejects_non_finite_params() {
        let mut rng = SmallRng::seed_from_u64(88);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let mut ckpt = Checkpoint::capture(net.as_mut_network());
        ckpt.params[1].data_mut()[0] = f32::NAN;
        let path = temp_path("nonfinite");
        assert_eq!(
            ckpt.save(&path).unwrap_err(),
            SaveCheckpointError::NonFiniteParam { index: 1 }
        );
        assert!(!path.exists(), "no file may be left behind");
    }

    #[test]
    fn save_is_atomic_no_temp_left_behind() {
        let mut rng = SmallRng::seed_from_u64(89);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
        let ckpt = Checkpoint::capture(net.as_mut_network());
        let path = temp_path("atomic");
        ckpt.save(&path).unwrap();
        // Overwrite in place: still loadable, and no stray temp files.
        ckpt.save(&path).unwrap();
        Checkpoint::load(&path).unwrap();
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_str().unwrap().to_string();
        let strays: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&stem) && n.contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "leftover temp files: {strays:?}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn checksum_is_shape_and_value_sensitive() {
        use antidote_tensor::Tensor;
        let a = vec![Tensor::from_fn([2, 3], |i| i as f32)];
        let b = vec![Tensor::from_fn([3, 2], |i| i as f32)];
        assert_ne!(param_checksum(&a), param_checksum(&b));
        let mut c = a.clone();
        c[0].data_mut()[0] += 1.0;
        assert_ne!(param_checksum(&a), param_checksum(&c));
        assert_eq!(param_checksum(&a), param_checksum(&a.clone()));
    }

    #[test]
    fn error_display() {
        let e = LoadCheckpointError::ParamCountMismatch {
            checkpoint: 2,
            network: 3,
        };
        assert!(e.to_string().contains("2"));
        let e = LoadCheckpointError::ShapeMismatch { index: 5 };
        assert!(e.to_string().contains("5"));
        let e = LoadCheckpointError::VersionMismatch {
            found: 0,
            expected: CHECKPOINT_VERSION,
        };
        assert!(e.to_string().contains("version 0"));
        let e = SaveCheckpointError::NonFiniteParam { index: 4 };
        assert!(e.to_string().contains("4"));
    }
}
