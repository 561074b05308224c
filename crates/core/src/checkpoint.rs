//! Network-state checkpointing: save and restore a network's state —
//! its trainable parameters plus its batch-norm running statistics —
//! (and, optionally, full training state) as JSON.
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
//! - **state checksum** — an FNV-1a digest over every shape and value
//!   bit-pattern of the parameters, then of the buffers, verified at
//!   load, catches silent corruption that still parses as JSON;
//! - **finiteness validation** — non-finite tensors are rejected at save
//!   time (JSON cannot represent them; they round-trip as `null`) and
//!   again at load time.
//!
//! [`Checkpoint::capture`] / [`Checkpoint::restore`] are the only code
//! that copies a network's state out and in (resume, rollback, `.adm`
//! conversion, the Table I reset). A file written before buffers were
//! stored loads with none; restoring it into a network with batch norm
//! is a typed [`LoadCheckpointError::CountMismatch`].
//!
//! Every failure path returns a typed error; loading never panics on bad
//! input.

use crate::recovery::TrainState;
use antidote_models::{Network, VggConfig};
use antidote_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Buffer tensors (batch-norm running statistics) in visit order;
    /// empty for networks without batch norm and in files written
    /// before the field existed.
    #[serde(default)]
    pub buffers: Vec<Tensor>,
    /// FNV-1a digest over the parameters' shapes and value bit-patterns,
    /// continued over the buffers'.
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

/// Which half of a network's state a tensor belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatePart {
    /// A trainable parameter (`Network::visit_params_mut` order).
    Param,
    /// A buffer, a batch-norm running statistic
    /// (`Network::visit_buffers_mut` order).
    Buffer,
}

impl fmt::Display for StatePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StatePart::Param => "parameter",
            StatePart::Buffer => "buffer",
        })
    }
}

/// Error raised when loading a checkpoint, or restoring one into an
/// incompatible network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadCheckpointError {
    /// The parameter or buffer count differs from the target network
    /// (for example a checkpoint written before buffers were stored,
    /// restored into a network with batch norm).
    CountMismatch {
        /// Parameters or buffers.
        part: StatePart,
        /// Tensors in the checkpoint.
        checkpoint: usize,
        /// Tensors in the network.
        network: usize,
    },
    /// A parameter's or buffer's shape differs.
    ShapeMismatch {
        /// Parameters or buffers.
        part: StatePart,
        /// Index of the offending tensor (visit order).
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
    /// The stored checksum does not match the stored tensors.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the file's tensors.
        computed: u64,
    },
    /// A stored parameter or buffer contains NaN or infinite values.
    NonFinite {
        /// Parameters or buffers.
        part: StatePart,
        /// Index of the offending tensor (visit order).
        index: usize,
    },
}

impl fmt::Display for LoadCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadCheckpointError::CountMismatch {
                part,
                checkpoint,
                network,
            } => write!(
                f,
                "checkpoint has {checkpoint} {part}s but network has {network}"
            ),
            LoadCheckpointError::ShapeMismatch { part, index } => {
                write!(f, "{part} {index} has a different shape")
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
            LoadCheckpointError::NonFinite { part, index } => {
                write!(f, "{part} {index} contains non-finite values")
            }
        }
    }
}

impl Error for LoadCheckpointError {}

/// Error raised when saving a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveCheckpointError {
    /// A parameter or buffer contains NaN or infinite values (JSON would
    /// silently store them as `null`, so they are rejected up front).
    NonFinite {
        /// Parameters or buffers.
        part: StatePart,
        /// Index of the offending tensor (visit order).
        index: usize,
    },
    /// Writing the file failed.
    Io(String),
}

impl fmt::Display for SaveCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveCheckpointError::NonFinite { part, index } => {
                write!(f, "refusing to save: {part} {index} is non-finite")
            }
            SaveCheckpointError::Io(msg) => write!(f, "cannot write checkpoint: {msg}"),
        }
    }
}

impl Error for SaveCheckpointError {}

/// FNV-1a 64 offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice — the one implementation behind the
/// checkpoint state checksum and the `.adm` per-tensor checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 digest `h` over `bytes`, so input can be
/// hashed in pieces.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest over every tensor's shape and value bit-patterns,
/// parameters first, then buffers — so a state without buffers has the
/// digest its parameters alone always had.
fn state_checksum(params: &[Tensor], buffers: &[Tensor]) -> u64 {
    params.iter().chain(buffers).fold(FNV_OFFSET, |mut h, t| {
        for &d in t.dims() {
            h = fnv1a_extend(h, &(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            h = fnv1a_extend(h, &v.to_bits().to_le_bytes());
        }
        h
    })
}

impl Checkpoint {
    /// Captures the current state of `net` — parameters and buffers,
    /// as handles on its storage, not copies (attach training state
    /// with [`Checkpoint::with_train_state`]).
    pub fn capture(net: &mut dyn Network) -> Self {
        let (mut params, mut buffers) = (Vec::new(), Vec::new());
        net.visit_params_mut(&mut |p| params.push(p.value.clone()));
        net.visit_buffers_mut(&mut |b| buffers.push(b.clone()));
        let checksum = state_checksum(&params, &buffers);
        Self {
            version: CHECKPOINT_VERSION,
            architecture: net.describe(),
            params,
            buffers,
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

    /// The stored parameters and buffers, each with its tag.
    fn parts(&self) -> [(StatePart, &[Tensor]); 2] {
        [(StatePart::Param, &self.params), (StatePart::Buffer, &self.buffers)]
    }

    /// The first stored tensor holding NaN or Inf, if any.
    fn first_non_finite(&self) -> Option<(StatePart, usize)> {
        self.parts().into_iter().find_map(|(part, stored)| {
            let finite = |t: &Tensor| t.data().iter().all(|v| v.is_finite());
            Some((part, stored.iter().position(|t| !finite(t))?))
        })
    }

    /// Restores the captured parameters and buffers into `net` and
    /// clears its gradients. Both lists are validated before anything is
    /// written, so a failed restore leaves the network unchanged.
    ///
    /// # Errors
    ///
    /// [`LoadCheckpointError::CountMismatch`] or
    /// [`LoadCheckpointError::ShapeMismatch`].
    pub fn restore(&self, net: &mut dyn Network) -> Result<(), LoadCheckpointError> {
        let (mut params, mut buffers) = (Vec::new(), Vec::new());
        net.visit_params_mut(&mut |p| params.push(p.value.dims().to_vec()));
        net.visit_buffers_mut(&mut |b| buffers.push(b.dims().to_vec()));
        for ((part, stored), network) in self.parts().into_iter().zip([params, buffers]) {
            if stored.len() != network.len() {
                return Err(LoadCheckpointError::CountMismatch {
                    part,
                    checkpoint: stored.len(),
                    network: network.len(),
                });
            }
            if let Some(index) = network.iter().zip(stored).position(|(n, t)| n != t.dims()) {
                return Err(LoadCheckpointError::ShapeMismatch { part, index });
            }
        }
        let (mut params, mut buffers) = (self.params.iter(), self.buffers.iter());
        net.visit_params_mut(&mut |p| {
            p.value = params.next().expect("count validated").clone();
            p.zero_grad();
        });
        net.visit_buffers_mut(&mut |b| *b = buffers.next().expect("count validated").clone());
        Ok(())
    }

    /// Saves as JSON, atomically: the content is written to a temporary
    /// sibling file and renamed over `path`, so a crash mid-write never
    /// leaves a truncated checkpoint behind.
    ///
    /// The version and checksum fields are recomputed at save time, so a
    /// checkpoint whose tensors were modified after capture still
    /// round-trips.
    ///
    /// # Errors
    ///
    /// [`SaveCheckpointError::NonFinite`] if any tensor holds NaN/Inf
    /// (JSON cannot represent them), or [`SaveCheckpointError::Io`] if
    /// writing fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SaveCheckpointError> {
        if let Some((part, index)) = self.first_non_finite() {
            return Err(SaveCheckpointError::NonFinite { part, index });
        }
        let normalized = Self {
            version: CHECKPOINT_VERSION,
            checksum: state_checksum(&self.params, &self.buffers),
            ..self.clone()
        };
        let json =
            serde_json::to_string(&normalized).expect("checkpoint serialization cannot fail");
        atomic_write(path.as_ref(), |w| w.write_all(json.as_bytes()))
            .map_err(|e| SaveCheckpointError::Io(e.to_string()))
    }

    /// Loads from a JSON file written by [`Checkpoint::save`], verifying
    /// the format version, the state checksum and finiteness.
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
        let computed = state_checksum(&ckpt.params, &ckpt.buffers);
        if computed != ckpt.checksum {
            return Err(LoadCheckpointError::ChecksumMismatch {
                stored: ckpt.checksum,
                computed,
            });
        }
        if let Some((part, index)) = ckpt.first_non_finite() {
            return Err(LoadCheckpointError::NonFinite { part, index });
        }
        Ok(ckpt)
    }
}

/// Writes a file atomically — the one routine behind every artifact
/// writer in the workspace (checkpoints, `.adm` model files, experiment
/// reports).
///
/// `write` streams the contents into a fresh temporary sibling of
/// `path`, which is then renamed over `path`, so a crash mid-write never
/// leaves a truncated file there. The temporary name carries the process
/// id and a process-wide counter and is opened with `create_new`, so two
/// writers — threads of one process included — never share one: writers
/// racing on one path each publish a whole file and the last rename
/// wins. On every error the temporary file is removed.
///
/// # Errors
///
/// Whatever `write` returns, or the I/O error of creating, flushing or
/// renaming the temporary file (converted with `E::from`).
pub fn atomic_write<E: From<std::io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .map_or_else(|| "file".into(), |n| n.to_string_lossy());
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let file = File::options().write(true).create_new(true).open(&tmp)?;
    let mut w = BufWriter::new(file);
    // Dropping a BufWriter swallows the last write's error: flush first.
    let mut written = write(&mut w).and_then(|()| w.flush().map_err(E::from));
    drop(w);
    if written.is_ok() {
        written = std::fs::rename(&tmp, path).map_err(E::from);
    }
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
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
        let x = antidote_tensor::Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.01).sin());
        let nets: [Box<dyn Network>; 3] = [
            Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2))),
            Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2).with_batchnorm())),
            // Projection shortcuts carry batch norms of their own.
            Box::new(ResNet::new(&mut rng, ResNetConfig::resnet_small(8, 2, 4))),
        ];
        for mut net in nets {
            let before = net.forward(&x, Mode::Eval);
            let ckpt = Checkpoint::capture(net.as_mut());
            let mut buffers = 0;
            net.visit_buffers_mut(&mut |_| buffers += 1);
            assert_eq!(ckpt.buffers.len(), buffers);

            // Perturb parameters and running statistics, then restore.
            let _ = net.forward(&x, Mode::Train);
            net.visit_params_mut(&mut |p| {
                for v in p.value.data_mut() {
                    *v += 0.5;
                }
            });
            assert!(!net.forward(&x, Mode::Eval).allclose(&before, 1e-6));
            ckpt.restore(net.as_mut()).unwrap();
            assert!(net.forward(&x, Mode::Eval).allclose(&before, 0.0));
        }
    }

    #[test]
    fn batchnorm_state_without_buffers_is_refused_typed() {
        let mut rng = SmallRng::seed_from_u64(92);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2).with_batchnorm());
        let x = antidote_tensor::Tensor::from_fn([2, 3, 8, 8], |i| (i as f32 * 0.02).cos());
        let _ = net.forward(&x, Mode::Train);
        let before = net.forward(&x, Mode::Eval);
        let mut ckpt = Checkpoint::capture(net.as_mut_network());
        ckpt.buffers.clear();
        assert_eq!(
            ckpt.restore(net.as_mut_network()).unwrap_err(),
            LoadCheckpointError::CountMismatch {
                part: StatePart::Buffer,
                checkpoint: 0,
                network: 4
            }
        );
        assert!(net.forward(&x, Mode::Eval).allclose(&before, 0.0));

        // A file written before buffers were stored lacks the field: it
        // decodes with none and its params-only checksum still verifies,
        // so it loads — and the restore is refused the same way.
        let path = temp_path("no_buffers");
        ckpt.save(&path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let legacy = json.replace("\"buffers\":[],", "");
        assert_ne!(json, legacy, "test must actually strip the field");
        std::fs::write(&path, legacy).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert!(loaded.buffers.is_empty());
        assert!(matches!(
            loaded.restore(net.as_mut_network()),
            Err(LoadCheckpointError::CountMismatch {
                part: StatePart::Buffer,
                ..
            })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn restore_rejects_a_buffer_of_the_wrong_shape() {
        let mut rng = SmallRng::seed_from_u64(93);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2).with_batchnorm());
        let mut ckpt = Checkpoint::capture(net.as_mut_network());
        ckpt.buffers[3] = antidote_tensor::Tensor::zeros([3]);
        assert_eq!(
            ckpt.restore(net.as_mut_network()).unwrap_err(),
            LoadCheckpointError::ShapeMismatch {
                part: StatePart::Buffer,
                index: 3
            }
        );
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
            LoadCheckpointError::CountMismatch {
                part: StatePart::Param,
                ..
            } | LoadCheckpointError::ShapeMismatch {
                part: StatePart::Param,
                ..
            }
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
            SaveCheckpointError::NonFinite {
                part: StatePart::Param,
                index: 1
            }
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
    fn concurrent_saves_to_one_path_each_publish_a_whole_file() {
        const WRITERS: u64 = 8;
        const ROUNDS: usize = 16;
        let ckpts: Vec<Checkpoint> = (0..WRITERS)
            .map(|i| {
                let mut net = Vgg::new(
                    &mut SmallRng::seed_from_u64(100 + i),
                    VggConfig::vgg_tiny(8, 2),
                );
                Checkpoint::capture(net.as_mut_network())
            })
            .collect();
        let dir =
            std::env::temp_dir().join(format!("antidote_ckpt_{}_concurrent", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.json");
        let barrier = std::sync::Barrier::new(ckpts.len());
        let results: Vec<Result<(), SaveCheckpointError>> = std::thread::scope(|s| {
            let writers: Vec<_> = ckpts
                .iter()
                .map(|ckpt| {
                    s.spawn(|| {
                        barrier.wait();
                        (0..ROUNDS).map(|_| ckpt.save(&path)).collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        for r in &results {
            assert_eq!(r, &Ok(()), "a concurrent save failed");
        }
        let loaded = Checkpoint::load(&path).unwrap();
        assert!(
            ckpts.contains(&loaded),
            "the published file is no writer's checkpoint"
        );
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            entries,
            vec!["shared.json".to_string()],
            "temp files left behind"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checksum_is_shape_and_value_sensitive() {
        use antidote_tensor::Tensor;
        let a = vec![Tensor::from_fn([2, 3], |i| i as f32)];
        let b = vec![Tensor::from_fn([3, 2], |i| i as f32)];
        assert_ne!(state_checksum(&a, &[]), state_checksum(&b, &[]));
        let mut c = a.clone();
        c[0].data_mut()[0] += 1.0;
        assert_ne!(state_checksum(&a, &[]), state_checksum(&c, &[]));
        assert_eq!(state_checksum(&a, &[]), state_checksum(&a.clone(), &[]));
        // Buffers continue the parameters' digest.
        let ab: Vec<Tensor> = a.iter().chain(&b).cloned().collect();
        assert_eq!(state_checksum(&a, &b), state_checksum(&ab, &[]));
        assert_ne!(state_checksum(&a, &b), state_checksum(&a, &[]));
    }

    #[test]
    fn save_rejects_non_finite_buffers() {
        let mut rng = SmallRng::seed_from_u64(94);
        let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2).with_batchnorm());
        let mut ckpt = Checkpoint::capture(net.as_mut_network());
        ckpt.buffers[1].data_mut()[0] = f32::INFINITY;
        let path = temp_path("nonfinite_buffer");
        assert_eq!(
            ckpt.save(&path).unwrap_err(),
            SaveCheckpointError::NonFinite {
                part: StatePart::Buffer,
                index: 1
            }
        );
        assert!(!path.exists(), "no file may be left behind");
    }

    #[test]
    fn error_display() {
        let e = LoadCheckpointError::CountMismatch {
            part: StatePart::Buffer,
            checkpoint: 2,
            network: 3,
        };
        assert_eq!(e.to_string(), "checkpoint has 2 buffers but network has 3");
        let e = LoadCheckpointError::ShapeMismatch {
            part: StatePart::Param,
            index: 5,
        };
        assert_eq!(e.to_string(), "parameter 5 has a different shape");
        let e = LoadCheckpointError::VersionMismatch {
            found: 0,
            expected: CHECKPOINT_VERSION,
        };
        assert!(e.to_string().contains("version 0"));
        let e = SaveCheckpointError::NonFinite {
            part: StatePart::Buffer,
            index: 4,
        };
        assert!(e.to_string().contains("buffer 4"));
    }
}
