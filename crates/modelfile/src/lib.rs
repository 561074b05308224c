//! Single-file dtype-tagged model artifacts (`.adm`) — DESIGN.md §16,
//! normative byte spec in `docs/FORMAT.md`.
//!
//! A trained, calibrated, quantized model is worthless if it cannot be
//! shipped: this crate defines the one immutable file a serving fleet
//! cold-starts from. The container ([`container`]) is a GGUF-inspired
//! binary layout — fixed header, metadata KV section, and dtype-tagged
//! tensor payloads (f32, or i8 with per-row scales riding next to their
//! weights) at 64-byte-aligned offsets with per-tensor FNV-1a
//! checksums, all streamed in **one sequential pass** that decodes each
//! payload straight into its tensor. The artifact
//! layer ([`artifact`]) interprets a container as a model: one
//! dtype-aware [`ModelArtifact::load`] entry point replaces the
//! fp32/int8 parallel type twins, and [`ModelArtifact::build_network`]
//! hands serving factories a ready [`antidote_models::Network`].
//!
//! The `convert` binary turns v2 checkpoints into `.adm` files, with
//! optional calibrate+quantize in one pass:
//!
//! ```text
//! convert --checkpoint trained.json --out model.adm
//! convert --checkpoint trained.json --out model-int8.adm --quantize int8 --calibrate minmax
//! ```
//!
//! Every failure mode on hostile bytes is a typed [`ModelFileError`] —
//! loading never panics and never yields silently garbled weights.
//!
//! # Examples
//!
//! ```
//! use antidote_core::checkpoint::Checkpoint;
//! use antidote_modelfile::ModelArtifact;
//! use antidote_models::{Network, Vgg, VggConfig};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let cfg = VggConfig::vgg_tiny(8, 3);
//! let mut net = Vgg::new(&mut SmallRng::seed_from_u64(7), cfg.clone());
//! let ckpt = Checkpoint::capture(&mut net).with_vgg_config(cfg);
//!
//! let path = std::env::temp_dir().join("doc_example.adm");
//! ModelArtifact::from_checkpoint(&ckpt, None).unwrap().save(&path).unwrap();
//! let loaded = ModelArtifact::load(&path).unwrap();
//! assert_eq!(loaded.dtype().to_string(), "f32");
//! let _ready: Box<dyn Network> = loaded.build_network();
//! # let _ = std::fs::remove_file(path);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod container;
mod error;

pub use artifact::{
    ModelArtifact, ModelDtype, KV_CALIBRATION, KV_CONFIG, KV_DTYPE, KV_FAMILY,
    KV_PROVENANCE_ARCH, KV_PROVENANCE_CHECKSUM, KV_QUANT_SCHEME, QUANT_SCHEME,
};
pub use container::{
    fnv1a, Container, ContainerBuilder, Dtype, KvValue, TensorEntry, ALIGNMENT, FORMAT_VERSION,
    HEADER_LEN, MAGIC, MAX_COUNT, MAX_NAME_LEN, MAX_RANK,
};
pub use error::ModelFileError;
