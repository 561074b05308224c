//! The multi-model registry: named model+schedule+dtype variants, each
//! backed by its own [`ServeEngine`], routed per request by name.
//!
//! Every registered variant is an independent serving stack — its own
//! SLO queue, worker replicas, budget mapper, and metrics — so an
//! overloaded variant degrades and sheds without touching its
//! neighbours, and an fp32 model and its int8 twin (two `.adm` files)
//! can run side by side behind one listener. The first registered entry is the
//! default route for requests that omit `model`.

use antidote_modelfile::{ModelArtifact, ModelDtype};
use antidote_serve::{
    ModelFactory, QuantMode, ServeConfig, ServeConfigError, ServeEngine, ServeHandle,
    ServeMetrics,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where a registered variant's replicas come from. Surfaces in the
/// `model_not_found` 404 body and the `http.model_registered` event so
/// operators can tell a baked-in model from one cold-started off disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ModelSource {
    /// Replicas built in process by application code.
    #[default]
    Built,
    /// Replicas cold-started from a single-file `.adm` artifact: clones
    /// of its prototype, so `weight_bytes` is what all of them together
    /// keep resident.
    File {
        /// The artifact's path.
        path: PathBuf,
        /// `ModelArtifact::weight_bytes` of the loaded artifact.
        weight_bytes: u64,
    },
}

impl std::fmt::Display for ModelSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelSource::Built => f.write_str("built"),
            ModelSource::File { path, .. } => write!(f, "file:{}", path.display()),
        }
    }
}

/// One variant to register: a unique name, the engine configuration it
/// serves under (schedule, workers, queue, quant mode), the replica
/// factory, and where the replicas come from.
pub struct ModelSpec {
    /// Unique registry name, e.g. `vgg-tiny-fp32`.
    pub name: String,
    /// Engine configuration for this variant.
    pub config: ServeConfig,
    /// Replica factory (must build identical replicas; see
    /// [`ModelFactory`]).
    pub factory: ModelFactory,
    /// Replica provenance ([`ModelSource::Built`] for in-process
    /// factories, [`ModelSource::File`] for `.adm` artifacts).
    pub source: ModelSource,
}

impl std::fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSpec")
            .field("name", &self.name)
            .field("quant", &self.config.quant)
            .field("source", &self.source)
            .finish()
    }
}

/// A running registered variant.
pub struct ModelEntry {
    name: String,
    quant: QuantMode,
    source: ModelSource,
    handle: ServeHandle,
    engine: ServeEngine,
}

impl ModelEntry {
    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Numeric domain of this variant's replicas.
    pub fn quant(&self) -> QuantMode {
        self.quant
    }

    /// Where this variant's replicas come from.
    pub fn source(&self) -> &ModelSource {
        &self.source
    }

    /// The variant's dtype as clients see it (`fp32` / `int8`).
    pub fn dtype_label(&self) -> &'static str {
        match self.quant {
            QuantMode::Off => "fp32",
            QuantMode::Int8 => "int8",
        }
    }

    /// One-line description for error bodies and listings:
    /// `name (dtype, source)`.
    pub fn describe(&self) -> String {
        format!("{} ({}, {})", self.name, self.dtype_label(), self.source)
    }

    /// Cloneable client handle into this variant's engine.
    pub fn handle(&self) -> &ServeHandle {
        &self.handle
    }

    /// Point-in-time metrics for this variant.
    pub fn metrics(&self) -> ServeMetrics {
        self.engine.metrics()
    }
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("name", &self.name)
            .field("quant", &self.quant)
            .field("source", &self.source)
            .finish()
    }
}

/// Why a registry could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No specs were given — a server with nothing to serve.
    Empty,
    /// Two specs share a name; routes must be unambiguous.
    DuplicateName(String),
    /// A variant's engine configuration was rejected.
    Engine {
        /// Name of the offending spec.
        model: String,
        /// The underlying configuration error.
        error: ServeConfigError,
    },
    /// A model directory or `.adm` artifact could not be loaded.
    Artifact {
        /// Path of the offending directory or file.
        path: String,
        /// The rendered [`antidote_modelfile::ModelFileError`] (or I/O
        /// error for an unreadable directory).
        error: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Empty => write!(f, "registry needs at least one model"),
            RegistryError::DuplicateName(name) => {
                write!(f, "duplicate model name `{name}` in registry")
            }
            RegistryError::Engine { model, error } => {
                write!(f, "model `{model}`: {error}")
            }
            RegistryError::Artifact { path, error } => {
                write!(f, "model artifact `{path}`: {error}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// The registry: started variants, routable by name.
///
/// Lookup is a linear scan — registries hold a handful of variants, and
/// a scan over a short `Vec` beats a map's hashing for that size while
/// keeping registration order (the first entry is the default route).
#[derive(Debug)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

impl ModelRegistry {
    /// Starts one engine per spec.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] on an empty spec list, duplicate names, or an
    /// engine that refuses its configuration — in which case every
    /// already-started engine is shut down before returning.
    pub fn start(specs: Vec<ModelSpec>) -> Result<Self, RegistryError> {
        if specs.is_empty() {
            return Err(RegistryError::Empty);
        }
        let mut entries: Vec<ModelEntry> = Vec::with_capacity(specs.len());
        for mut spec in specs {
            if entries.iter().any(|e| e.name == spec.name) {
                return Err(RegistryError::DuplicateName(spec.name));
            }
            // Stamp the registry name into the engine so flight-recorder
            // trace records carry the model route they resolved to.
            if spec.config.label.is_empty() {
                spec.config.label = spec.name.clone();
            }
            let (quant, replicas) = (spec.config.quant, spec.config.workers as u64);
            let engine = match ServeEngine::start(spec.config, spec.factory) {
                Ok(engine) => engine,
                Err(error) => {
                    // Entries drop here; ServeEngine::drop drains them.
                    return Err(RegistryError::Engine {
                        model: spec.name,
                        error,
                    });
                }
            };
            if antidote_obs::enabled() {
                let quant_label = quant.to_string();
                let source_label = spec.source.to_string();
                let mut fields = vec![
                    ("model", antidote_obs::Value::Str(&spec.name)),
                    ("quant", antidote_obs::Value::Str(&quant_label)),
                    ("source", antidote_obs::Value::Str(&source_label)),
                    ("replicas", antidote_obs::Value::U64(replicas)),
                ];
                // Unknown for built-in factories, which may copy per replica.
                if let ModelSource::File { weight_bytes, .. } = spec.source {
                    fields.push((
                        "weight_bytes_resident",
                        antidote_obs::Value::U64(weight_bytes),
                    ));
                }
                antidote_obs::event(antidote_obs::Level::Info, "http.model_registered", &fields);
            }
            entries.push(ModelEntry {
                name: spec.name,
                quant,
                source: spec.source,
                handle: engine.handle(),
                engine,
            });
        }
        Ok(Self { entries })
    }

    /// Routes a request: the named variant, or the default (first
    /// registered) when `name` is `None`. `None` result means unknown
    /// model — the server answers with a typed `404`.
    pub fn route(&self, name: Option<&str>) -> Option<&ModelEntry> {
        match name {
            None => self.entries.first(),
            Some(n) => self.entries.iter().find(|e| e.name == n),
        }
    }

    /// The default (first registered) variant.
    pub fn default_model(&self) -> &ModelEntry {
        &self.entries[0]
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Registered variants as `name (dtype, source)` lines, in
    /// registration order — what the `model_not_found` 404 body lists
    /// so a client picking the wrong route learns both the numeric
    /// domain and the provenance of every alternative.
    pub fn names_detailed(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.describe()).collect()
    }

    /// Builds one spec per `.adm` artifact in `dir`, sorted by file
    /// name for a stable registration order. The registry name is the
    /// file stem (`models/vgg-int8.adm` registers as `vgg-int8`); the
    /// engine config is [`ServeConfig::default`] with `quant` set to
    /// the artifact's dtype so metrics and traces report the true
    /// numeric domain; callers tune `spec.config` before
    /// [`ModelRegistry::start`]. Each artifact is fully validated
    /// (checksums and all) at this point — a corrupt file refuses to
    /// register instead of serving garbled weights.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Artifact`] for an unreadable directory or any
    /// artifact that fails to load.
    pub fn specs_from_dir(dir: impl AsRef<Path>) -> Result<Vec<ModelSpec>, RegistryError> {
        let dir = dir.as_ref();
        let listing = std::fs::read_dir(dir).map_err(|e| RegistryError::Artifact {
            path: dir.display().to_string(),
            error: e.to_string(),
        })?;
        let mut paths: Vec<PathBuf> = listing
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "adm"))
            .collect();
        paths.sort();

        let mut specs = Vec::with_capacity(paths.len());
        for path in paths {
            let artifact = ModelArtifact::load(&path).map_err(|e| RegistryError::Artifact {
                path: path.display().to_string(),
                error: e.to_string(),
            })?;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("model")
                .to_string();
            let quant = match artifact.dtype() {
                ModelDtype::F32 => QuantMode::Off,
                ModelDtype::Int8 => QuantMode::Int8,
            };
            let config = ServeConfig { quant, ..ServeConfig::default() };
            let weight_bytes = artifact.weight_bytes();
            let factory: ModelFactory = Arc::new(move |_worker| artifact.build_network());
            specs.push(ModelSpec {
                name,
                config,
                factory,
                source: ModelSource::File { path, weight_bytes },
            });
        }
        Ok(specs)
    }

    /// All entries, registration order.
    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// Per-variant metrics snapshots, registration order.
    pub fn metrics(&self) -> Vec<(String, ServeMetrics)> {
        self.entries
            .iter()
            .map(|e| (e.name.clone(), e.metrics()))
            .collect()
    }

    /// Graceful drain: shuts down every engine (stop admission, flush
    /// in-flight work, join workers) and returns the final per-variant
    /// metrics.
    pub fn drain(self) -> Vec<(String, ServeMetrics)> {
        self.entries
            .into_iter()
            .map(|e| (e.name, e.engine.shutdown()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_models::{Vgg, VggConfig};
    use antidote_serve::InferRequest;
    use antidote_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn tiny_factory(seed: u64) -> ModelFactory {
        Arc::new(move |_worker| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3)))
        })
    }

    fn spec(name: &str, seed: u64) -> ModelSpec {
        ModelSpec {
            name: name.to_string(),
            config: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            factory: tiny_factory(seed),
            source: ModelSource::Built,
        }
    }

    #[test]
    fn empty_and_duplicate_specs_are_rejected() {
        assert_eq!(ModelRegistry::start(vec![]).unwrap_err(), RegistryError::Empty);
        let err = ModelRegistry::start(vec![spec("a", 1), spec("a", 2)]).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName("a".to_string()));
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn bad_engine_config_is_typed_with_the_model_name() {
        let bad = ModelSpec {
            name: "zero-workers".to_string(),
            config: ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            factory: tiny_factory(1),
            source: ModelSource::Built,
        };
        match ModelRegistry::start(vec![bad]) {
            Err(RegistryError::Engine { model, .. }) => assert_eq!(model, "zero-workers"),
            other => panic!("expected Engine error, got {other:?}"),
        }
    }

    #[test]
    fn routes_by_name_with_first_as_default() {
        let registry =
            ModelRegistry::start(vec![spec("first", 1), spec("second", 2)]).unwrap();
        assert_eq!(registry.route(None).unwrap().name(), "first");
        assert_eq!(registry.route(Some("second")).unwrap().name(), "second");
        assert!(registry.route(Some("third")).is_none());
        assert_eq!(registry.names(), vec!["first", "second"]);
        assert_eq!(registry.default_model().name(), "first");

        // Requests routed to different entries land on different engines.
        let r = registry
            .route(Some("second"))
            .unwrap()
            .handle()
            .submit(InferRequest::new(Tensor::zeros([3, 8, 8])))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.batch_size, 1);
        let m = registry.metrics();
        assert_eq!(m[0].1.completed, 0, "default engine saw no traffic");
        assert_eq!(m[1].1.completed, 1);
        let drained = registry.drain();
        assert_eq!(drained[1].1.completed, 1);
    }

    #[test]
    fn detailed_names_carry_dtype_and_source() {
        let registry = ModelRegistry::start(vec![spec("tiny", 1)]).unwrap();
        assert_eq!(registry.names_detailed(), vec!["tiny (fp32, built)"]);
        assert_eq!(registry.entries()[0].source(), &ModelSource::Built);
        registry.drain();
    }

    #[test]
    fn specs_from_dir_cold_starts_adm_artifacts() {
        use antidote_core::checkpoint::Checkpoint;
        use antidote_modelfile::ModelArtifact;

        let dir = std::env::temp_dir().join(format!("adm_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = VggConfig::vgg_tiny(8, 3);
        let mut net = Vgg::new(&mut SmallRng::seed_from_u64(3), config.clone());
        let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
        ModelArtifact::from_checkpoint(&ckpt, None)
            .unwrap()
            .save(dir.join("tiny-fp32.adm"))
            .unwrap();
        // Non-.adm files in the directory are ignored.
        std::fs::write(dir.join("README.txt"), "not a model").unwrap();

        let specs = ModelRegistry::specs_from_dir(&dir).unwrap();
        assert_eq!(specs.len(), 1);
        let registry = ModelRegistry::start(specs).unwrap();
        assert_eq!(registry.names(), vec!["tiny-fp32"]);
        let detailed = &registry.names_detailed()[0];
        assert!(
            detailed.starts_with("tiny-fp32 (fp32, file:"),
            "{detailed}"
        );

        // The cold-started model actually serves.
        let r = registry
            .default_model()
            .handle()
            .submit(InferRequest::new(Tensor::zeros([3, 8, 8])))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.batch_size, 1);
        registry.drain();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_artifact_refuses_to_register() {
        let dir = std::env::temp_dir().join(format!("adm_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.adm"), b"JSON not a model").unwrap();
        match ModelRegistry::specs_from_dir(&dir) {
            Err(RegistryError::Artifact { path, .. }) => assert!(path.ends_with("bad.adm")),
            other => panic!("expected Artifact error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
