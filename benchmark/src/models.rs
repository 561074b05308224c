//! Set-up shared by the serving workloads: `.adm` artifacts, pinned
//! engine configurations, and the seeded input pool.
//!
//! Models reach servers only through `.adm` files and
//! `ModelRegistry::specs_from_dir`; int8 networks come only from
//! `ModelArtifact::quantize(..).build_network()`.

use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::CalibrationMethod;
use antidote_core::PruneSchedule;
use antidote_http::ModelRegistry;
use antidote_modelfile::ModelArtifact;
use antidote_models::{Vgg, VggConfig};
use antidote_serve::ServeConfig;
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Images in the pre-rendered input pool.
pub const POOL: usize = 64;
/// Weights are pinned: `--seed` drives inputs, tiers and arrivals only.
const WEIGHT_SEED: u64 = 0x0A17_1D07;
const CALIBRATION_SEED: u64 = 7;
pub const IMAGE: usize = 32;

/// Budget tier of a request: dense, or a fraction of the floor→dense
/// MAC range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    Dense,
    Loose,
    Medium,
    Floor,
    /// The full base schedule: a budget of exactly `floor_macs()`.
    Table1,
}

impl Tier {
    /// The four tiers of the mixed workloads.
    pub const MIXED: [Tier; 4] = [Tier::Dense, Tier::Loose, Tier::Medium, Tier::Floor];

    pub fn budget_frac(self) -> Option<f64> {
        match self {
            Tier::Dense => None,
            Tier::Loose => Some(0.9),
            Tier::Medium => Some(0.5),
            Tier::Floor => Some(0.05),
            Tier::Table1 => Some(0.0),
        }
    }

    /// Absolute budget on a model with this floor and dense cost, the
    /// mapping the HTTP API applies to `budget_frac`.
    pub fn budget_macs(self, floor: f64, dense: f64) -> Option<f64> {
        self.budget_frac().map(|f| floor + f * (dense - floor))
    }
}

/// The Table I channel schedule for VGG on CIFAR10 (Sec. V-B).
pub fn table1_schedule() -> PruneSchedule {
    PruneSchedule::channel_only(vec![0.2, 0.2, 0.6, 0.9, 0.9])
}

/// A per-process scratch directory under the benchmark's `out/`,
/// removed on drop so repeated runs do not pile up model files.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_root: &Path) -> std::io::Result<Self> {
        let dir = out_root.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A fresh, empty sub-directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

impl Scratch {
    /// Flushes every file under `dir` to disk, so the kernel's write-back
    /// of freshly written model files does not run during measurement.
    pub fn flush(dir: &Path) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            if let Ok(file) = std::fs::File::open(entry.path()) {
                let _ = file.sync_all();
            }
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a freshly initialised fp32 VGG with pinned weights and wraps
/// it as an artifact.
pub fn fp32_artifact(config: VggConfig) -> ModelArtifact {
    let mut net = Vgg::new(&mut SmallRng::seed_from_u64(WEIGHT_SEED), config.clone());
    let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
    ModelArtifact::from_checkpoint(&ckpt, None).expect("a fresh Vgg fits its own config")
}

/// The int8 twin of an fp32 artifact.
pub fn int8_twin(fp32: &ModelArtifact) -> ModelArtifact {
    fp32.quantize(CalibrationMethod::MinMax, 8, 2, CALIBRATION_SEED)
        .expect("fp32 3-channel artifact quantizes")
}

/// Cold-starts every `.adm` in `dir` (file-name order) with the pinned
/// configuration `configure` returns for it.
pub fn start_registry(
    dir: &Path,
    configure: impl Fn(&ServeConfig) -> ServeConfig,
) -> ModelRegistry {
    let mut specs = ModelRegistry::specs_from_dir(dir).expect("artifacts just written load");
    for spec in &mut specs {
        // specs_from_dir fills the config from the environment, which
        // main() proved empty of ANTIDOTE_*; only its dtype is kept.
        let pinned = ServeConfig {
            quant: spec.config.quant,
            ..ServeConfig::default()
        };
        spec.config = configure(&pinned);
    }
    ModelRegistry::start(specs).expect("pinned configurations are valid")
}

/// The seeded input pool: tensors for in-process submission and the
/// same values rendered as JSON arrays for request bodies.
#[derive(Debug)]
pub struct Pool {
    pub tensors: Vec<Tensor>,
    pub json: Vec<String>,
}

pub fn input_pool(seed: u64) -> Pool {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1F_00D5);
    let mut tensors = Vec::with_capacity(POOL);
    let mut json = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let values: Vec<f32> = (0..3 * IMAGE * IMAGE)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect();
        let rendered: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        json.push(format!("[{}]", rendered.join(",")));
        tensors.push(Tensor::from_vec(values, &[3, IMAGE, IMAGE]).expect("pool image shape"));
    }
    Pool { tensors, json }
}
