//! Model-level view of an `.adm` file: one dtype-aware entry point
//! ([`ModelArtifact::load`]) that builds the same [`Vgg`] type from
//! either weight domain, plus the checkpoint → artifact conversion the
//! `convert` binary wraps.

use crate::container::{Container, ContainerBuilder, KvValue};
use crate::error::ModelFileError;
use antidote_core::checkpoint::{restore_tensors, Checkpoint};
use antidote_core::quant::{quantize_vgg, CalibrationMethod};
use antidote_data::SynthConfig;
use antidote_models::{
    BnParts, Network, QuantizedConvParts, VggQuantizedParts, Vgg, VggConfig,
};
use antidote_tensor::quant::QuantizedMatrix;
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

/// Metadata key: architecture family (currently always `"vgg"`).
pub const KV_FAMILY: &str = "model.family";
/// Metadata key: weight numeric domain, [`ModelDtype`] as a string.
pub const KV_DTYPE: &str = "model.dtype";
/// Metadata key: the generating [`VggConfig`] as JSON.
pub const KV_CONFIG: &str = "model.config";
/// Metadata key: calibration method of an int8 artifact.
pub const KV_CALIBRATION: &str = "calibration.method";
/// Metadata key: quantization scheme of an int8 artifact.
pub const KV_QUANT_SCHEME: &str = "quant.scheme";
/// Metadata key: `describe()` string of the source network.
pub const KV_PROVENANCE_ARCH: &str = "provenance.architecture";
/// Metadata key: parameter checksum of the source checkpoint.
pub const KV_PROVENANCE_CHECKSUM: &str = "provenance.param_checksum";

/// The quantization scheme every int8 artifact declares: symmetric
/// per-output-row int8 weights, zero-point free (DESIGN.md §11).
pub const QUANT_SCHEME: &str = "symmetric-per-row-int8";

/// The seed used to structurally instantiate networks before restoring
/// file weights over them (the init values are all overwritten, so any
/// fixed seed works; one constant keeps it reproducible).
const STRUCTURAL_SEED: u64 = 0;

/// Numeric domain of an artifact's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelDtype {
    /// Full-precision fp32 weights.
    F32,
    /// Symmetric per-row int8 weights with calibrated activation scales.
    Int8,
}

impl std::fmt::Display for ModelDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelDtype::F32 => "f32",
            ModelDtype::Int8 => "int8",
        })
    }
}

impl std::str::FromStr for ModelDtype {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(ModelDtype::F32),
            "int8" => Ok(ModelDtype::Int8),
            other => Err(format!("unknown model dtype {other:?}")),
        }
    }
}

/// The weights an artifact carries, tagged by domain.
#[derive(Debug, Clone)]
enum ModelWeights {
    /// Parameter tensors in visit order (`param.NNNN` in the file).
    F32(Vec<Tensor>),
    /// Quantized layer parts (`conv.N.*` / `bn.N.*` / `linear.*` /
    /// `quant.act_scales` in the file).
    Int8(VggQuantizedParts),
}

/// A deployable model: configuration, dtype-tagged weights, and
/// provenance metadata, loadable from and savable to one `.adm` file.
///
/// A value of this type is always *valid*: the constructors build the
/// network once to prove the weights fit the config, so
/// [`ModelArtifact::build_network`] cannot fail afterwards and serving
/// factories may call it per replica without error handling.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    config: VggConfig,
    weights: ModelWeights,
    /// Provenance KVs carried verbatim between file generations.
    extra_kvs: Vec<(String, KvValue)>,
}

impl ModelArtifact {
    /// The artifact's weight domain.
    pub fn dtype(&self) -> ModelDtype {
        match self.weights {
            ModelWeights::F32(_) => ModelDtype::F32,
            ModelWeights::Int8(_) => ModelDtype::Int8,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &VggConfig {
        &self.config
    }

    /// Provenance metadata (beyond the structural keys the format
    /// itself owns).
    pub fn metadata(&self) -> &[(String, KvValue)] {
        &self.extra_kvs
    }

    /// Builds an fp32 artifact from a v2 checkpoint. The architecture
    /// comes from the checkpoint's embedded [`VggConfig`] (see
    /// `Checkpoint::with_vgg_config`) or the explicit `config` override,
    /// which wins when both are present.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::BadModel`] when no config is available, the
    /// config is invalid, or the checkpoint's parameters do not fit it.
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        config: Option<VggConfig>,
    ) -> Result<Self, ModelFileError> {
        let config = config
            .or_else(|| ckpt.vgg_config.clone())
            .ok_or_else(|| {
                ModelFileError::BadModel(
                    "checkpoint embeds no vgg config; pass one explicitly".to_string(),
                )
            })?;
        config.validate().map_err(ModelFileError::BadModel)?;
        let artifact = Self {
            config,
            weights: ModelWeights::F32(ckpt.params.clone()),
            extra_kvs: vec![
                (
                    KV_PROVENANCE_ARCH.to_string(),
                    KvValue::Str(ckpt.architecture.clone()),
                ),
                (
                    KV_PROVENANCE_CHECKSUM.to_string(),
                    KvValue::U64(ckpt.checksum),
                ),
            ],
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Quantizes an fp32 artifact to int8 in one pass: rebuilds the
    /// network, calibrates activation scales on synthetic held-out
    /// batches (`antidote_core::quant::calibrate`), and snapshots the
    /// result as int8 weights. Provenance KVs are carried over and the
    /// calibration method / quant scheme are recorded.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::BadModel`] when the artifact is already int8
    /// or its input is not the synthetic dataset's 3-channel shape.
    pub fn quantize(
        &self,
        method: CalibrationMethod,
        calib_batch_size: usize,
        calib_batches: usize,
        calib_seed: u64,
    ) -> Result<Self, ModelFileError> {
        let ModelWeights::F32(params) = &self.weights else {
            return Err(ModelFileError::BadModel(
                "artifact is already int8".to_string(),
            ));
        };
        if self.config.input_channels != 3 {
            return Err(ModelFileError::BadModel(format!(
                "calibration uses the 3-channel synthetic dataset; config has {} input channels",
                self.config.input_channels
            )));
        }
        let mut net = Vgg::new(
            &mut SmallRng::seed_from_u64(STRUCTURAL_SEED),
            self.config.clone(),
        );
        restore_tensors(&mut net, params).map_err(|e| ModelFileError::BadModel(e.to_string()))?;

        let samples = calib_batch_size * calib_batches;
        let per_class = samples.div_ceil(self.config.classes).max(1);
        let data = SynthConfig::tiny(self.config.classes, self.config.input_size)
            .with_samples(per_class, 1)
            .with_seed(calib_seed)
            .generate();
        let parts = quantize_vgg(&mut net, &data.train, calib_batch_size, calib_batches, method)
            .to_quantized_parts()
            .expect("a quantized network exports int8 parts");

        let method_label = match method {
            CalibrationMethod::MinMax => "minmax".to_string(),
            CalibrationMethod::Percentile(p) => format!("percentile:{p}"),
        };
        let mut extra_kvs = self.extra_kvs.clone();
        extra_kvs.push((KV_CALIBRATION.to_string(), KvValue::Str(method_label)));
        extra_kvs.push((
            KV_QUANT_SCHEME.to_string(),
            KvValue::Str(QUANT_SCHEME.to_string()),
        ));
        let artifact = Self {
            config: self.config.clone(),
            weights: ModelWeights::Int8(parts),
            extra_kvs,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Instantiates the network. Infallible by construction: every
    /// constructor of this type validated the weights against the
    /// config by building once, so serving factories can call this per
    /// replica. fp32 weights restore bit-exactly; int8 parts are used
    /// verbatim, so logits are bit-identical to the exporting network.
    pub fn build_network(&self) -> Box<dyn Network> {
        self.try_build().expect("artifact validated at construction")
    }

    fn try_build(&self) -> Result<Box<dyn Network>, ModelFileError> {
        let net = match &self.weights {
            ModelWeights::F32(params) => {
                let mut net = Vgg::new(
                    &mut SmallRng::seed_from_u64(STRUCTURAL_SEED),
                    self.config.clone(),
                );
                restore_tensors(&mut net, params)
                    .map_err(|e| ModelFileError::BadModel(e.to_string()))?;
                net
            }
            ModelWeights::Int8(parts) => {
                Vgg::from_quantized_parts(self.config.clone(), parts.clone())
                    .map_err(ModelFileError::BadModel)?
            }
        };
        Ok(Box::new(net))
    }

    /// Proves the weights fit the config (and, for fp32, are finite
    /// enough to restore) by building the network once.
    fn validate(&self) -> Result<(), ModelFileError> {
        self.try_build().map(|_| ())
    }

    /// Serializes to an `.adm` file, written atomically.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when writing fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelFileError> {
        let mut b = ContainerBuilder::new();
        b.kv(KV_FAMILY, KvValue::Str("vgg".to_string()));
        b.kv(KV_DTYPE, KvValue::Str(self.dtype().to_string()));
        let config_json = serde_json::to_string(&self.config)
            .expect("VggConfig serialization cannot fail");
        b.kv(KV_CONFIG, KvValue::Str(config_json));
        for (key, value) in &self.extra_kvs {
            b.kv(key.clone(), value.clone());
        }
        match &self.weights {
            ModelWeights::F32(params) => {
                for (i, t) in params.iter().enumerate() {
                    b.tensor_f32(format!("param.{i:04}"), t.dims(), t.data());
                }
            }
            ModelWeights::Int8(parts) => {
                for (i, conv) in parts.convs.iter().enumerate() {
                    let q = &conv.qweight;
                    b.tensor_i8(format!("conv.{i}.qweight"), q.rows, q.cols, &q.data, &q.scales);
                    b.tensor_f32(format!("conv.{i}.bias"), &[conv.bias.len()], &conv.bias);
                }
                let act_scales: Vec<f32> = parts.convs.iter().map(|c| c.act_scale).collect();
                b.tensor_f32("quant.act_scales", &[act_scales.len()], &act_scales);
                for (i, bn) in parts.bns.iter().enumerate() {
                    for (field, t) in [
                        ("gamma", &bn.gamma),
                        ("beta", &bn.beta),
                        ("running_mean", &bn.running_mean),
                        ("running_var", &bn.running_var),
                    ] {
                        b.tensor_f32(format!("bn.{i}.{field}"), t.dims(), t.data());
                    }
                }
                b.tensor_f32("linear.weight", parts.linear_weight.dims(), parts.linear_weight.data());
                b.tensor_f32("linear.bias", parts.linear_bias.dims(), parts.linear_bias.data());
            }
        }
        b.write(path)
    }

    /// Loads and fully validates an `.adm` file — the single dtype-aware
    /// entry point for fp32 and int8 artifacts. Emits a `model.load`
    /// span and event recording bytes, dtype, and wall time.
    ///
    /// # Errors
    ///
    /// Any container-level [`ModelFileError`], or
    /// [`ModelFileError::BadModel`] when the container's contents do not
    /// form a loadable model.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelFileError> {
        let path = path.as_ref();
        let _span = antidote_obs::span("model.load");
        let start = std::time::Instant::now();
        let container = Container::read(path)?;
        let artifact = Self::from_container(&container)?;
        if antidote_obs::enabled() {
            let dtype = artifact.dtype().to_string();
            antidote_obs::info(
                "model.load",
                &[
                    ("path", antidote_obs::Value::Str(&path.display().to_string())),
                    ("dtype", antidote_obs::Value::Str(&dtype)),
                    ("bytes", antidote_obs::Value::U64(container.data_len() as u64)),
                    ("tensors", antidote_obs::Value::U64(container.tensors.len() as u64)),
                    (
                        "ms",
                        antidote_obs::Value::F64(start.elapsed().as_secs_f64() * 1e3),
                    ),
                ],
            );
        }
        Ok(artifact)
    }

    /// Interprets a parsed container as a model.
    fn from_container(c: &Container) -> Result<Self, ModelFileError> {
        let missing = |key: &str| ModelFileError::BadModel(format!("missing {key} metadata"));
        let family = c.kv_str(KV_FAMILY).ok_or_else(|| missing(KV_FAMILY))?;
        if family != "vgg" {
            return Err(ModelFileError::BadModel(format!(
                "unknown architecture family {family:?}"
            )));
        }
        let dtype: ModelDtype = c
            .kv_str(KV_DTYPE)
            .ok_or_else(|| missing(KV_DTYPE))?
            .parse()
            .map_err(ModelFileError::BadModel)?;
        let config: VggConfig = serde_json::from_str(
            c.kv_str(KV_CONFIG).ok_or_else(|| missing(KV_CONFIG))?,
        )
        .map_err(|e| ModelFileError::BadModel(format!("bad {KV_CONFIG} JSON: {e}")))?;
        config.validate().map_err(ModelFileError::BadModel)?;

        let structural = [KV_FAMILY, KV_DTYPE, KV_CONFIG];
        let extra_kvs: Vec<(String, KvValue)> = c
            .kvs
            .iter()
            .filter(|(k, _)| !structural.contains(&k.as_str()))
            .cloned()
            .collect();

        let require = |name: &str| {
            c.tensor(name)
                .ok_or_else(|| ModelFileError::BadModel(format!("missing tensor {name}")))
        };
        let tensor_of = |name: &str| -> Result<Tensor, ModelFileError> {
            let entry = require(name)?;
            let dims: Vec<usize> = entry.dims.iter().map(|&d| d as usize).collect();
            Tensor::from_vec(c.f32_values(entry)?, &dims)
                .map_err(|e| ModelFileError::BadModel(format!("tensor {name}: {e}")))
        };

        let weights = match dtype {
            ModelDtype::F32 => {
                let mut params = Vec::new();
                loop {
                    let name = format!("param.{:04}", params.len());
                    if c.tensor(&name).is_none() {
                        break;
                    }
                    params.push(tensor_of(&name)?);
                }
                if params.is_empty() {
                    return Err(ModelFileError::BadModel(
                        "f32 artifact holds no param.* tensors".to_string(),
                    ));
                }
                ModelWeights::F32(params)
            }
            ModelDtype::Int8 => {
                let n_convs = config.conv_layer_count();
                let scales_entry = require("quant.act_scales")?;
                let act_scales = c.f32_values(scales_entry)?;
                if act_scales.len() != n_convs {
                    return Err(ModelFileError::BadModel(format!(
                        "quant.act_scales holds {} entries, config needs {n_convs}",
                        act_scales.len()
                    )));
                }
                let mut convs = Vec::with_capacity(n_convs);
                for (i, act_scale) in act_scales.iter().enumerate() {
                    let qentry = require(&format!("conv.{i}.qweight"))?;
                    let (data, scales) = c.i8_values(qentry)?;
                    let qweight = QuantizedMatrix {
                        data,
                        scales,
                        rows: qentry.dims[0] as usize,
                        cols: qentry.dims[1] as usize,
                    };
                    let bias_t = tensor_of(&format!("conv.{i}.bias"))?;
                    convs.push(QuantizedConvParts {
                        qweight,
                        bias: bias_t.data().to_vec(),
                        act_scale: *act_scale,
                    });
                }
                let mut bns = Vec::new();
                if config.batchnorm {
                    for i in 0..n_convs {
                        bns.push(BnParts {
                            gamma: tensor_of(&format!("bn.{i}.gamma"))?,
                            beta: tensor_of(&format!("bn.{i}.beta"))?,
                            running_mean: tensor_of(&format!("bn.{i}.running_mean"))?,
                            running_var: tensor_of(&format!("bn.{i}.running_var"))?,
                        });
                    }
                }
                ModelWeights::Int8(VggQuantizedParts {
                    convs,
                    bns,
                    linear_weight: tensor_of("linear.weight")?,
                    linear_bias: tensor_of("linear.bias")?,
                })
            }
        };

        let artifact = Self {
            config,
            weights,
            extra_kvs,
        };
        artifact.validate()?;
        Ok(artifact)
    }
}
