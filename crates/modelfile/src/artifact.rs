//! Model-level view of an `.adm` file: one dtype-aware entry point
//! ([`ModelArtifact::load`]) that builds the same [`Vgg`] type from
//! either weight domain, plus the checkpoint → artifact conversion the
//! `convert` binary wraps.

use crate::container::{Container, ContainerBuilder, KvValue};
use crate::error::ModelFileError;
use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::{quantize_vgg, CalibrationMethod};
use antidote_data::SynthConfig;
use antidote_models::{
    BnParts, Network, QuantizedConvParts, VggQuantizedParts, Vgg, VggConfig,
};
use antidote_tensor::quant::QuantizedMatrix;
use antidote_tensor::Tensor;
use std::path::Path;
use std::sync::Arc;

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

/// A deployable model: a validated network with dtype-tagged weights
/// and provenance metadata, loadable from and savable to one `.adm`
/// file.
///
/// A value of this type is always *valid*: the constructors build the
/// network once to prove the weights fit the config, and keep it as the
/// prototype every replica is cloned from — so
/// [`ModelArtifact::build_network`] cannot fail and serving factories
/// may call it per replica without error handling.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Never run and never written: the one holder-of-record of the
    /// weight buffers its clones share.
    prototype: Vgg,
    /// Provenance KVs carried verbatim between file generations.
    extra_kvs: Vec<(String, KvValue)>,
}

impl ModelArtifact {
    /// The artifact's weight domain.
    pub fn dtype(&self) -> ModelDtype {
        if self.prototype.is_int8() {
            ModelDtype::Int8
        } else {
            ModelDtype::F32
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &VggConfig {
        self.prototype.config()
    }

    /// Bytes of weight storage one copy of the model holds — and, since
    /// every replica shares the prototype's buffers, what any number of
    /// replicas of this artifact keep resident.
    pub fn weight_bytes(&self) -> u64 {
        self.prototype.weight_bytes() as u64
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
        Ok(Self {
            prototype: Vgg::from_params(config, &ckpt.params).map_err(ModelFileError::BadModel)?,
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
        })
    }

    /// Quantizes an fp32 artifact to int8 in one pass: calibrates a
    /// replica's activation scales on synthetic held-out
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
        if self.prototype.is_int8() {
            return Err(ModelFileError::BadModel(
                "artifact is already int8".to_string(),
            ));
        }
        let config = self.config();
        if config.input_channels != 3 {
            return Err(ModelFileError::BadModel(format!(
                "calibration uses the 3-channel synthetic dataset; config has {} input channels",
                config.input_channels
            )));
        }
        let mut net = self.prototype.clone();

        let samples = calib_batch_size * calib_batches;
        let per_class = samples.div_ceil(config.classes).max(1);
        let data = SynthConfig::tiny(config.classes, config.input_size)
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
        Ok(Self {
            prototype: Vgg::from_quantized_parts(config.clone(), parts)
                .map_err(ModelFileError::BadModel)?,
            extra_kvs,
        })
    }

    /// Instantiates a replica: a clone of the validated prototype, which
    /// shares every weight buffer with it (and with every other replica)
    /// and owns only its activation caches — O(layers) pointer copies,
    /// infallible. fp32 weights are the stored bits; int8 parts are used
    /// verbatim, so logits are bit-identical to the exporting network.
    pub fn build_network(&self) -> Box<dyn Network> {
        Box::new(self.prototype.clone())
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
        let config_json = serde_json::to_string(self.config())
            .expect("VggConfig serialization cannot fail");
        b.kv(KV_CONFIG, KvValue::Str(config_json));
        for (key, value) in &self.extra_kvs {
            b.kv(key.clone(), value.clone());
        }
        match self.prototype.to_quantized_parts() {
            None => {
                // The visitor wants `&mut`; a clone is pointer copies.
                let mut i = 0;
                self.prototype.clone().visit_params_mut(&mut |p| {
                    b.tensor_f32(format!("param.{i:04}"), p.value.dims(), p.value.data());
                    i += 1;
                });
            }
            Some(parts) => {
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
        let read = std::time::Instant::now();
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
                        "weight_bytes",
                        antidote_obs::Value::U64(artifact.weight_bytes()),
                    ),
                    (
                        "build_ms",
                        antidote_obs::Value::F64(read.elapsed().as_secs_f64() * 1e3),
                    ),
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

        let prototype = match dtype {
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
                Vgg::from_params(config, &params)
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
                    let qweight = Arc::new(QuantizedMatrix {
                        data,
                        scales,
                        rows: qentry.dims[0] as usize,
                        cols: qentry.dims[1] as usize,
                    });
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
                let parts = VggQuantizedParts {
                    convs,
                    bns,
                    linear_weight: tensor_of("linear.weight")?,
                    linear_bias: tensor_of("linear.bias")?,
                };
                Vgg::from_quantized_parts(config, parts)
            }
        };
        Ok(Self {
            prototype: prototype.map_err(ModelFileError::BadModel)?,
            extra_kvs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const REPLICAS: usize = 8;

    fn fp32_artifact() -> ModelArtifact {
        let config = VggConfig::vgg_tiny(8, 4).with_batchnorm();
        let mut net = Vgg::new(&mut SmallRng::seed_from_u64(9), config.clone());
        let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
        ModelArtifact::from_checkpoint(&ckpt, None).unwrap()
    }

    /// The network's parameter tensors (handles, not copies).
    fn params_of(net: &mut dyn Network) -> Vec<Tensor> {
        Checkpoint::capture(net).params
    }

    #[test]
    fn fp32_replicas_share_every_parameter_with_the_artifact() {
        let artifact = fp32_artifact();
        let held = params_of(&mut artifact.prototype.clone());
        assert_eq!(
            held.len(),
            2 * 4 + 2,
            "2 convs with batch norm, 1 classifier"
        );
        for _ in 0..REPLICAS {
            let replica = params_of(artifact.build_network().as_mut());
            assert_eq!(replica.len(), held.len());
            for (r, h) in replica.iter().zip(&held) {
                assert!(r.shares_storage(h), "a replica copied a parameter");
            }
        }
        let total: usize = held.iter().map(|t| 4 * t.len()).sum();
        // Weights are the parameters plus each batch norm's two running
        // statistics (4 + 8 channels).
        assert_eq!(artifact.weight_bytes() as usize, total + 4 * 2 * (4 + 8));
    }

    /// `build_network` boxes exactly `prototype.clone()`; an int8 network
    /// exposes no parameters through `Network`, so the clones are
    /// inspected as `Vgg`s.
    #[test]
    fn int8_replicas_share_every_matrix_and_tensor_with_the_artifact() {
        let artifact = fp32_artifact()
            .quantize(CalibrationMethod::MinMax, 8, 2, 7)
            .unwrap();
        let held = artifact.prototype.to_quantized_parts().expect("int8");
        for _ in 0..REPLICAS {
            let replica = artifact
                .prototype
                .clone()
                .to_quantized_parts()
                .expect("int8");
            for (r, h) in replica.convs.iter().zip(&held.convs) {
                assert!(
                    Arc::ptr_eq(&r.qweight, &h.qweight),
                    "a replica copied a matrix"
                );
            }
            for (r, h) in replica.bns.iter().zip(&held.bns) {
                assert!(r.gamma.shares_storage(&h.gamma) && r.beta.shares_storage(&h.beta));
                assert!(r.running_mean.shares_storage(&h.running_mean));
                assert!(r.running_var.shares_storage(&h.running_var));
            }
            assert!(replica.linear_weight.shares_storage(&held.linear_weight));
            assert!(replica.linear_bias.shares_storage(&held.linear_bias));
        }
    }

    #[test]
    fn a_checkpoint_its_artifact_and_the_captured_net_hold_one_copy() {
        let config = VggConfig::vgg_tiny(8, 4);
        let mut net = Vgg::new(&mut SmallRng::seed_from_u64(9), config.clone());
        let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
        let artifact = ModelArtifact::from_checkpoint(&ckpt, None).unwrap();
        let live = params_of(&mut net);
        let served = params_of(artifact.build_network().as_mut());
        for ((l, c), s) in live.iter().zip(&ckpt.params).zip(&served) {
            assert!(l.shares_storage(c) && c.shares_storage(s));
        }
    }
}
