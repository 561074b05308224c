//! Model-level view of an `.adm` file: one dtype-aware entry point
//! ([`ModelArtifact::load`]) that builds the same [`Vgg`] type from
//! either weight domain, plus the checkpoint → artifact conversion the
//! `convert` binary wraps.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::container::{Container, ContainerBuilder, KvValue, Payload};
use crate::error::ModelFileError;
use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::{quantize_vgg, CalibrationMethod};
use antidote_data::SynthConfig;
use antidote_models::{BnParts, ConvParts, ConvWeight, Network, Vgg, VggConfig, VggParts};
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
/// Metadata key: state checksum of the source checkpoint.
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

    /// Builds an fp32 artifact from a v2 checkpoint — its parameters and
    /// batch-norm running statistics. The architecture comes from the
    /// checkpoint's embedded [`VggConfig`] (see
    /// `Checkpoint::with_vgg_config`) or the explicit `config` override,
    /// which wins when both are present.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::BadModel`] when no config is available, the
    /// config is invalid, or the checkpoint's state does not fit it
    /// (wrong count or shape, a non-finite value, or a batch-norm
    /// network's checkpoint without its running statistics).
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
            prototype: Vgg::from_params(config, &ckpt.params, &ckpt.buffers)
                .map_err(ModelFileError::BadModel)?,
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
    /// [`ModelFileError::BadModel`] when the artifact is already int8,
    /// its input is not the synthetic dataset's 3-channel shape, or
    /// calibration does not yield an int8 network.
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
        let prototype =
            quantize_vgg(&mut net, &data.train, calib_batch_size, calib_batches, method);

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
            prototype,
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

    /// Serializes to an `.adm` file, written atomically. The builder
    /// holds the prototype's weight handles, so saving copies no weight.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when writing fails; `BadModel` if the
    /// config does not serialize.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelFileError> {
        let mut b = ContainerBuilder::new();
        b.kv(KV_FAMILY, KvValue::Str("vgg".to_string()));
        b.kv(KV_DTYPE, KvValue::Str(self.dtype().to_string()));
        let config_json = serde_json::to_string(self.config())
            .map_err(|e| ModelFileError::BadModel(format!("{KV_CONFIG}: {e}")))?;
        b.kv(KV_CONFIG, KvValue::Str(config_json));
        for (key, value) in &self.extra_kvs {
            b.kv(key.clone(), value.clone());
        }
        let parts = self.prototype.to_parts();
        let mut act_scales = Vec::new();
        for (i, conv) in parts.convs.iter().enumerate() {
            match &conv.weight {
                ConvWeight::F32(w) => b.tensor(format!("conv.{i}.weight"), w.clone()),
                ConvWeight::Int8 { qweight, act_scale } => {
                    act_scales.push(*act_scale);
                    b.matrix_i8(format!("conv.{i}.qweight"), Arc::clone(qweight))
                }
            };
            b.tensor(format!("conv.{i}.bias"), conv.bias.clone());
        }
        if self.prototype.is_int8() {
            b.tensor_f32("quant.act_scales", &[act_scales.len()], &act_scales);
        }
        for (i, bn) in parts.bns.iter().enumerate() {
            for (field, t) in [
                ("gamma", &bn.gamma),
                ("beta", &bn.beta),
                ("running_mean", &bn.running_mean),
                ("running_var", &bn.running_var),
            ] {
                b.tensor(format!("bn.{i}.{field}"), t.clone());
            }
        }
        b.tensor("linear.weight", parts.linear_weight);
        b.tensor("linear.bias", parts.linear_bias);
        b.write(path)
    }

    /// Loads and fully validates an `.adm` file — the single dtype-aware
    /// entry point for fp32 and int8 artifacts. The file streams once
    /// into its decoded payloads, which move into the network, so the
    /// weights are never held twice. Emits a `model.load` span and event
    /// recording bytes, dtype, and wall time.
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
        let (bytes, tensors) = (container.data_len(), container.tensors.len());
        let artifact = Self::from_container(container)?;
        if antidote_obs::enabled() {
            let dtype = artifact.dtype().to_string();
            antidote_obs::info(
                "model.load",
                &[
                    ("path", antidote_obs::Value::Str(&path.display().to_string())),
                    ("dtype", antidote_obs::Value::Str(&dtype)),
                    ("bytes", antidote_obs::Value::U64(bytes as u64)),
                    ("tensors", antidote_obs::Value::U64(tensors as u64)),
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

    /// Interprets a parsed container as a model, moving its decoded
    /// payloads into the network.
    fn from_container(mut c: Container) -> Result<Self, ModelFileError> {
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

        // One schema for both dtypes: only a conv's weight differs.
        let n_convs = config.conv_layer_count();
        let mut act_scales = match dtype {
            ModelDtype::F32 => None,
            ModelDtype::Int8 => {
                let (_, scales) = f32s_of(&mut c, "quant.act_scales")?;
                if scales.len() != n_convs {
                    return Err(ModelFileError::BadModel(format!(
                        "quant.act_scales holds {} entries, config needs {n_convs}",
                        scales.len()
                    )));
                }
                Some(scales.into_iter())
            }
        };
        let mut convs = Vec::with_capacity(n_convs);
        for i in 0..n_convs {
            let weight = match act_scales.as_mut().and_then(Iterator::next) {
                None => ConvWeight::F32(tensor_of(&mut c, &format!("conv.{i}.weight"))?),
                Some(act_scale) => {
                    let name = format!("conv.{i}.qweight");
                    let (_, Payload::Matrix(qweight)) = take(&mut c, &name)? else {
                        return Err(ModelFileError::Malformed(format!("tensor {name} is f32, not i8")));
                    };
                    ConvWeight::Int8 { qweight, act_scale }
                }
            };
            let bias = tensor_of(&mut c, &format!("conv.{i}.bias"))?;
            convs.push(ConvParts { weight, bias });
        }
        let mut bns = Vec::new();
        if config.batchnorm {
            for i in 0..n_convs {
                bns.push(BnParts {
                    gamma: tensor_of(&mut c, &format!("bn.{i}.gamma"))?,
                    beta: tensor_of(&mut c, &format!("bn.{i}.beta"))?,
                    running_mean: tensor_of(&mut c, &format!("bn.{i}.running_mean"))?,
                    running_var: tensor_of(&mut c, &format!("bn.{i}.running_var"))?,
                });
            }
        }
        let parts = VggParts {
            convs,
            bns,
            linear_weight: tensor_of(&mut c, "linear.weight")?,
            linear_bias: tensor_of(&mut c, "linear.bias")?,
        };
        let prototype = Vgg::from_parts(config, parts);
        Ok(Self {
            prototype: prototype.map_err(ModelFileError::BadModel)?,
            extra_kvs,
        })
    }
}

/// Moves the named tensor's dims and decoded payload out of the
/// container.
fn take(c: &mut Container, name: &str) -> Result<(Vec<usize>, Payload), ModelFileError> {
    c.take(name)
        .ok_or_else(|| ModelFileError::BadModel(format!("missing tensor {name}")))
}

/// Moves the named f32 tensor's dims and values out of the container.
fn f32s_of(c: &mut Container, name: &str) -> Result<(Vec<usize>, Vec<f32>), ModelFileError> {
    match take(c, name)? {
        (dims, Payload::Values(values)) => Ok((dims, values)),
        _ => Err(ModelFileError::Malformed(format!("tensor {name} is i8, not f32"))),
    }
}

/// Moves the named f32 tensor out of the container as a [`Tensor`]
/// (its decoded buffer, not a copy).
fn tensor_of(c: &mut Container, name: &str) -> Result<Tensor, ModelFileError> {
    let (dims, values) = f32s_of(c, name)?;
    Tensor::from_vec(values, &dims)
        .map_err(|e| ModelFileError::BadModel(format!("tensor {name}: {e}")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
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

    /// The network's state: parameters, then buffers (handles, not
    /// copies).
    fn state_of(net: &mut dyn Network) -> Vec<Tensor> {
        let ckpt = Checkpoint::capture(net);
        ckpt.params.into_iter().chain(ckpt.buffers).collect()
    }

    #[test]
    fn fp32_replicas_share_every_parameter_with_the_artifact() {
        let artifact = fp32_artifact();
        let held = state_of(&mut artifact.prototype.clone());
        assert_eq!(
            held.len(),
            2 * (4 + 2) + 2,
            "2 convs with batch norm, 1 classifier"
        );
        for _ in 0..REPLICAS {
            let replica = state_of(artifact.build_network().as_mut());
            assert_eq!(replica.len(), held.len());
            for (r, h) in replica.iter().zip(&held) {
                assert!(r.shares_storage(h), "a replica copied a tensor");
            }
        }
        let total: usize = held.iter().map(|t| 4 * t.len()).sum();
        assert_eq!(artifact.weight_bytes() as usize, total);
    }

    /// `build_network` boxes exactly `prototype.clone()`; an int8 network
    /// exposes no parameters through `Network`, so the clones are
    /// inspected as `Vgg`s.
    #[test]
    fn int8_replicas_share_every_matrix_and_tensor_with_the_artifact() {
        let artifact = fp32_artifact()
            .quantize(CalibrationMethod::MinMax, 8, 2, 7)
            .unwrap();
        let held = artifact.prototype.to_parts();
        let qweight = |c: &ConvParts| match &c.weight {
            ConvWeight::Int8 { qweight, .. } => Arc::clone(qweight),
            ConvWeight::F32(_) => panic!("int8 artifact holds an fp32 conv"),
        };
        for _ in 0..REPLICAS {
            let replica = artifact.prototype.clone().to_parts();
            for (r, h) in replica.convs.iter().zip(&held.convs) {
                assert!(
                    Arc::ptr_eq(&qweight(r), &qweight(h)),
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
        let config = VggConfig::vgg_tiny(8, 4).with_batchnorm();
        let mut net = Vgg::new(&mut SmallRng::seed_from_u64(9), config.clone());
        let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
        let artifact = ModelArtifact::from_checkpoint(&ckpt, None).unwrap();
        let live = state_of(&mut net);
        let served = state_of(artifact.build_network().as_mut());
        assert_eq!(served.len(), live.len());
        let stored = ckpt.params.iter().chain(&ckpt.buffers);
        for ((l, c), s) in live.iter().zip(stored).zip(&served) {
            assert!(l.shares_storage(c) && c.shares_storage(s));
        }
    }
}
