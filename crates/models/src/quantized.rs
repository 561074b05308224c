//! The int8 side of [`Vgg`]'s interchange surface: the stored-parts
//! types the model-file layer serializes, and the constructor that
//! turns parts read from outside the program back into a network.
//!
//! Int8 weights travel as raw bytes plus scales and never round-trip
//! through fp32. The network they rebuild is an ordinary [`Vgg`] whose
//! convs carry int8 payloads (see the module docs of `vgg`).

use crate::config::VggConfig;
use crate::vgg::{ConvOp, Op, Vgg};
use antidote_nn::layers::{BatchNorm2d, Linear};
use antidote_nn::quant::QuantizedConv2d;
use antidote_tensor::conv::ConvGeometry;
use antidote_tensor::quant::QuantizedMatrix;
use antidote_tensor::Tensor;
use std::sync::Arc;

/// One conv layer's stored parts: int8 weights with per-row scales,
/// fp32 bias, and the calibrated input-activation scale.
#[derive(Debug, Clone)]
pub struct QuantizedConvParts {
    /// `(Cout, Cin·K·K)` int8 filter matrix with per-row scales, shared
    /// with the network it was exported from or is built into.
    pub qweight: Arc<QuantizedMatrix>,
    /// Full-precision bias, length `Cout`.
    pub bias: Vec<f32>,
    /// Calibrated per-tensor scale of the layer's input activation.
    pub act_scale: f32,
}

/// One batch norm's stored parts (all rank-1 of length `Cout`).
#[derive(Debug, Clone)]
pub struct BnParts {
    /// Learned scale γ.
    pub gamma: Tensor,
    /// Learned shift β.
    pub beta: Tensor,
    /// Running activation mean.
    pub running_mean: Tensor,
    /// Running activation variance.
    pub running_var: Tensor,
}

/// The weight-carrying parts of an int8 [`Vgg`] in forward order, with
/// the structural ops (ReLU, pooling, flatten, taps) omitted —
/// [`Vgg::from_quantized_parts`] rebuilds those from the [`VggConfig`].
#[derive(Debug, Clone)]
pub struct VggQuantizedParts {
    /// Quantized convolutions in forward order.
    pub convs: Vec<QuantizedConvParts>,
    /// Batch norms in forward order (one per conv when the config
    /// enables batch norm, empty otherwise).
    pub bns: Vec<BnParts>,
    /// Classifier weight, `(classes, classifier_inputs)`.
    pub linear_weight: Tensor,
    /// Classifier bias, `(classes,)`.
    pub linear_bias: Tensor,
}

impl Vgg {
    /// Exports an int8 network's weight-carrying layers for
    /// serialization (the inverse of [`Vgg::from_quantized_parts`]);
    /// `None` for an fp32 network, whose interchange form is its
    /// parameter list.
    pub fn to_quantized_parts(&self) -> Option<VggQuantizedParts> {
        let mut convs = Vec::new();
        let mut bns = Vec::new();
        let mut linear = None;
        for op in &self.ops {
            match op {
                Op::Conv(ConvOp::F32(_)) => return None,
                Op::Conv(ConvOp::Int8(c)) => convs.push(QuantizedConvParts {
                    qweight: Arc::clone(c.qweight()),
                    bias: c.bias().to_vec(),
                    act_scale: c.act_scale(),
                }),
                Op::Bn(bn) => bns.push(BnParts {
                    gamma: bn.gamma().value.clone(),
                    beta: bn.beta().value.clone(),
                    running_mean: bn.running_mean().clone(),
                    running_var: bn.running_var().clone(),
                }),
                Op::Linear(fc) => {
                    linear = Some((fc.weight().value.clone(), fc.bias().value.clone()))
                }
                _ => {}
            }
        }
        let (linear_weight, linear_bias) = linear.expect("a Vgg always has a classifier");
        Some(VggQuantizedParts {
            convs,
            bns,
            linear_weight,
            linear_bias,
        })
    }

    /// Rebuilds an int8 network from stored parts, validating every
    /// dimension against `config` first — the model-file loader's
    /// constructor, which must reject hostile input with an error
    /// rather than a panic.
    ///
    /// Identical parts produce a network whose forward pass is
    /// bit-identical to the exporting one: the int8 weights, scales and
    /// fp32 tensors are used verbatim.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first inconsistency (config
    /// invariant, layer count, tensor shape, non-finite value, or
    /// non-positive activation scale).
    pub fn from_quantized_parts(
        config: VggConfig,
        parts: VggQuantizedParts,
    ) -> Result<Self, String> {
        config.validate()?;
        let shapes = config.conv_shapes();
        if parts.convs.len() != shapes.len() {
            return Err(format!(
                "{} conv layers stored but config declares {}",
                parts.convs.len(),
                shapes.len()
            ));
        }
        let want_bns = if config.batchnorm { shapes.len() } else { 0 };
        if parts.bns.len() != want_bns {
            return Err(format!(
                "{} batch norms stored but config needs {want_bns}",
                parts.bns.len()
            ));
        }
        let finite = |name: &str, data: &[f32]| -> Result<(), String> {
            if data.iter().all(|v| v.is_finite()) {
                Ok(())
            } else {
                Err(format!("{name} contains non-finite values"))
            }
        };
        for (i, (cp, shape)) in parts.convs.iter().zip(&shapes).enumerate() {
            let q = &cp.qweight;
            let want_cols = shape.in_channels * shape.kernel * shape.kernel;
            if q.rows != shape.out_channels || q.cols != want_cols {
                return Err(format!(
                    "conv {i} weight is {}x{} but config needs {}x{want_cols}",
                    q.rows, q.cols, shape.out_channels
                ));
            }
            let want_len = q
                .rows
                .checked_mul(q.cols)
                .ok_or_else(|| format!("conv {i} weight size overflows"))?;
            if q.data.len() != want_len {
                return Err(format!("conv {i} weight holds {} bytes, needs {want_len}", q.data.len()));
            }
            if q.scales.len() != q.rows || cp.bias.len() != q.rows {
                return Err(format!("conv {i} scales/bias length must equal {}", q.rows));
            }
            if !(cp.act_scale.is_finite() && cp.act_scale > 0.0) {
                return Err(format!(
                    "conv {i} activation scale {} must be positive and finite",
                    cp.act_scale
                ));
            }
            if q.scales.iter().any(|s| !s.is_finite() || *s < 0.0) {
                return Err(format!("conv {i} weight scales must be finite and non-negative"));
            }
            finite(&format!("conv {i} bias"), &cp.bias)?;
        }
        for (i, (bn, shape)) in parts.bns.iter().zip(&shapes).enumerate() {
            let want = [shape.out_channels];
            for (name, t) in [
                ("gamma", &bn.gamma),
                ("beta", &bn.beta),
                ("running_mean", &bn.running_mean),
                ("running_var", &bn.running_var),
            ] {
                if t.dims() != want {
                    return Err(format!(
                        "bn {i} {name} has shape {:?}, needs {want:?}",
                        t.dims()
                    ));
                }
                finite(&format!("bn {i} {name}"), t.data())?;
            }
        }
        let want_w = [config.classes, config.classifier_inputs()];
        if parts.linear_weight.dims() != want_w {
            return Err(format!(
                "classifier weight has shape {:?}, needs {want_w:?}",
                parts.linear_weight.dims()
            ));
        }
        if parts.linear_bias.dims() != [config.classes] {
            return Err(format!(
                "classifier bias has shape {:?}, needs [{}]",
                parts.linear_bias.dims(),
                config.classes
            ));
        }
        finite("classifier weight", parts.linear_weight.data())?;
        finite("classifier bias", parts.linear_bias.data())?;

        // Everything checked: the asserts behind the layer constructors
        // below cannot fire.
        let convs = parts
            .convs
            .into_iter()
            .zip(&shapes)
            .map(|(cp, shape)| {
                ConvOp::Int8(QuantizedConv2d::from_parts(
                    cp.qweight,
                    cp.bias,
                    cp.act_scale,
                    shape.in_channels,
                    ConvGeometry::new(shape.kernel, 1, 1),
                ))
            })
            .collect();
        let bns = parts
            .bns
            .into_iter()
            .map(|bn| BatchNorm2d::from_parts(bn.gamma, bn.beta, bn.running_mean, bn.running_var))
            .collect();
        let linear = Linear::from_parts(parts.linear_weight, parts.linear_bias);
        Ok(Self::layout(config, convs, bns, linear))
    }
}
