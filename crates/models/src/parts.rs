//! [`Vgg`]'s interchange surface, one schema for both numeric domains:
//! the stored-parts types the model-file layer serializes, in which only
//! a conv's weight carries a dtype tag ([`ConvWeight`]; int8 weights
//! never round-trip through fp32), and the one constructor that turns
//! parts from outside the program back into a network.

use crate::config::VggConfig;
use crate::oplist::{ConvOp, Op};
use crate::vgg::Vgg;
use antidote_nn::layers::{BatchNorm2d, Conv2d, Linear};
use antidote_nn::quant::QuantizedConv2d;
use antidote_tensor::conv::ConvGeometry;
use antidote_tensor::quant::QuantizedMatrix;
use antidote_tensor::Tensor;
use std::sync::Arc;

/// A conv layer's filters, tagged by numeric domain.
#[derive(Debug, Clone)]
pub enum ConvWeight {
    /// fp32 filters, `(Cout, Cin, K, K)`.
    F32(Tensor),
    /// Int8 filters with the calibrated input-activation scale.
    Int8 {
        /// `(Cout, Cin·K·K)` int8 filter matrix with per-row scales,
        /// shared with the network it was exported from or is built into.
        qweight: Arc<QuantizedMatrix>,
        /// Calibrated per-tensor scale of the layer's input activation.
        act_scale: f32,
    },
}

/// One conv layer's stored parts.
#[derive(Debug, Clone)]
pub struct ConvParts {
    /// The filters.
    pub weight: ConvWeight,
    /// Full-precision bias, `(Cout,)`.
    pub bias: Tensor,
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

/// The weight-carrying parts of a [`Vgg`] in forward order, with the
/// structural ops (ReLU, pooling, flatten, taps) omitted —
/// [`Vgg::from_parts`] rebuilds those from the [`VggConfig`].
#[derive(Debug, Clone)]
pub struct VggParts {
    /// Convolutions in forward order, all of one dtype.
    pub convs: Vec<ConvParts>,
    /// Batch norms in forward order (one per conv when the config
    /// enables batch norm, empty otherwise).
    pub bns: Vec<BnParts>,
    /// Classifier weight, `(classes, classifier_inputs)`.
    pub linear_weight: Tensor,
    /// Classifier bias, `(classes,)`.
    pub linear_bias: Tensor,
}

impl Vgg {
    /// Exports the weight-carrying layers for serialization, fp32 or
    /// int8 (the inverse of [`Vgg::from_parts`]). Every tensor and
    /// matrix is a handle on the network's own storage, except an int8
    /// conv's bias, which is copied.
    pub fn to_parts(&self) -> VggParts {
        let (mut convs, mut bns, mut linear) = (Vec::new(), Vec::new(), None);
        for op in &self.net.ops {
            match op {
                Op::Conv(ConvOp::F32(c)) => convs.push(ConvParts {
                    weight: ConvWeight::F32(c.weight().value.clone()),
                    bias: c.bias().value.clone(),
                }),
                Op::Conv(ConvOp::Int8(c)) => convs.push(ConvParts {
                    weight: ConvWeight::Int8 {
                        qweight: Arc::clone(c.qweight()),
                        act_scale: c.act_scale(),
                    },
                    bias: Tensor::from_fn([c.bias().len()], |i| c.bias()[i]),
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
        VggParts {
            convs,
            bns,
            linear_weight,
            linear_bias,
        }
    }

    /// Builds a network from stored parts, validating everything against
    /// `config` first — the one constructor for weights from outside the
    /// program (checkpoints and `.adm` files, fp32 and int8), which must
    /// reject hostile input with an error rather than a panic. The
    /// tensors and matrices are used verbatim (shared, not copied), so
    /// the parts of [`Vgg::to_parts`] rebuild a bit-identical network.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first inconsistency: config
    /// invariant, layer count, mixed conv dtypes, tensor shape,
    /// non-finite value, or an int8 scale that is not positive and
    /// finite.
    pub fn from_parts(config: VggConfig, parts: VggParts) -> Result<Self, String> {
        config.validate()?;
        let shapes = config.conv_shapes();
        let want_bns = if config.batchnorm { shapes.len() } else { 0 };
        if (parts.convs.len(), parts.bns.len()) != (shapes.len(), want_bns) {
            return Err(format!(
                "{} convs and {} batch norms stored but config needs {} and {want_bns}",
                parts.convs.len(),
                parts.bns.len(),
                shapes.len()
            ));
        }
        let int8 = |c: &ConvParts| matches!(c.weight, ConvWeight::Int8 { .. });
        if parts.convs.iter().any(int8) && !parts.convs.iter().all(int8) {
            return Err("conv layers mix fp32 and int8 weights".to_string());
        }
        let check = |name: &str, t: &Tensor, want: &[usize]| -> Result<(), String> {
            if t.dims() != want {
                Err(format!("{name} has shape {:?}, needs {want:?}", t.dims()))
            } else if !t.data().iter().all(|v| v.is_finite()) {
                Err(format!("{name} contains non-finite values"))
            } else {
                Ok(())
            }
        };
        // Each layer is checked before it is built, so the asserts
        // behind the layer constructors cannot fire.
        let mut convs = Vec::with_capacity(shapes.len());
        for (i, (cp, shape)) in parts.convs.into_iter().zip(&shapes).enumerate() {
            let (cout, cin, k) = (shape.out_channels, shape.in_channels, shape.kernel);
            check(&format!("conv {i} bias"), &cp.bias, &[cout])?;
            convs.push(match cp.weight {
                ConvWeight::F32(w) => {
                    check(&format!("conv {i} weight"), &w, &[cout, cin, k, k])?;
                    ConvOp::F32(Conv2d::from_parts(w, cp.bias, 1, 1))
                }
                ConvWeight::Int8 { qweight: q, act_scale } => {
                    let cols = cin * k * k;
                    if (q.rows, q.cols, q.data.len(), q.scales.len()) != (cout, cols, cout * cols, cout) {
                        return Err(format!(
                            "conv {i} weight is {}x{} ({} bytes, {} scales), config needs {cout}x{cols}",
                            q.rows, q.cols, q.data.len(), q.scales.len()
                        ));
                    }
                    let scale_ok = |s: f32| s.is_finite() && s >= 0.0;
                    if !(scale_ok(act_scale) && act_scale > 0.0 && q.scales.iter().all(|&s| scale_ok(s))) {
                        return Err(format!(
                            "conv {i} activation scale {act_scale} must be positive and its weight scales non-negative, all finite"
                        ));
                    }
                    let geom = ConvGeometry::new(k, 1, 1);
                    ConvOp::Int8(QuantizedConv2d::from_parts(q, cp.bias.into_vec(), act_scale, cin, geom))
                }
            });
        }
        let mut bns = Vec::with_capacity(want_bns);
        for (i, (bn, shape)) in parts.bns.into_iter().zip(&shapes).enumerate() {
            for (name, t) in [
                ("gamma", &bn.gamma),
                ("beta", &bn.beta),
                ("running_mean", &bn.running_mean),
                ("running_var", &bn.running_var),
            ] {
                check(&format!("bn {i} {name}"), t, &[shape.out_channels])?;
            }
            bns.push(BatchNorm2d::from_parts(bn.gamma, bn.beta, bn.running_mean, bn.running_var));
        }
        let classes = config.classes;
        check("classifier weight", &parts.linear_weight, &[classes, config.classifier_inputs()])?;
        check("classifier bias", &parts.linear_bias, &[classes])?;
        let linear = Linear::from_parts(parts.linear_weight, parts.linear_bias);
        Ok(Self::layout(config, convs, bns, linear))
    }

    /// Builds an fp32 VGG from a checkpoint's positional state, through
    /// [`Vgg::from_parts`]: `params` in visit order (per conv weight,
    /// bias, then γ, β with batch norm; the classifier last), `buffers`
    /// each batch norm's running mean and variance. Shared, not copied.
    ///
    /// # Errors
    ///
    /// A tensor count that does not fit `config`, or any error of
    /// [`Vgg::from_parts`]; never panics.
    pub fn from_params(
        config: VggConfig,
        params: &[Tensor],
        buffers: &[Tensor],
    ) -> Result<Self, String> {
        config.validate()?;
        let layers = config.conv_layer_count();
        let per_conv = if config.batchnorm { 4 } else { 2 };
        let want = (layers * per_conv + 2, if config.batchnorm { 2 * layers } else { 0 });
        if (params.len(), buffers.len()) != want {
            return Err(format!(
                "{} parameter and {} buffer tensors stored but config needs {} and {}",
                params.len(),
                buffers.len(),
                want.0,
                want.1
            ));
        }
        let (conv_params, linear) = params.split_at(layers * per_conv);
        let convs = conv_params
            .chunks(per_conv)
            .map(|p| ConvParts {
                weight: ConvWeight::F32(p[0].clone()),
                bias: p[1].clone(),
            })
            .collect();
        // Without batch norm `buffers` is empty and the zip yields none.
        let bns = conv_params
            .chunks(per_conv)
            .zip(buffers.chunks(2))
            .map(|(p, b)| BnParts {
                gamma: p[2].clone(),
                beta: p[3].clone(),
                running_mean: b[0].clone(),
                running_var: b[1].clone(),
            })
            .collect();
        let (linear_weight, linear_bias) = (linear[0].clone(), linear[1].clone());
        Self::from_parts(
            config,
            VggParts {
                convs,
                bns,
                linear_weight,
                linear_bias,
            },
        )
    }
}
