//! Per-layer profiling shim for the measured forward paths.
//!
//! The measured forward routes every conv that appears in
//! [`crate::ConvShape`] order through [`profiled_masked_conv`], which
//! tags the call with the layer's forward-order index. With
//! observability enabled (`antidote_obs::enabled`) each layer gets:
//!
//! - a span `fwd.layerNN` (wall-clock time, aggregated across calls);
//! - a counter `fwd.layerNN.macs` (MACs the masked executor performed),
//!
//! identically for fp32 and int8 payloads, so profiling snapshots of a
//! quantized serving path join against analytic FLOPs like the fp32 one.
//!
//! Layer indices match `Network::conv_shapes()` exactly, so snapshots
//! join 1:1 against `core::flops::analytic_flops` per-layer rows, and
//! the benchmark's traced run reads these spans into its
//! `models.vgg16.layerNN_ms` rows. ResNet skip projections are *not* in `conv_shapes` and are
//! timed under the aggregate `fwd.projection` span instead. Disabled,
//! the shim costs one atomic load per conv.

use antidote_nn::layers::Conv2d;
use antidote_nn::masked::{masked_conv2d, FeatureMask, MacCounter};
use antidote_nn::quant::{quantized_masked_conv2d, QuantizedConv2d};
use antidote_tensor::Tensor;

/// A conv layer's weights borrowed for one executor call, tagged by
/// numeric domain. The tag is the only switch between the fp32 and int8
/// masked executors; everything around the call is shared.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ConvRef<'a> {
    F32(&'a Conv2d),
    Int8(&'a QuantizedConv2d),
}

/// Runs `conv` through the masked executor of its domain, attributing
/// time and MACs to forward-order layer `layer_idx`.
pub(crate) fn profiled_masked_conv(
    layer_idx: usize,
    input: &Tensor,
    conv: ConvRef<'_>,
    masks: &[FeatureMask],
    counter: &mut MacCounter,
) -> Tensor {
    let _span = antidote_obs::layer_span("fwd", layer_idx);
    let before = counter.total();
    let out = match conv {
        ConvRef::F32(conv) => masked_conv2d(
            input,
            &conv.weight().value,
            Some(&conv.bias().value),
            conv.geometry(),
            masks,
            counter,
        ),
        ConvRef::Int8(conv) => quantized_masked_conv2d(input, conv, masks, counter),
    };
    if antidote_obs::enabled() {
        antidote_obs::counter_add(
            &format!("fwd.layer{layer_idx:02}.macs"),
            counter.total() - before,
        );
    }
    out
}
