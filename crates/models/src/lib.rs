//! # antidote-models
//!
//! The model zoo of the AntiDote (DATE 2020) reproduction: VGG and
//! CIFAR-style ResNet with *feature taps* — hook points after every
//! prunable convolution where the paper's attention machinery observes
//! the feature map and returns dynamic pruning masks.
//!
//! Architecture descriptors ([`VggConfig`], [`ResNetConfig`]) are pure
//! data and reproduce the paper's exact full-scale layer shapes (the
//! Table I baseline FLOPs fall out of [`ConvShape::macs`] sums); the
//! trainable [`Vgg`]/[`ResNet`] networks are usually instantiated at
//! reduced width for CPU-scale training. Both families are one flat op
//! list with one set of walkers (hooked and measured forward, backward,
//! parameter visit); a ResNet basic block is a fork … join on that list.
//! Int8 inference is not a second network type: [`Vgg::quantize`] is a
//! transform `Vgg → Vgg` whose convs carry int8 payloads through the
//! same walkers. Filter surgery ([`Vgg::shrink`], [`ResNet::shrink`]) is
//! one transform over the op list, returning a [`ShrunkNetwork`].
//!
//! # Example
//!
//! ```
//! use antidote_models::{Vgg, VggConfig, Network};
//! use antidote_nn::Mode;
//! use antidote_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 4));
//! let logits = net.forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Eval);
//! assert_eq!(logits.dims(), &[1, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod network;
mod oplist;
mod parts;
mod profiled;
mod resnet;
mod shrunk;
mod tap;
mod vgg;

pub use config::{ConvShape, ResNetConfig, VggBlock, VggConfig};
pub use network::Network;
pub use parts::{BnParts, ConvParts, ConvWeight, VggParts};
pub use resnet::ResNet;
pub use shrunk::ShrunkNetwork;
pub use tap::{masks_to_tensor, FeatureHook, NoopHook, TapId, TapInfo};
pub use vgg::Vgg;
