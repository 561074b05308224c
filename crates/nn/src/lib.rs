//! # antidote-nn
//!
//! From-scratch neural-network substrate for the AntiDote (DATE 2020)
//! reproduction: layers with full manual backpropagation, SGD with the
//! paper's cosine schedule, softmax cross-entropy, and — the part specific
//! to this paper — a masked convolution executor
//! ([`masked::masked_conv2d`]) that actually *skips* the computation of
//! dynamically pruned feature-map channels and spatial columns while
//! counting the multiply–accumulates it performs. The executor is one
//! tap-gather loop nest generic over the numeric domain:
//! [`quant::quantized_masked_conv2d`] is its int8 entry point, running
//! the same skip logic over post-training-quantized weights for
//! evaluation/serving.
//!
//! # Example: one training step
//!
//! ```
//! use antidote_nn::{layers::{Conv2d, Relu, Flatten, Linear}, Layer, Mode};
//! use antidote_nn::loss::softmax_cross_entropy;
//! use antidote_nn::optim::Sgd;
//! use antidote_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut conv = Conv2d::new(&mut rng, 1, 4, 3, 1, 1);
//! let mut relu = Relu::new();
//! let mut flat = Flatten::new();
//! let mut fc = Linear::new(&mut rng, 4 * 8 * 8, 2);
//! let mut sgd = Sgd::new(0.01).with_momentum(0.9);
//!
//! let x = Tensor::zeros([4, 1, 8, 8]);
//! let labels = [0usize, 1, 0, 1];
//!
//! // forward
//! let h = conv.forward(&x, Mode::Train);
//! let h = relu.forward(&h, Mode::Train);
//! let h = flat.forward(&h, Mode::Train);
//! let logits = fc.forward(&h, Mode::Train);
//! let out = softmax_cross_entropy(&logits, &labels);
//!
//! // backward
//! let g = fc.backward(&out.grad);
//! let g = flat.backward(&g);
//! let g = relu.backward(&g);
//! let _ = conv.backward(&g);
//!
//! // update
//! sgd.begin_step();
//! for layer in [&mut conv as &mut dyn Layer, &mut fc] {
//!     layer.visit_params_mut(&mut |p| sgd.update(p));
//!     layer.zero_grad();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layer;
pub mod layers;
pub mod loss;
pub mod masked;
pub mod optim;
mod param;
pub mod quant;
mod sequential;

pub use layer::{Layer, Mode};
pub use param::Parameter;
pub use sequential::Sequential;
