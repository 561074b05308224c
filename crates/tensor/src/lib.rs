//! # antidote-tensor
//!
//! Dense `f32` tensor substrate for the [AntiDote (DATE 2020)] reproduction.
//!
//! The crate provides exactly the numeric machinery a from-scratch CNN
//! training stack needs and nothing more:
//!
//! - [`Tensor`]: an owned, row-major, dense `f32` array with elementwise
//!   arithmetic and reductions;
//! - [`Shape`]: dimension bookkeeping with row-major offset math;
//! - [`backend`]: pluggable CPU kernel backends (scalar / SSE2 / AVX2)
//!   selected once at startup by runtime ISA detection, overridable via
//!   `ANTIDOTE_KERNEL_BACKEND`;
//! - [`linalg`]: the one cache-blocked f32 GEMM that the convolution and
//!   linear layers lower onto, forward and backward, plus the transpose;
//! - [`conv`]: `im2col`/`col2im` plus an obviously-correct reference
//!   convolution used to validate the fast path;
//! - [`reduce`]: the feature-map reductions behind the paper's channel
//!   (Eq. 1) and spatial (Eq. 2) attention coefficients, plus softmax and
//!   deterministic `topk`;
//! - [`init`]: seeded Kaiming/uniform/normal initializers;
//! - [`quant`]: post-training int8 quantization (symmetric per-row weight
//!   quantization, per-tensor activation scales, and an `i8×i8→i32`
//!   register-blocked GEMM).
//!
//! # Example
//!
//! ```
//! use antidote_tensor::{Tensor, reduce};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A (batch=1, channels=2, 2x2) feature map…
//! let f = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[1, 2, 2, 2])?;
//! // …and its channel-attention vector (Eq. 1 of the paper).
//! let attention = reduce::spatial_mean_per_channel(&f);
//! assert_eq!(attention.data(), &[2.5, 6.5]);
//! # Ok(())
//! # }
//! ```
//!
//! [AntiDote (DATE 2020)]: https://doi.org/10.23919/DATE48585.2020

// `unsafe` is denied everywhere except the explicitly-audited SIMD
// intrinsic kernels in `backend::x86`, which carry module-level
// `#![allow(unsafe_code)]` plus per-call-site safety arguments (the
// only unsafety is `std::arch` loads/stores and feature-gated calls
// guarded by `is_x86_feature_detected!` at backend selection).
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod conv;
mod error;
pub mod init;
pub mod linalg;
pub mod quant;
pub mod reduce;
mod shape;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
