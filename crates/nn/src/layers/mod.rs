//! Layer implementations.

mod activation;
mod batchnorm;
mod conv;
mod linear;
mod misc;
mod pool;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;
pub use misc::Flatten;
pub use pool::{GlobalAvgPool, MaxPool2d};
