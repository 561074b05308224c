//! # antidote-core
//!
//! The primary contribution of *AntiDote: Attention-based Dynamic
//! Optimization for Neural Network Runtime Efficiency* (DATE 2020),
//! reproduced in Rust:
//!
//! - [`attention`]: channel (Eq. 1) and spatial (Eq. 2) attention
//!   coefficients;
//! - [`mask`]: top-k binarization into keep-masks (Eq. 3/4), plus the
//!   random and inverse-attention control criteria of Fig. 2;
//! - [`DynamicPruner`]: the testing-phase per-input pruning runtime
//!   (a [`antidote_models::FeatureHook`]);
//! - [`ttd`]: Training with Targeted Dropout and dropout-ratio ascent
//!   (Sec. IV);
//! - [`flops`]: analytic FLOPs accounting that reproduces the Table I
//!   FLOPs columns arithmetically, with a measured-MAC cross-check path;
//! - [`analysis`]: the Fig. 2 criterion comparison and Fig. 3 block
//!   sensitivity sweeps;
//! - [`settings`]: the exact pruning schedules quoted in Sec. V;
//! - [`trainer`]: shared SGD/cosine training and evaluation loops;
//! - [`quant`]: post-training int8 calibration for the quantized
//!   serving path (an int8 `.adm`, written by `convert --quantize int8`).
//!
//! # Example: dynamic pruning end to end
//!
//! ```
//! use antidote_core::{DynamicPruner, PruneSchedule, trainer};
//! use antidote_data::SynthConfig;
//! use antidote_models::{Vgg, VggConfig, Network};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let data = SynthConfig::tiny(2, 8).generate();
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 2));
//! let mut pruner = DynamicPruner::new(PruneSchedule::new(vec![0.3, 0.5], vec![]));
//! let (acc, macs_per_image) =
//!     trainer::evaluate_measured(&mut net, &data.test, &mut pruner, 8);
//! assert!(acc >= 0.0 && macs_per_image > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod analysis;
pub mod attention;
pub mod checkpoint;
pub mod flops;
pub mod mask;
mod pruner;
pub mod quant;
pub mod recovery;
pub mod report;
pub mod schedule_search;
pub mod settings;
pub mod trainer;
pub mod ttd;

pub use mask::{Criterion, MaskPolicy};
pub use pruner::{DynamicPruner, PruneSchedule, PruneStats, ScheduleError, TapStats};
pub use recovery::{
    DivergenceKind, RecoveryEvent, RecoverySettings, RunOptions, TrainError, TrainState, TtdState,
};
pub use trainer::train_with_options;
pub use ttd::{
    train_ttd, train_ttd_with_options, AscentError, RatioAscent, TtdConfig, TtdOutcome,
};
