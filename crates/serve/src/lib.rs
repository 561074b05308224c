//! # antidote-serve
//!
//! A multi-threaded, batched inference engine that exercises AntiDote's
//! per-input dynamic pruning (Eqs. 1–4) under concurrent,
//! latency-sensitive load — the serving half of the paper's
//! runtime-efficiency story.
//!
//! Pipeline (`DESIGN.md` §8):
//!
//! 1. **Admission** ([`ServeHandle::submit`]): each request may carry a
//!    FLOPs budget; the [`budget::BudgetMapper`] resolves it to the
//!    least aggressive scaling of the operator's base
//!    [`antidote_core::PruneSchedule`]
//!    that fits, or rejects it with a typed error.
//! 2. **Overload policy** ([`shed::ShedConfig`]): under queue pressure,
//!    admission first *degrades* requests to cheaper schedule scales
//!    (serve at fewer MACs rather than fail — the paper's
//!    compute-is-a-knob premise applied to overload), then sheds
//!    low-priority work with typed `Overloaded` errors.
//! 3. **SLO-aware queue** ([`queue::SloQueue`]): bounded priority lanes
//!    with earliest-deadline-first order; a request whose deadline
//!    passes while queued is rejected with a typed `DeadlineExceeded`
//!    at dequeue and never wastes a batch slot.
//! 4. **Micro-batcher + worker pool** ([`ServeEngine`]): `N`
//!    `std::thread` workers, each owning a private model replica, block
//!    for a request, take whatever else is already queued up to
//!    `max_batch` without waiting for more, then run one masked forward
//!    pass with per-item schedules
//!    ([`antidote_core::DynamicPruner::per_item`]). Panics are contained per batch and
//!    replicas rebuilt; [`chaos::ChaosMonkey`] can inject such kills on
//!    a schedule to keep that path continuously exercised.
//! 5. **Observability**: each engine records into its own
//!    [`antidote_obs::Registry`] — outcome counters, per-lane and
//!    per-batch-size counters, achieved and measured MACs, and the
//!    `latency_ms` / `queue_wait_ms` histograms with their 60s windows.
//!    [`metrics::ServeMetrics`] is a read-only view of one snapshot of
//!    it (counts, queue depth, batch histogram, shed and degrade rates);
//!    the HTTP front-end renders the same snapshot. Traced requests
//!    ([`InferRequest::with_trace`], or engine-minted ids while
//!    observability is on) additionally leave complete per-request
//!    records — queue wait, admission decision, batch id/occupancy,
//!    per-layer spans and MAC counters — in `antidote_obs`'s flight
//!    recorder (`DESIGN.md` §14).
//!
//! Std-only by design: the build environment vendors its dependencies
//! offline, so there is no async runtime — concurrency is
//! `std::thread` + `Mutex`/`Condvar` channels throughout.
//!
//! # Example
//!
//! ```
//! use antidote_serve::{InferRequest, ModelFactory, ServeConfig, ServeEngine};
//! use antidote_core::PruneSchedule;
//! use antidote_models::{Vgg, VggConfig};
//! use antidote_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let factory: ModelFactory = Arc::new(|_worker| {
//!     // Same seed for every worker: replicas must be identical.
//!     let mut rng = SmallRng::seed_from_u64(7);
//!     Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3)))
//! });
//! let cfg = ServeConfig {
//!     workers: 1,
//!     base_schedule: PruneSchedule::channel_only(vec![0.8, 0.8]),
//!     ..ServeConfig::default()
//! };
//! let engine = ServeEngine::start(cfg, factory).unwrap();
//! let handle = engine.handle();
//! let budget = handle.dense_macs() * 0.8; // spend at most 80% of dense
//! let pending = handle
//!     .submit(InferRequest::new(Tensor::zeros([3, 8, 8])).with_budget(budget))
//!     .unwrap();
//! let response = pending.wait().unwrap();
//! assert!(response.achieved_macs <= budget);
//! let metrics = engine.shutdown();
//! assert_eq!(metrics.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod chaos;
pub mod engine;
pub mod metrics;
pub mod queue;
pub mod shed;

pub use budget::{BudgetError, BudgetMapper, BudgetPlan};
pub use chaos::{ChaosConfig, ChaosMonkey};
pub use engine::{
    Fault, InferRequest, InferResponse, ModelFactory, PendingResponse, QuantMode, ServeConfig,
    ServeConfigError, ServeEngine, ServeError, ServeHandle,
};
pub use metrics::ServeMetrics;
pub use queue::{Scheduled, SloQueue};
pub use shed::{Priority, ShedConfig, ShedDecision};
