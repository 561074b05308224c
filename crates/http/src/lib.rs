//! Std-only HTTP/1.1 front-end for the AntiDote serving engine.
//!
//! The paper's premise — compute as a per-request runtime knob — only
//! pays off if requests can actually *carry* their knobs. This crate is
//! that last mile: a dependency-free HTTP server (no async runtime, no
//! hyper — `std::net::TcpListener` and threads, per the workspace's
//! vendored-deps policy) exposing the serving engine's budgets,
//! deadlines, and priority lanes over a small JSON API.
//!
//! ```text
//!   clients ──TCP──▶ [acceptor] ─▶ conn workers ─▶ router
//!                                                   │ POST /v1/infer ─▶ [RateLimiter] ─▶ [ModelRegistry] ─▶ ServeEngine
//!                                                   │ GET  /healthz
//!                                                   │ GET  /metrics      (JSON, or Prometheus text via content negotiation)
//!                                                   │ GET  /debug/traces (flight-recorder dump)
//! ```
//!
//! - [`http1`] — minimal request parsing with hostile-input limits and
//!   an absolute read deadline (slow-loris defence);
//! - [`api`] — the JSON wire types and the total
//!   `ServeError` → status-code mapping;
//! - [`registry`] — named model+schedule+dtype variants (fp32 / int8
//!   twins), each on its own engine, routed per request;
//! - [`ratelimit`] — per-client-IP token buckets → `429`;
//! - [`prom`] — the Prometheus text exposition `/metrics` serves under
//!   `Accept: text/plain` or `?format=prom`: every registry (the
//!   front-end's, each engine's, the global one) through obs's one
//!   renderer;
//! - [`server`] — accept loop, dedicated connection workers, routing,
//!   request tracing (`x-antidote-trace` in/out), and graceful drain
//!   (finish everything accepted, then drain the engines).
//!
//! Configuration is typed: the embedding program builds an
//! [`HttpConfig`] and one [`antidote_serve::ServeConfig`] per model
//! (the crate reads no environment). DESIGN.md §13 documents the
//! architecture and the full error mapping.
//!
//! # Quickstart
//!
//! ```no_run
//! use antidote_http::{HttpConfig, HttpServer, ModelRegistry, ModelSource, ModelSpec};
//! use antidote_models::{Vgg, VggConfig};
//! use antidote_serve::ServeConfig;
//! use std::sync::Arc;
//!
//! let mut specs = vec![ModelSpec {
//!     name: "vgg-tiny-fp32".into(),
//!     config: ServeConfig { workers: 4, ..ServeConfig::default() },
//!     factory: Arc::new(|_| {
//!         let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
//!         Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(32, 4)))
//!     }),
//!     source: ModelSource::Built,
//! }];
//! // Cold-start every `.adm` artifact in `models/`, tuning each engine
//! // before it starts.
//! for mut spec in ModelRegistry::specs_from_dir("models").expect("model dir") {
//!     spec.config.max_batch = 16;
//!     specs.push(spec);
//! }
//! let registry = ModelRegistry::start(specs).expect("registry");
//! let config = HttpConfig { addr: "127.0.0.1:8080".into(), ..HttpConfig::default() };
//! let server = HttpServer::start(config, registry).expect("bind");
//! println!("listening on {}", server.local_addr());
//! // ... serve traffic ...
//! let final_metrics = server.shutdown();
//! println!("drained {} engines", final_metrics.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http1;
pub mod prom;
pub mod ratelimit;
pub mod registry;
pub mod server;

pub use api::{serve_error_body, serve_error_status, ErrorBody, InferApiRequest, InferApiResponse};
pub use ratelimit::{RateConfig, RateLimiter};
pub use registry::{ModelEntry, ModelRegistry, ModelSource, ModelSpec, RegistryError};
pub use server::{HttpConfig, HttpServer};
