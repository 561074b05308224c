//! The serving engine: admission → SLO-aware queue → micro-batcher →
//! worker pool → per-request responses.
//!
//! ```text
//!  clients ──submit──▶ [BudgetMapper] ─▶ [ShedConfig] ─▶ [SloQueue] ──pop──▶ workers (N replicas)
//!                          │ infeasible      │ shed          │ full / expired     │
//!                          ▼ typed reject    ▼ typed reject  ▼ typed reject       ▼ batch = what is queued,
//!                                            │ degrade                         ≤ max_batch
//!                                            ▼ cheaper schedule                   │
//!                        responses ◀── per-item logits + achieved FLOPs ◀─────────┘
//!                                            │
//!                                       [ServeMetrics]
//! ```
//!
//! Each worker owns a model replica (clone-per-worker: the [`Network`]
//! forward paths take `&mut self` because they cache activations, so
//! replicas are never shared mutably across threads; see
//! `antidote_models::Network`'s threading notes). What a replica owns is
//! its activations: replicas cloned from one network share its immutable
//! weight buffers, so N workers keep one copy of the weights resident.
//! Workers are work-conserving: a worker blocks for a batch's first
//! request, then takes whatever else is already queued, up to
//! `max_batch`, and launches at once — it never waits for a batch to
//! fill. Batches grow only under load, when requests arrive while every
//! worker is busy.
//!
//! **Overload behavior** (DESIGN.md §12). The queue is SLO-aware
//! ([`SloQueue`]): priority lanes with earliest-deadline-first order, and
//! eager expiry — a request whose deadline passes while queued is failed
//! with a typed [`ServeError::DeadlineExceeded`] at dequeue, never
//! occupying a batch slot. Admission consults the degrade-before-shed
//! policy ([`ShedConfig`]): under queue pressure, requests are first
//! degraded to cheaper [`PruneSchedule`] scales (serve at reduced MACs
//! rather than fail), then — above the shed watermark — low-priority
//! requests are rejected with typed [`ServeError::Overloaded`] errors.
//! Chaos mode ([`ChaosConfig`], `ServeConfig::chaos`) periodically panics
//! a worker mid-batch to continuously exercise the panic-containment +
//! replica-rebuild path under load.
//!
//! **Interplay with intra-op threads.** Below the replica level, the
//! conv/GEMM kernels a worker executes fan out over the shared
//! `antidote-par` pool (`ANTIDOTE_THREADS`, see DESIGN.md §10).
//! Replica workers are ordinary threads — not pool tasks — so their
//! kernels *do* use the pool; when `ServeConfig::workers` already
//! saturates the machine, set `ANTIDOTE_THREADS=1` to keep the engine
//! purely throughput-oriented, or lower the worker count and let
//! intra-op parallelism cut per-request latency instead. Results are
//! bit-identical either way.

use crate::budget::{BudgetError, BudgetMapper, BudgetPlan};
use crate::chaos::{ChaosConfig, ChaosMonkey};
use crate::metrics::{ServeMetrics, BATCH_LIVE};
use crate::queue::{PushError, Scheduled, SloQueue};
use crate::shed::{Priority, ShedConfig, ShedDecision};
use antidote_core::report::FailureRecord;
use antidote_core::{DynamicPruner, PruneSchedule};
use antidote_models::Network;
use antidote_nn::masked::MacCounter;
use antidote_obs::{Registry, TraceId, TraceRecord, TraceSpanRec};
use antidote_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds one model replica per worker. Called with the worker index;
/// every call must return an *identical* network (same weights) so that
/// responses do not depend on which worker served the request. Clone
/// one trained network per call (`ModelArtifact::build_network` does):
/// clones share the weight buffers and own only their activations.
pub type ModelFactory = Arc<dyn Fn(usize) -> Box<dyn Network> + Send + Sync>;

/// Numeric domain the model replicas serve in.
///
/// The engine itself is domain-agnostic: the replicas are whatever the
/// model factory builds, and an int8 model is served from an int8
/// `.adm` (`convert --quantize`). The mode records that dtype for
/// reporting; the model registry sets it from the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Serve fp32 replicas (the default).
    #[default]
    Off,
    /// Serve int8 post-training-quantized replicas.
    Int8,
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Off => "off",
            Self::Int8 => "int8",
        })
    }
}

/// Engine configuration: a typed value the embedding program builds
/// (the library reads no environment). [`ServeEngine::start`] validates it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (model replicas).
    pub workers: usize,
    /// Maximum requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Bounded queue capacity (admission control).
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// The most aggressive pruning schedule budgets may scale up to.
    pub base_schedule: PruneSchedule,
    /// The artifact's dtype, set by the registry. Informational: no
    /// factory reads it.
    pub quant: QuantMode,
    /// Degrade-before-shed watermarks.
    pub shed: ShedConfig,
    /// Chaos mode: periodically panic a worker mid-batch to exercise the
    /// recovery path. `None` — the default — is off.
    pub chaos: Option<ChaosConfig>,
    /// Model route label stamped into flight-recorder trace records
    /// (`GET /debug/traces`); empty by default for engines without a
    /// registry name.
    pub label: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 8,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(5),
            base_schedule: PruneSchedule::none(),
            quant: QuantMode::Off,
            shed: ShedConfig::default(),
            chaos: None,
            label: String::new(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeConfigError> {
        if self.workers == 0 {
            return Err(ServeConfigError::ZeroWorkers);
        }
        if self.max_batch == 0 {
            return Err(ServeConfigError::ZeroBatch);
        }
        if self.queue_capacity == 0 {
            return Err(ServeConfigError::ZeroCapacity);
        }
        if !self.shed.is_valid() {
            return Err(ServeConfigError::BadWatermarks);
        }
        Ok(())
    }
}

/// Rejected engine configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `workers` must be ≥ 1.
    ZeroWorkers,
    /// `max_batch` must be ≥ 1.
    ZeroBatch,
    /// `queue_capacity` must be ≥ 1.
    ZeroCapacity,
    /// The shed watermarks must be finite fractions in `(0, 1]` with
    /// `degrade_watermark ≤ shed_watermark`.
    BadWatermarks,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroWorkers => write!(f, "engine needs at least one worker"),
            ServeConfigError::ZeroBatch => write!(f, "max_batch must be at least 1"),
            ServeConfigError::ZeroCapacity => write!(f, "queue capacity must be at least 1"),
            ServeConfigError::BadWatermarks => write!(
                f,
                "shed watermarks must be fractions in (0, 1] with degrade ≤ shed"
            ),
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Fault injection for exercising the engine's failure paths (testing
/// knobs, mirroring the `ANTIDOTE_INJECT_*` convention of the training
/// harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the worker while processing this request's batch.
    Panic,
    /// Stall the worker for this many milliseconds before the forward
    /// pass (simulates a slow batch for deadline/backpressure tests).
    SleepMs(u64),
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// The image, shaped `(C, H, W)` or `(1, C, H, W)`.
    pub input: Tensor,
    /// Per-request compute budget, MACs per image. `None` runs dense.
    pub budget: Option<f64>,
    /// Deadline override; `None` uses the engine default.
    pub deadline: Option<Duration>,
    /// Priority lane for SLO scheduling and shedding order.
    pub priority: Priority,
    /// Fault injection (testing knob; `None` in production).
    pub fault: Option<Fault>,
    /// Trace id for flight recording. `None` lets the engine mint one
    /// when observability is enabled; front-ends that accepted an
    /// inbound `x-antidote-trace` header set it explicitly.
    pub trace: Option<TraceId>,
}

impl InferRequest {
    /// A dense (no budget) request with the default deadline and
    /// [`Priority::Standard`].
    pub fn new(input: Tensor) -> Self {
        Self {
            input,
            budget: None,
            deadline: None,
            priority: Priority::default(),
            fault: None,
            trace: None,
        }
    }

    /// Sets the compute budget in MACs per image.
    pub fn with_budget(mut self, macs: f64) -> Self {
        self.budget = Some(macs);
        self
    }

    /// Sets a per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the priority lane.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a caller-provided trace id.
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// Raw class logits.
    pub logits: Vec<f32>,
    /// `argmax` of the logits.
    pub class: usize,
    /// The request's budget, if any (MACs).
    pub budget: Option<f64>,
    /// Cost the budget planner predicted for this request (MACs).
    pub scheduled_macs: f64,
    /// Cost realized by the masks actually emitted, charged under the
    /// analytic model (MACs). Never exceeds `budget` when one was set.
    pub achieved_macs: f64,
    /// Prune-ratio scale the planner chose (0 = dense).
    pub schedule_scale: f64,
    /// `true` when overload pressure degraded this request to a cheaper
    /// schedule scale than its budget alone would have chosen.
    pub degraded: bool,
    /// The request's priority lane.
    pub priority: Priority,
    /// How many live requests shared this request's forward pass.
    pub batch_size: usize,
    /// Index of the worker that served the request.
    pub worker: usize,
    /// Time from submission to batch launch.
    pub queue_wait: Duration,
    /// Time from submission to response.
    pub latency: Duration,
    /// Trace id the request ran under (the one submitted, or the one
    /// the engine minted when observability was enabled).
    pub trace: Option<TraceId>,
}

/// Typed terminal failures. Every submitted request ends in exactly one
/// [`InferResponse`] or one of these — the engine never drops a request
/// silently.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission rejected: the bounded queue is at capacity with work of
    /// equal or higher priority.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// Admission rejected: the budget is invalid or below the schedule
    /// floor.
    Budget(BudgetError),
    /// Admission rejected: the input tensor is not a single `(C, H, W)`
    /// image of the served model's input shape.
    BadInput {
        /// The offending tensor dimensions.
        dims: Vec<usize>,
    },
    /// Admission rejected: the input holds a NaN or an infinity, which
    /// would turn the request's logits into NaN.
    NonFiniteInput {
        /// Flat index of the first non-finite value.
        index: usize,
    },
    /// The deadline passed while the request was queued or batching. The
    /// request never consumed a batch slot.
    DeadlineExceeded {
        /// How long the request had been waiting when it was dropped.
        waited: Duration,
    },
    /// Load shedding rejected or displaced the request: queue pressure
    /// was above the shed threshold for its priority lane (or a
    /// higher-priority arrival displaced it from a full queue).
    Overloaded {
        /// Queue pressure (depth / capacity) at the shed decision.
        pressure: f64,
        /// The request's priority lane.
        priority: Priority,
    },
    /// The worker processing this request's batch panicked. The engine
    /// replaced the worker's replica and kept serving.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
    },
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The response channel was severed without a response (should not
    /// happen; indicates an engine bug).
    Disconnected,
}

impl ServeError {
    /// Short stage label, mirroring
    /// [`antidote_core::report::FailureRecord`] stages.
    pub fn stage(&self) -> &'static str {
        match self {
            ServeError::QueueFull { .. } => "admission-queue",
            ServeError::Budget(_) => "admission-budget",
            ServeError::BadInput { .. } | ServeError::NonFiniteInput { .. } => "admission-input",
            ServeError::DeadlineExceeded { .. } => "deadline",
            ServeError::Overloaded { .. } => "overload-shed",
            ServeError::WorkerPanicked { .. } => "worker-panic",
            ServeError::ShuttingDown => "shutdown",
            ServeError::Disconnected => "disconnect",
        }
    }

    /// Converts the error into a [`FailureRecord`] row so serving
    /// failures can be reported alongside experiment failures.
    pub fn failure_record(&self, workload: &str) -> FailureRecord {
        FailureRecord {
            workload: workload.to_string(),
            stage: self.stage().to_string(),
            error: self.to_string(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity}); request rejected")
            }
            ServeError::Budget(e) => write!(f, "budget rejected: {e}"),
            ServeError::BadInput { dims } => {
                write!(
                    f,
                    "input must be one (C,H,W) image of the model's input shape, got shape {dims:?}"
                )
            }
            ServeError::NonFiniteInput { index } => {
                write!(f, "input value at flat index {index} is not finite")
            }
            ServeError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after waiting {waited:?}")
            }
            ServeError::Overloaded { pressure, priority } => write!(
                f,
                "overloaded: {priority} request shed at queue pressure {pressure:.2}"
            ),
            ServeError::WorkerPanicked { worker } => {
                write!(f, "worker {worker} panicked while serving this batch")
            }
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Disconnected => write!(f, "response channel disconnected"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BudgetError> for ServeError {
    fn from(e: BudgetError) -> Self {
        ServeError::Budget(e)
    }
}

/// The engine's view of one admitted request.
struct Ticket {
    input: Tensor,
    budget: Option<f64>,
    plan: BudgetPlan,
    priority: Priority,
    degraded: bool,
    fault: Option<Fault>,
    trace: Option<TraceId>,
    enqueued_at: Instant,
    deadline: Instant,
    tx: mpsc::Sender<Result<InferResponse, ServeError>>,
}

impl Ticket {
    /// Admission-decision label for trace records: tickets only exist
    /// for admitted requests, so this is `admit` or `degrade`.
    fn shed_label(&self) -> &'static str {
        if self.degraded {
            "degrade"
        } else {
            "admit"
        }
    }

    /// Starts the flight-recorder view of this ticket: identity,
    /// admission decision, plan, and a synthetic `queue.wait` span
    /// covering `queue_wait`. Callers fill in the outcome and any
    /// execution detail, then hand the record to
    /// [`antidote_obs::record_trace`]. Returns `None` when the ticket
    /// is untraced or observability is off.
    fn trace_record(&self, label: &str, queue_wait: Duration) -> Option<TraceRecord> {
        if !antidote_obs::enabled() {
            return None;
        }
        let tid = self.trace?;
        let qw = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
        let mut rec = TraceRecord::new(&tid.to_hex());
        rec.model = label.to_string();
        rec.priority = self.priority.as_str().to_string();
        rec.shed = self.shed_label().to_string();
        rec.schedule_scale = self.plan.scale;
        rec.degraded = self.degraded;
        rec.budget_macs = self.budget;
        rec.queue_wait_ns = qw;
        rec.total_ns = qw;
        rec.spans.push(TraceSpanRec {
            name: "queue.wait".to_string(),
            start_ns: 0,
            dur_ns: qw,
        });
        Some(rec)
    }
}

impl Scheduled for Ticket {
    fn lane(&self) -> usize {
        self.priority.lane()
    }
    fn deadline(&self) -> Instant {
        self.deadline
    }
}

/// A response that will arrive once a worker serves the request.
#[derive(Debug)]
pub struct PendingResponse {
    rx: mpsc::Receiver<Result<InferResponse, ServeError>>,
}

impl PendingResponse {
    /// Blocks until the request reaches a terminal state.
    ///
    /// # Errors
    ///
    /// The request's typed [`ServeError`] if it was not served.
    pub fn wait(self) -> Result<InferResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<InferResponse, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// Counters every engine registry carries from the start (at 0), so its
/// exposition family set does not depend on which events have happened.
const COUNTERS: [&str; 13] = [
    "completed",
    "rejected_full",
    "expired",
    "shed",
    "evicted",
    "degraded",
    "infeasible",
    "panicked",
    "worker_panics",
    "batches",
    "measured_macs",
    "budgeted",
    "achieved_macs",
];

/// Per-lane admission and shed counters, indexed by [`Priority::lane`].
const ADMITTED: [&str; Priority::COUNT] = [
    "admitted.interactive",
    "admitted.standard",
    "admitted.batch",
];
const SHED: [&str; Priority::COUNT] = ["shed.interactive", "shed.standard", "shed.batch"];

/// The engine's registry with every counter and gauge registered, and
/// the `batch_live.NN` counter names for batch sizes `0..=max_batch`.
fn engine_registry(max_batch: usize) -> (Arc<Registry>, Arc<[String]>) {
    let metrics = Registry::new();
    let batch_live: Arc<[String]> = (0..=max_batch)
        .map(|k| format!("{BATCH_LIVE}{k:02}"))
        .collect();
    for name in COUNTERS.iter().chain(&ADMITTED).chain(&SHED) {
        metrics.counter_add(name, 0);
    }
    for name in batch_live.iter() {
        metrics.counter_add(name, 0);
    }
    metrics.gauge_set("queue_depth", 0.0);
    metrics.gauge_set("chaos_kills", 0.0);
    (Arc::new(metrics), batch_live)
}

/// Fails every swept-out expired ticket with a typed
/// [`ServeError::DeadlineExceeded`] and accounts for them. Shared by
/// admission (sweeps during push) and the worker loop (sweeps during
/// pop), so expired requests get their terminal response from whichever
/// thread discovered them — never stranded behind a blocked worker.
fn fail_expired(metrics: &Registry, label: &str, expired: Vec<Ticket>) {
    if expired.is_empty() {
        return;
    }
    let now = Instant::now();
    metrics.counter_add("expired", expired.len() as u64);
    for t in expired {
        let waited = now.saturating_duration_since(t.enqueued_at);
        if let Some(mut rec) = t.trace_record(label, waited) {
            rec.outcome = "deadline_exceeded".to_string();
            rec.detail = format!("deadline exceeded after waiting {waited:?}");
            antidote_obs::record_trace(rec);
        }
        let _ = t.tx.send(Err(ServeError::DeadlineExceeded { waited }));
    }
}

/// Cloneable client handle: submit requests and read metrics from any
/// thread.
#[derive(Clone)]
pub struct ServeHandle {
    queue: Arc<SloQueue<Ticket>>,
    mapper: Arc<BudgetMapper>,
    metrics: Arc<Registry>,
    /// The served model's `(C, H, W)`; every admitted input has it, so
    /// coalesced batches always concatenate and convolve.
    input_chw: [usize; 3],
    shed: ShedConfig,
    chaos: Option<Arc<ChaosMonkey>>,
    default_deadline: Duration,
    label: Arc<str>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("queue_depth", &self.queue.len())
            .finish()
    }
}

impl ServeHandle {
    /// Admits a request: plans its budget, applies the
    /// degrade-before-shed policy at the current queue pressure, stamps
    /// its deadline, and enqueues it into its priority lane.
    ///
    /// # Errors
    ///
    /// [`ServeError::Budget`], [`ServeError::BadInput`],
    /// [`ServeError::NonFiniteInput`], [`ServeError::Overloaded`],
    /// [`ServeError::QueueFull`], or [`ServeError::ShuttingDown`] — all
    /// decided synchronously at admission.
    pub fn submit(&self, req: InferRequest) -> Result<PendingResponse, ServeError> {
        let mut plan = self.mapper.plan(req.budget).map_err(|e| {
            self.metrics.counter_add("infeasible", 1);
            ServeError::from(e)
        })?;
        let input = normalize_input(req.input, self.input_chw)?;
        let pressure = self.queue.pressure();
        let mut degraded = false;
        match self.shed.decision(pressure, req.priority) {
            ShedDecision::Admit => {}
            ShedDecision::Degrade(floor_scale) => {
                // Only ever prune *more* than the budget plan chose: a
                // request already cheaper than the degrade floor is
                // admitted unchanged, so budgets keep being respected.
                if floor_scale > plan.scale {
                    plan = self.mapper.plan_at_scale(floor_scale);
                    degraded = true;
                }
            }
            ShedDecision::Shed => {
                self.metrics.counter_add("shed", 1);
                self.metrics.counter_add(SHED[req.priority.lane()], 1);
                return Err(ServeError::Overloaded {
                    pressure,
                    priority: req.priority,
                });
            }
        }
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        // A request submitted without a trace id still gets one while
        // observability is on, so the flight recorder sees in-process
        // clients of the engine too.
        let trace = req
            .trace
            .or_else(|| antidote_obs::enabled().then(TraceId::mint));
        let ticket = Ticket {
            input,
            budget: req.budget,
            plan,
            priority: req.priority,
            degraded,
            fault: req.fault,
            trace,
            enqueued_at: now,
            deadline: now + req.deadline.unwrap_or(self.default_deadline),
            tx,
        };
        let push = self.queue.try_push(ticket);
        fail_expired(&self.metrics, &self.label, push.expired);
        match push.result {
            Ok(victim) => {
                self.metrics.counter_add(ADMITTED[req.priority.lane()], 1);
                if degraded {
                    self.metrics.counter_add("degraded", 1);
                }
                if let Some(v) = victim {
                    self.metrics.counter_add("evicted", 1);
                    // Displaced by a higher-priority arrival at a full
                    // queue: a typed overload rejection, not a silent drop.
                    let waited = now.saturating_duration_since(v.enqueued_at);
                    if let Some(mut rec) = v.trace_record(&self.label, waited) {
                        rec.outcome = "overloaded".to_string();
                        rec.detail =
                            "evicted from a full queue by a higher-priority arrival".to_string();
                        antidote_obs::record_trace(rec);
                    }
                    let _ = v.tx.send(Err(ServeError::Overloaded {
                        pressure: 1.0,
                        priority: v.priority,
                    }));
                }
                Ok(PendingResponse { rx })
            }
            Err(PushError::Full(_)) => {
                self.metrics.counter_add("rejected_full", 1);
                Err(ServeError::QueueFull {
                    capacity: self.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Dense (unpruned) cost of one image on the served model, MACs.
    pub fn dense_macs(&self) -> f64 {
        self.mapper.dense_macs()
    }

    /// Cheapest feasible per-image cost under the base schedule, MACs.
    pub fn floor_macs(&self) -> f64 {
        self.mapper.floor_macs()
    }

    /// Current queue pressure (depth / capacity) — the signal driving
    /// the degrade-before-shed policy.
    pub fn pressure(&self) -> f64 {
        self.queue.pressure()
    }

    /// A point-in-time metrics snapshot: sets the `queue_depth` and
    /// `chaos_kills` gauges, then snapshots the engine's registry.
    pub fn metrics(&self) -> ServeMetrics {
        let chaos_kills = self.chaos.as_ref().map_or(0, |m| m.kills());
        self.metrics.gauge_set("queue_depth", self.queue.len() as f64);
        self.metrics.gauge_set("chaos_kills", chaos_kills as f64);
        ServeMetrics::from_snapshot(self.metrics.snapshot())
    }
}

/// Reshapes `(C,H,W)` to `(1,C,H,W)`, rejecting anything that is not
/// one image of the model's `chw` (a wrong-shape input admitted here
/// would panic the worker and fail every request coalesced with it) and
/// any input holding a NaN or an infinity.
fn normalize_input(input: Tensor, chw: [usize; 3]) -> Result<Tensor, ServeError> {
    let dims = input.dims().to_vec();
    let batched = [1, chw[0], chw[1], chw[2]];
    let input = if dims == batched {
        input
    } else if dims == chw {
        input
            .reshape(&batched)
            .map_err(|_| ServeError::BadInput { dims })?
    } else {
        return Err(ServeError::BadInput { dims });
    };
    // A scan without early exit vectorizes: 0.47 µs against 1.15 µs
    // for `position` on a 3×32×32 image (x86-64 baseline target). The
    // index is looked up only for a rejected input.
    let data = input.data();
    if data.iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Ok(input);
    }
    let index = data
        .iter()
        .position(|v| !v.is_finite())
        .expect("the scan found a non-finite value");
    Err(ServeError::NonFiniteInput { index })
}

/// The running engine: owns the worker threads.
pub struct ServeEngine {
    handle: ServeHandle,
    queue: Arc<SloQueue<Ticket>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue.len())
            .finish()
    }
}

impl ServeEngine {
    /// Starts the worker pool. `factory` is called once per worker to
    /// build its replica — weights shared when the factory clones one
    /// network, activations always private (worker 0's replica is also
    /// probed for the model's conv shapes and taps, which parameterize
    /// the budget mapper and fix the `(C, H, W)` admission accepts).
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] for zero-sized workers/batch/queue or
    /// invalid shed watermarks.
    ///
    /// # Panics
    ///
    /// Panics if the factory's model has no conv layer or disagrees with
    /// its own conv-shape description (see [`BudgetMapper::new`]), or if
    /// a worker thread cannot be spawned.
    pub fn start(cfg: ServeConfig, factory: ModelFactory) -> Result<Self, ServeConfigError> {
        cfg.validate()?;
        let probe = factory(0);
        let conv_shapes = probe.conv_shapes();
        let first = conv_shapes.first().expect("served model has a conv layer");
        let input_chw = [first.in_channels, first.spatial, first.spatial];
        let mapper = Arc::new(BudgetMapper::new(
            conv_shapes,
            probe.taps(),
            cfg.base_schedule.clone(),
        ));
        let queue = Arc::new(SloQueue::new(cfg.queue_capacity, Priority::COUNT));
        let (metrics, batch_live) = engine_registry(cfg.max_batch);
        let label: Arc<str> = Arc::from(cfg.label.as_str());
        let monkey = cfg
            .chaos
            .map(|chaos| Arc::new(ChaosMonkey::new(chaos, cfg.workers)));
        let mut replicas = vec![probe];
        for w in 1..cfg.workers {
            replicas.push(factory(w));
        }
        let workers = replicas
            .into_iter()
            .enumerate()
            .map(|(id, replica)| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let batch_live = Arc::clone(&batch_live);
                let mapper = Arc::clone(&mapper);
                let factory = Arc::clone(&factory);
                let monkey = monkey.clone();
                let label = Arc::clone(&label);
                let max_batch = cfg.max_batch;
                std::thread::Builder::new()
                    .name(format!("antidote-serve-{id}"))
                    .spawn(move || {
                        worker_loop(
                            id, replica, factory, queue, metrics, batch_live, mapper, monkey,
                            label, max_batch,
                        )
                    })
                    .expect("failed to spawn serve worker")
            })
            .collect();
        let handle = ServeHandle {
            queue: Arc::clone(&queue),
            mapper,
            metrics,
            input_chw,
            shed: cfg.shed,
            chaos: monkey,
            default_deadline: cfg.default_deadline,
            label,
        };
        Ok(Self {
            handle,
            queue,
            workers,
        })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        self.handle.metrics()
    }

    /// Graceful shutdown: stops admission, drains the queue, joins the
    /// workers, and returns the final metrics snapshot.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.handle.metrics()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One worker: pop → take what is queued → (maybe) fail injected faults →
/// forward → respond. Panics — injected, chaos-induced, or genuine — are
/// contained per batch; the replica is rebuilt from the factory afterwards
/// so later batches never see a half-updated model. Expired requests
/// swept out by the queue are failed with typed errors as soon as they
/// surface and never occupy a batch slot.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    id: usize,
    mut model: Box<dyn Network>,
    factory: ModelFactory,
    queue: Arc<SloQueue<Ticket>>,
    metrics: Arc<Registry>,
    batch_live: Arc<[String]>,
    mapper: Arc<BudgetMapper>,
    monkey: Option<Arc<ChaosMonkey>>,
    label: Arc<str>,
    max_batch: usize,
) {
    loop {
        // Block for the batch's first request, delivering typed errors
        // for any expired entries the queue sweeps out while we wait.
        let first = loop {
            let pop = queue.pop();
            fail_expired(&metrics, &label, pop.expired);
            if let Some(t) = pop.item {
                break t;
            }
            if pop.closed {
                return;
            }
        };
        // Work-conserving: the batch is what is already queued, up to
        // max_batch; waiting for more would only delay the first request.
        let mut batch = vec![first];
        while batch.len() < max_batch {
            let pop = queue.try_pop();
            fail_expired(&metrics, &label, pop.expired);
            match pop.item {
                Some(t) => batch.push(t),
                None => break,
            }
        }
        let launched_at = Instant::now();
        let (live, expired): (Vec<Ticket>, Vec<Ticket>) =
            batch.into_iter().partition(|t| t.deadline >= launched_at);
        // The running batch count is the batch id: 1-based and unique
        // across workers.
        metrics.counter_add("expired", expired.len() as u64);
        let batch_id = metrics.counter_add("batches", 1);
        if let Some(name) = batch_live.get(live.len()) {
            metrics.counter_add(name, 1);
        }
        for t in expired {
            let waited = launched_at.duration_since(t.enqueued_at);
            if let Some(mut rec) = t.trace_record(&label, waited) {
                rec.outcome = "deadline_exceeded".to_string();
                rec.detail = format!("deadline passed at batch launch after {waited:?}");
                antidote_obs::record_trace(rec);
            }
            let _ = t.tx.send(Err(ServeError::DeadlineExceeded { waited }));
        }
        if live.is_empty() {
            continue; // zero-size batch: nothing left to run
        }

        let inputs: Vec<&Tensor> = live.iter().map(|t| &t.input).collect();
        let schedules: Vec<PruneSchedule> =
            live.iter().map(|t| t.plan.schedule.clone()).collect();
        let inject_panic = live.iter().any(|t| matches!(t.fault, Some(Fault::Panic)));
        let stall_ms: u64 = live
            .iter()
            .filter_map(|t| match t.fault {
                Some(Fault::SleepMs(ms)) => Some(ms),
                _ => None,
            })
            .sum();
        // Capture this thread's spans and counters for the batch when
        // any live ticket is traced — the forward pass's per-layer
        // `fwd.layerNN` spans and `.macs` counters are mirrored into
        // the collector and stitched into each request's trace record.
        let tracing = antidote_obs::enabled() && live.iter().any(|t| t.trace.is_some());
        if tracing {
            antidote_obs::collect_begin();
        }
        let _busy = antidote_obs::span(format!("serve.worker{id:02}.busy"));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if stall_ms > 0 {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            assert!(!inject_panic, "injected worker fault");
            if let Some(m) = &monkey {
                assert!(!m.should_kill(id), "chaos-induced replica kill");
            }
            let batch_input =
                Tensor::concat0(&inputs).expect("admitted inputs share one shape");
            let mut pruner = DynamicPruner::per_item(schedules);
            let mut counter = MacCounter::new();
            let logits = model.forward_measured(&batch_input, &mut pruner, &mut counter);
            (logits, pruner, counter.total())
        }));
        // Take the capture whether the batch succeeded or panicked —
        // span guards dropped during unwinding still mirrored in, so a
        // panicked batch's partial span tree survives into its records.
        let collected = if tracing {
            antidote_obs::collect_end()
        } else {
            None
        };
        // Per-batch spans/counters are shared by every request in the
        // batch; each traced ticket gets the full set, offset past its
        // own queue wait so offsets stay request-relative.
        let live_count = live.len() as u64;
        let stitch = |rec: &mut TraceRecord| {
            rec.batch_id = batch_id;
            rec.batch_occupancy = live_count;
            rec.worker = Some(id as u64);
            if let Some(c) = &collected {
                rec.spans.extend(c.spans.iter().map(|s| TraceSpanRec {
                    name: s.name.clone(),
                    start_ns: rec.queue_wait_ns.saturating_add(s.start_ns),
                    dur_ns: s.dur_ns,
                }));
                rec.counters = c.counters.clone();
            }
        };

        match outcome {
            Ok((logits, pruner, measured_macs)) => {
                let fractions = pruner.keep_fractions();
                let now = Instant::now();
                let n = live.len();
                let achieved: Vec<f64> =
                    fractions.iter().map(|f| mapper.macs_from_fractions(f)).collect();
                // Account the batch before any response goes out, so a
                // client reading metrics after its response sees itself.
                metrics.counter_add("measured_macs", measured_macs);
                metrics.counter_add("completed", n as u64);
                metrics.counter_add(
                    "budgeted",
                    live.iter().filter(|t| t.budget.is_some()).count() as u64,
                );
                metrics.counter_add(
                    "achieved_macs",
                    achieved.iter().map(|a| a.round() as u64).sum(),
                );
                let ms = |since: Instant, t: &Ticket| {
                    since.duration_since(t.enqueued_at).as_secs_f64() * 1e3
                };
                for t in &live {
                    metrics.hist_record("latency_ms", ms(now, t));
                    metrics.hist_record("queue_wait_ms", ms(launched_at, t));
                }
                for (i, t) in live.into_iter().enumerate() {
                    let item = logits.batch_item(i);
                    let achieved = achieved[i];
                    let latency = now.duration_since(t.enqueued_at);
                    let queue_wait = launched_at.duration_since(t.enqueued_at);
                    if let Some(mut rec) = t.trace_record(&label, queue_wait) {
                        rec.achieved_macs = achieved;
                        rec.total_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
                        rec.keep_fractions =
                            fractions[i].iter().flat_map(|&(c, s)| [c, s]).collect();
                        stitch(&mut rec);
                        antidote_obs::record_trace(rec);
                    }
                    let response = InferResponse {
                        class: item.argmax(),
                        logits: item.into_vec(),
                        budget: t.budget,
                        scheduled_macs: t.plan.predicted_macs,
                        achieved_macs: achieved,
                        schedule_scale: t.plan.scale,
                        degraded: t.degraded,
                        priority: t.priority,
                        batch_size: n,
                        worker: id,
                        queue_wait,
                        latency,
                        trace: t.trace,
                    };
                    let _ = t.tx.send(Ok(response));
                }
            }
            Err(_) => {
                metrics.counter_add("worker_panics", 1);
                metrics.counter_add("panicked", live.len() as u64);
                let now = Instant::now();
                for t in live {
                    let waited = now.saturating_duration_since(t.enqueued_at);
                    if let Some(mut rec) = t.trace_record(&label, waited) {
                        rec.outcome = "worker_panicked".to_string();
                        rec.detail = format!("worker {id} panicked while serving this batch");
                        stitch(&mut rec);
                        antidote_obs::record_trace(rec);
                    }
                    let _ = t.tx.send(Err(ServeError::WorkerPanicked { worker: id }));
                }
                // The old replica may hold half-written caches; rebuild.
                model = factory(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(ServeConfig { workers: 0, ..ServeConfig::default() }
            .validate()
            .is_err());
        assert!(ServeConfig { max_batch: 0, ..ServeConfig::default() }
            .validate()
            .is_err());
        assert!(ServeConfig { queue_capacity: 0, ..ServeConfig::default() }
            .validate()
            .is_err());
        assert_eq!(
            ServeConfig {
                shed: ShedConfig { degrade_watermark: 0.9, shed_watermark: 0.5 },
                ..ServeConfig::default()
            }
            .validate(),
            Err(ServeConfigError::BadWatermarks)
        );
        assert!(ServeConfig::default().validate().is_ok());
        assert_eq!(
            ServeConfigError::ZeroWorkers.to_string(),
            "engine needs at least one worker"
        );
        assert!(ServeConfigError::BadWatermarks.to_string().contains("watermarks"));
    }

    #[test]
    fn quant_mode_parses_and_roundtrips() {
        assert_eq!(QuantMode::Int8.to_string(), "int8");
        assert_eq!(QuantMode::default(), QuantMode::Off);
    }

    #[test]
    fn normalize_input_accepts_only_one_image_of_the_model_shape() {
        let chw = [3, 8, 8];
        for ok in [Tensor::zeros([3, 8, 8]), Tensor::zeros([1, 3, 8, 8])] {
            assert_eq!(normalize_input(ok, chw).unwrap().dims(), &[1, 3, 8, 8]);
        }
        for bad in [
            Tensor::zeros([2, 3, 8, 8]),
            Tensor::zeros([8, 8]),
            Tensor::zeros([1, 8, 8]),
            Tensor::zeros([1, 3, 8, 4]),
        ] {
            let dims = bad.dims().to_vec();
            assert_eq!(
                normalize_input(bad, chw),
                Err(ServeError::BadInput { dims })
            );
        }
    }

    #[test]
    fn error_stages_and_failure_records() {
        let e = ServeError::DeadlineExceeded {
            waited: Duration::from_millis(7),
        };
        assert_eq!(e.stage(), "deadline");
        let rec = e.failure_record("engine");
        assert_eq!(rec.stage, "deadline");
        assert!(rec.error.contains("deadline exceeded"));
        assert_eq!(
            ServeError::QueueFull { capacity: 4 }.stage(),
            "admission-queue"
        );
        assert_eq!(
            ServeError::Budget(BudgetError::Invalid { budget: -1.0 }).stage(),
            "admission-budget"
        );
        assert_eq!(ServeError::WorkerPanicked { worker: 3 }.stage(), "worker-panic");
        let shed = ServeError::Overloaded {
            pressure: 0.9,
            priority: Priority::Batch,
        };
        assert_eq!(shed.stage(), "overload-shed");
        assert!(shed.to_string().contains("batch request shed"));
    }

    #[test]
    fn request_builder_sets_priority() {
        let req = InferRequest::new(Tensor::zeros([3, 8, 8]));
        assert_eq!(req.priority, Priority::Standard);
        let req = req.with_priority(Priority::Interactive);
        assert_eq!(req.priority, Priority::Interactive);
    }
}
