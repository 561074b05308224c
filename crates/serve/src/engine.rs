//! The serving engine: admission → SLO-aware queue → micro-batcher →
//! worker pool → per-request responses.
//!
//! ```text
//!  clients ──submit──▶ [BudgetMapper] ─▶ [ShedConfig] ─▶ [SloQueue] ──pop──▶ workers (N replicas)
//!                          │ infeasible      │ shed          │ full / expired     │
//!                          ▼ typed reject    ▼ typed reject  ▼ typed reject       ▼ batch ≤ max_batch,
//!                                            │ degrade                       window ≤ max_wait
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
//! Workers coalesce
//! requests into micro-batches: the batch window opens when the first
//! request is popped and closes after `max_wait` or when `max_batch`
//! requests have been collected, whichever is first. Waiting overlaps
//! with other workers' compute, which is why multiple workers raise
//! throughput even on a single core.
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
//! Chaos mode ([`ChaosConfig`], `ANTIDOTE_CHAOS_*`) periodically panics
//! a worker mid-batch to continuously exercise the panic-containment +
//! replica-rebuild path under load.
//!
//! **Interplay with intra-op threads.** Below the replica level, the
//! conv/GEMM kernels a worker executes fan out over the shared
//! `antidote-par` pool (`ANTIDOTE_THREADS`, see DESIGN.md §10).
//! Replica workers are ordinary threads — not pool tasks — so their
//! kernels *do* use the pool; when `ANTIDOTE_SERVE_WORKERS` already
//! saturates the machine, set `ANTIDOTE_THREADS=1` to keep the engine
//! purely throughput-oriented, or lower the worker count and let
//! intra-op parallelism cut per-request latency instead. Results are
//! bit-identical either way.

use crate::batch::MixedBatchPruner;
use crate::budget::{BudgetError, BudgetMapper, BudgetPlan};
use crate::chaos::{ChaosConfig, ChaosMonkey};
use crate::metrics::{MetricsState, ServeMetrics};
use crate::queue::{PushError, Scheduled, SloQueue};
use crate::shed::{Priority, ShedConfig, ShedDecision};
use antidote_core::report::FailureRecord;
use antidote_core::PruneSchedule;
use antidote_models::Network;
use antidote_nn::masked::MacCounter;
use antidote_obs::{TraceId, TraceRecord, TraceSpanRec};
use antidote_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
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
/// [`QuantMode::Int8`] asks the operator's model factory to build
/// int8-quantized replicas (`antidote_models::Vgg::quantize`); the
/// engine itself is domain-agnostic — the mode is configuration that
/// factories consult, which keeps quantization strictly a deployment
/// decision (see DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Serve fp32 replicas (the default).
    #[default]
    Off,
    /// Serve int8 post-training-quantized replicas.
    Int8,
}

impl std::str::FromStr for QuantMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "fp32" => Ok(Self::Off),
            "int8" => Ok(Self::Int8),
            other => Err(format!("unknown quant mode `{other}`")),
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Off => "off",
            Self::Int8 => "int8",
        })
    }
}

/// Engine configuration. Environment overrides use the
/// `ANTIDOTE_SERVE_*` knobs (see [`ServeConfig::from_env`]), consistent
/// with the repo-wide `ANTIDOTE_*` convention.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (model replicas).
    pub workers: usize,
    /// Maximum requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Batch window: how long a worker waits for the batch to fill after
    /// popping its first request.
    pub max_wait: Duration,
    /// Bounded queue capacity (admission control).
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// The most aggressive pruning schedule budgets may scale up to.
    pub base_schedule: PruneSchedule,
    /// Numeric domain for model replicas (`ANTIDOTE_SERVE_QUANT`).
    pub quant: QuantMode,
    /// Degrade-before-shed watermarks
    /// (`ANTIDOTE_SERVE_SHED_DEGRADE_WATERMARK` /
    /// `ANTIDOTE_SERVE_SHED_WATERMARK`).
    pub shed: ShedConfig,
    /// Chaos mode: periodically panic a worker mid-batch to exercise the
    /// recovery path (`ANTIDOTE_CHAOS_*`). `None` — the default — is off.
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
            max_wait: Duration::from_millis(2),
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
    /// Reads overrides from the environment on top of the defaults:
    ///
    /// - `ANTIDOTE_SERVE_WORKERS` — worker threads;
    /// - `ANTIDOTE_SERVE_MAX_BATCH` — batch size ceiling;
    /// - `ANTIDOTE_SERVE_MAX_WAIT_MS` — batch window, milliseconds;
    /// - `ANTIDOTE_SERVE_QUEUE_CAP` — queue capacity;
    /// - `ANTIDOTE_SERVE_DEADLINE_MS` — default request deadline, ms;
    /// - `ANTIDOTE_SERVE_QUANT` — replica numeric domain, `off` (or
    ///   `fp32`) / `int8`, case-insensitive;
    /// - `ANTIDOTE_SERVE_SHED_DEGRADE_WATERMARK` /
    ///   `ANTIDOTE_SERVE_SHED_WATERMARK` — degrade-before-shed pressure
    ///   watermarks, fractions of queue capacity in `(0, 1]`;
    /// - `ANTIDOTE_CHAOS_KILL_EVERY_MS` / `ANTIDOTE_CHAOS_KILLS` /
    ///   `ANTIDOTE_CHAOS_SEED` — chaos mode (see
    ///   [`ChaosConfig::from_env`]).
    ///
    /// Unparseable or zero values are ignored with a warning on stderr,
    /// keeping the defaults (the shared warn-and-ignore convention of
    /// [`antidote_obs::env`]).
    pub fn from_env() -> Self {
        Self::default().with_env_overrides()
    }

    /// Applies the `ANTIDOTE_SERVE_*` environment overrides (see
    /// [`ServeConfig::from_env`]) on top of `self`, so binaries can set
    /// their own defaults while staying operator-tunable.
    pub fn with_env_overrides(mut self) -> Self {
        let positive = antidote_obs::env::positive::<u64>;
        if let Some(v) = positive("ANTIDOTE_SERVE_WORKERS") {
            self.workers = v as usize;
        }
        if let Some(v) = positive("ANTIDOTE_SERVE_MAX_BATCH") {
            self.max_batch = v as usize;
        }
        if let Some(v) = positive("ANTIDOTE_SERVE_MAX_WAIT_MS") {
            self.max_wait = Duration::from_millis(v);
        }
        if let Some(v) = positive("ANTIDOTE_SERVE_QUEUE_CAP") {
            self.queue_capacity = v as usize;
        }
        if let Some(v) = positive("ANTIDOTE_SERVE_DEADLINE_MS") {
            self.default_deadline = Duration::from_millis(v);
        }
        if let Ok(raw) = std::env::var("ANTIDOTE_SERVE_QUANT") {
            match raw.parse::<QuantMode>() {
                Ok(mode) => self.quant = mode,
                Err(_) => {
                    antidote_obs::env::warn_ignored(
                        "ANTIDOTE_SERVE_QUANT",
                        &raw,
                        "must be `off` (or `fp32`) or `int8`",
                    );
                }
            }
        }
        for (key, slot) in [
            (
                "ANTIDOTE_SERVE_SHED_DEGRADE_WATERMARK",
                &mut self.shed.degrade_watermark,
            ),
            ("ANTIDOTE_SERVE_SHED_WATERMARK", &mut self.shed.shed_watermark),
        ] {
            if let Some(v) = antidote_obs::env::positive::<f64>(key) {
                if v <= 1.0 {
                    *slot = v;
                } else {
                    antidote_obs::env::warn_ignored(
                        key,
                        &v.to_string(),
                        "must be a fraction of capacity in (0, 1]",
                    );
                }
            }
        }
        if let Some(chaos) = ChaosConfig::from_env() {
            self.chaos = Some(chaos);
        }
        self
    }

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
            ServeError::BadInput { .. } => "admission-input",
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

/// Fails every swept-out expired ticket with a typed
/// [`ServeError::DeadlineExceeded`] and accounts for them. Shared by
/// admission (sweeps during push) and the worker loop (sweeps during
/// pop), so expired requests get their terminal response from whichever
/// thread discovered them — never stranded behind a blocked worker.
fn fail_expired(metrics: &Mutex<MetricsState>, label: &str, expired: Vec<Ticket>) {
    if expired.is_empty() {
        return;
    }
    let now = Instant::now();
    MetricsState::lock(metrics).expired += expired.len() as u64;
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
    metrics: Arc<Mutex<MetricsState>>,
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
    /// [`ServeError::Overloaded`], [`ServeError::QueueFull`], or
    /// [`ServeError::ShuttingDown`] — all decided synchronously at
    /// admission.
    pub fn submit(&self, req: InferRequest) -> Result<PendingResponse, ServeError> {
        let mut plan = self.mapper.plan(req.budget).map_err(|e| {
            MetricsState::lock(&self.metrics).infeasible += 1;
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
                {
                    let mut m = MetricsState::lock(&self.metrics);
                    m.shed += 1;
                    m.shed_by_lane[req.priority.lane()] += 1;
                }
                if antidote_obs::enabled() {
                    antidote_obs::counter_add("serve.shed", 1);
                }
                return Err(ServeError::Overloaded {
                    pressure,
                    priority: req.priority,
                });
            }
        }
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        // A request submitted without a trace id still gets one while
        // observability is on, so the flight recorder sees engine-only
        // clients (serve_bench) too.
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
                {
                    let mut m = MetricsState::lock(&self.metrics);
                    m.admitted_by_lane[req.priority.lane()] += 1;
                    if degraded {
                        m.degraded += 1;
                    }
                    if victim.is_some() {
                        m.evicted += 1;
                    }
                }
                if let Some(v) = victim {
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
                MetricsState::lock(&self.metrics).rejected_full += 1;
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

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        let chaos_kills = self.chaos.as_ref().map_or(0, |m| m.kills());
        MetricsState::lock(&self.metrics).snapshot(self.queue.len(), chaos_kills)
    }
}

/// Reshapes `(C,H,W)` to `(1,C,H,W)`, rejecting anything that is not
/// one image of the model's `chw`: a wrong-shape input admitted here
/// would panic the worker and fail every request coalesced with it.
fn normalize_input(input: Tensor, chw: [usize; 3]) -> Result<Tensor, ServeError> {
    let dims = input.dims().to_vec();
    let batched = [1, chw[0], chw[1], chw[2]];
    if dims == batched {
        Ok(input)
    } else if dims == chw {
        input
            .reshape(&batched)
            .map_err(|_| ServeError::BadInput { dims })
    } else {
        Err(ServeError::BadInput { dims })
    }
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
        let metrics = Arc::new(Mutex::new(MetricsState::new(cfg.max_batch)));
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
                let mapper = Arc::clone(&mapper);
                let factory = Arc::clone(&factory);
                let monkey = monkey.clone();
                let label = Arc::clone(&label);
                let max_batch = cfg.max_batch;
                let max_wait = cfg.max_wait;
                std::thread::Builder::new()
                    .name(format!("antidote-serve-{id}"))
                    .spawn(move || {
                        worker_loop(
                            id, replica, factory, queue, metrics, mapper, monkey, label,
                            max_batch, max_wait,
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

/// One worker: pop → coalesce → (maybe) fail injected faults → forward →
/// respond. Panics — injected, chaos-induced, or genuine — are contained
/// per batch; the replica is rebuilt from the factory afterwards so later
/// batches never see a half-updated model. Expired requests swept out by
/// the queue are failed with typed errors as soon as they surface and
/// never occupy a batch slot.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    id: usize,
    mut model: Box<dyn Network>,
    factory: ModelFactory,
    queue: Arc<SloQueue<Ticket>>,
    metrics: Arc<Mutex<MetricsState>>,
    mapper: Arc<BudgetMapper>,
    monkey: Option<Arc<ChaosMonkey>>,
    label: Arc<str>,
    max_batch: usize,
    max_wait: Duration,
) {
    loop {
        // Block for the batch's first request, delivering typed errors
        // for any expired entries the queue sweeps out while we wait.
        let first = loop {
            let pop = queue.pop_until(None);
            fail_expired(&metrics, &label, pop.expired);
            if let Some(t) = pop.item {
                break t;
            }
            if pop.closed {
                return;
            }
        };
        // The batch window opens with the first request and closes after
        // max_wait or once the batch is full.
        let window_end = Instant::now() + max_wait;
        let mut batch = vec![first];
        while batch.len() < max_batch {
            let pop = queue.pop_until(Some(window_end));
            fail_expired(&metrics, &label, pop.expired);
            match pop.item {
                Some(t) => batch.push(t),
                // An empty pop with expired entries returned early so
                // their rejections went out promptly; keep collecting
                // until the window genuinely closes.
                None if pop.closed || Instant::now() >= window_end => break,
                None => {}
            }
        }
        let launched_at = Instant::now();
        let (live, expired): (Vec<Ticket>, Vec<Ticket>) =
            batch.into_iter().partition(|t| t.deadline >= launched_at);
        let batch_id = {
            let mut m = MetricsState::lock(&metrics);
            m.expired += expired.len() as u64;
            m.record_batch(live.len())
        };
        if antidote_obs::enabled() {
            // Queue depth at batch launch plus per-worker live-batch-size
            // histogram; together with the per-worker busy span below
            // these expose backlog and worker utilization.
            antidote_obs::gauge_set("serve.queue_depth", queue.len() as f64);
            antidote_obs::hist_record(
                &format!("serve.worker{id:02}.batch_live"),
                live.len() as f64,
            );
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
        let tap_count = mapper.tap_count();
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
            let mut hook = MixedBatchPruner::new(schedules, tap_count);
            let mut counter = MacCounter::new();
            let logits = model.forward_measured(&batch_input, &mut hook, &mut counter);
            (logits, hook.into_fractions(), counter.total())
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
            Ok((logits, fractions, measured_macs)) => {
                let now = Instant::now();
                let n = live.len();
                let mut m = MetricsState::lock(&metrics);
                m.measured_macs_total += measured_macs;
                for (i, t) in live.into_iter().enumerate() {
                    let item = logits.batch_item(i);
                    let achieved = mapper.macs_from_fractions(&fractions[i]);
                    let latency = now.duration_since(t.enqueued_at);
                    let queue_wait = launched_at.duration_since(t.enqueued_at);
                    m.record_completion(latency, queue_wait, achieved, t.budget);
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
                {
                    let mut m = MetricsState::lock(&metrics);
                    m.worker_panics += 1;
                    m.panicked += live.len() as u64;
                }
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
        assert_eq!("off".parse::<QuantMode>(), Ok(QuantMode::Off));
        assert_eq!("FP32".parse::<QuantMode>(), Ok(QuantMode::Off));
        assert_eq!("Int8".parse::<QuantMode>(), Ok(QuantMode::Int8));
        assert!("int4".parse::<QuantMode>().is_err());
        assert_eq!(QuantMode::Int8.to_string(), "int8");
        assert_eq!(QuantMode::default(), QuantMode::Off);
    }

    #[test]
    fn quant_env_override_applies_and_bad_values_keep_default() {
        // Env vars are process-global: use a dedicated knob-free default
        // config and set/remove the variable inside one test only.
        std::env::set_var("ANTIDOTE_SERVE_QUANT", "int8");
        assert_eq!(
            ServeConfig::default().with_env_overrides().quant,
            QuantMode::Int8
        );
        std::env::set_var("ANTIDOTE_SERVE_QUANT", "int999");
        assert_eq!(
            ServeConfig::default().with_env_overrides().quant,
            QuantMode::Off
        );
        std::env::remove_var("ANTIDOTE_SERVE_QUANT");
        assert_eq!(
            ServeConfig::default().with_env_overrides().quant,
            QuantMode::Off
        );
    }

    #[test]
    fn shed_and_chaos_env_overrides_apply() {
        std::env::set_var("ANTIDOTE_SERVE_SHED_DEGRADE_WATERMARK", "0.3");
        std::env::set_var("ANTIDOTE_SERVE_SHED_WATERMARK", "0.6");
        std::env::set_var("ANTIDOTE_CHAOS_KILL_EVERY_MS", "25");
        let cfg = ServeConfig::default().with_env_overrides();
        assert_eq!(cfg.shed.degrade_watermark, 0.3);
        assert_eq!(cfg.shed.shed_watermark, 0.6);
        assert_eq!(
            cfg.chaos.map(|c| c.kill_every),
            Some(Duration::from_millis(25))
        );
        // Out-of-range watermark (> 1) is warn-and-ignored.
        std::env::set_var("ANTIDOTE_SERVE_SHED_WATERMARK", "1.5");
        let cfg = ServeConfig::default().with_env_overrides();
        assert_eq!(cfg.shed.shed_watermark, ShedConfig::default().shed_watermark);
        std::env::remove_var("ANTIDOTE_SERVE_SHED_DEGRADE_WATERMARK");
        std::env::remove_var("ANTIDOTE_SERVE_SHED_WATERMARK");
        std::env::remove_var("ANTIDOTE_CHAOS_KILL_EVERY_MS");
        let cfg = ServeConfig::default().with_env_overrides();
        assert_eq!(cfg.shed, ShedConfig::default());
        assert_eq!(cfg.chaos, None);
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
        let rec = e.failure_record("serve_bench");
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
