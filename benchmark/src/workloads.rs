//! The five workloads. Each sets the system up from `.adm` files (or a
//! generated dataset), drives it for about `--seconds`, verifies every
//! output, and returns either the end-to-end metrics (tracing off) or
//! the per-layer metrics of a shorter traced run.

use crate::client::{engine_request, render_plan, EngineClient, HttpClient};
use crate::layers;
use crate::load::{closed_loop, request_plan, Client, Phase, ReqSpec, Tracing};
use crate::models::{
    fp32_artifact, input_pool, int8_twin, start_registry, table1_schedule, Pool, Scratch, Tier,
    IMAGE,
};
use crate::spans::{Recorder, Span};
use crate::spec::{LADDER_RATES, RUN_SECONDS};
use crate::stats;
use crate::verify::{Checker, Observed, References};
use crate::Metrics;
use antidote_http::{HttpConfig, HttpServer, ModelRegistry, RateConfig};
use antidote_models::VggConfig;
use antidote_serve::{ServeConfig, ServeError, ServeHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Fewest and most set-ups timed per end-to-end run; `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 3;
const SETUP_REPEATS_MAX: usize = 15;
/// Every this-many-th request of an `http_vgg_mixed` client is preceded
/// by a `GET /metrics`.
const SCRAPE_EVERY: usize = 500;
/// Open-loop deadline and latency limit, from each request's due time.
const SLO: Duration = Duration::from_millis(100);
const TRAIN_EPOCHS: usize = 12;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunOpts {
    /// Share of the default run length this run was asked for.
    fn scale(&self) -> f64 {
        self.seconds / RUN_SECONDS as f64
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// The traced run's spans (empty with tracing off).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// No output broke its contract; anything else is a non-zero exit.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Load-generating threads and connections: `min(nproc, 4)`.
pub fn clients() -> usize {
    antidote_par::available().min(4)
}

/// Sets the workload up repeatedly, each time on a fresh model directory,
/// and returns the last result with the median set-up seconds: at least
/// [`SETUP_REPEATS`] times, and on until a second is spent (at most
/// [`SETUP_REPEATS_MAX`] times), so a set-up of milliseconds still has a
/// steady median. Once when tracing or under half the default length.
fn timed_setup<T>(
    opts: &RunOpts,
    scratch: &Scratch,
    mut setup: impl FnMut(&Path) -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let once = opts.trace || opts.scale() < 0.5;
    let mut seconds: Vec<f64> = Vec::new();
    loop {
        let dir = scratch.dir("models");
        let start = Instant::now();
        let built = setup(&dir);
        seconds.push(start.elapsed().as_secs_f64());
        let enough = seconds.len() >= SETUP_REPEATS && seconds.iter().sum::<f64>() >= 1.0;
        if once || enough || seconds.len() >= SETUP_REPEATS_MAX {
            Scratch::flush(&dir);
            return (built, stats::median(&seconds));
        }
        teardown(built);
    }
}

fn set(metrics: &mut Metrics, name: &str, value: f64) {
    metrics.insert(name.to_string(), value);
}

/// The three latency-and-rate end-to-end metrics of a closed-loop phase.
fn closed_loop_end_to_end(phase: &Phase, metrics: &mut Metrics) {
    let (p95, beyond) = phase.rtt_percentile_ms(95.0);
    set(metrics, "throughput_rps", phase.throughput_rps());
    set(metrics, "latency_p50_ms", phase.rtt_percentile_ms(50.0).0);
    set(metrics, "latency_p95_ms", p95);
    eprintln!(
        "samples: {} verified requests in {} rounds, {beyond} beyond the reported p95",
        phase.samples().count(),
        phase.rounds.len()
    );
}

/// Per-layer metrics every closed-loop serving workload derives from
/// its traced phase and the untraced baseline before it.
fn closed_loop_per_layer(
    baseline: &Phase,
    traced: &Phase,
    over_socket: bool,
    metrics: &mut Metrics,
) {
    let of = |f: fn(&crate::load::Sample) -> f64| traced.samples().map(f).collect::<Vec<f64>>();
    set(
        metrics,
        "latency_p99_ms",
        stats::pct(&of(|s| s.rtt_ms), 99.0),
    );
    set(
        metrics,
        "serve.queue_wait_p50_ms",
        stats::pct(&of(|s| s.queue_ms), 50.0),
    );
    set(
        metrics,
        "serve.queue_wait_p99_ms",
        stats::pct(&of(|s| s.queue_ms), 99.0),
    );
    set(
        metrics,
        "serve.service_p50_ms",
        stats::pct(&of(|s| s.engine_ms - s.queue_ms), 50.0),
    );
    set(
        metrics,
        "serve.batch_mean",
        stats::mean(&of(|s| s.batch as f64)),
    );
    let utilisation: Vec<f64> = traced
        .samples()
        .filter_map(|s| s.budget.map(|b| s.achieved_macs / b))
        .collect();
    set(metrics, "serve.budget_util_mean", stats::mean(&utilisation));
    set(
        metrics,
        "serve.degraded_frac",
        stats::mean(&of(|s| f64::from(u8::from(s.degraded)))),
    );
    if over_socket {
        set(
            metrics,
            "http.overhead_p50_ms",
            stats::pct(&of(|s| s.rtt_ms - s.engine_ms), 50.0),
        );
    }
    set(
        metrics,
        "obs.trace_overhead_ratio",
        traced.rtt_percentile_ms(50.0).0 / baseline.rtt_percentile_ms(50.0).0,
    );
}

fn error_frac(attempted: u64, failures: &[String]) -> f64 {
    failures.len() as f64 / attempted.max(1) as f64
}

/// Turns observability on for the traced phase and the probes after it.
fn start_tracing() -> Recorder {
    antidote_obs::set_enabled(true);
    Recorder::new()
}

/// Runs the layer probes into `metrics` and closes the recorder.
fn finish_traced(
    opts: &RunOpts,
    rec: Recorder,
    scratch: &Scratch,
    pool: &Pool,
    outcome: &mut Outcome,
) {
    outcome
        .metrics
        .extend(layers::run_probes(&rec, opts.scale(), scratch, pool));
    antidote_obs::set_enabled(false);
    outcome.spans = rec.into_spans();
}

/// The shared shape of the three closed-loop workloads once their
/// clients exist: an end-to-end phase, or a baseline and a traced phase.
fn drive_closed_loop<C: Client>(
    opts: &RunOpts,
    clients: &mut [C],
    refs: &References,
    plan: &[ReqSpec],
    over_socket: bool,
    outcome: &mut Outcome,
) -> Option<(Recorder, Phase)> {
    let mut checkers: Vec<Checker<'_>> = clients.iter().map(|_| Checker::new(refs)).collect();
    if !opts.trace {
        let phase = closed_loop(clients, &mut checkers, plan, opts.seconds, None);
        closed_loop_end_to_end(&phase, &mut outcome.metrics);
        outcome.attempted = phase.attempted;
        outcome.failures = phase.failures;
        return None;
    }
    let baseline = closed_loop(clients, &mut checkers, plan, opts.seconds * 0.2, None);
    let rec = start_tracing();
    let tracing = Tracing {
        recorder: &rec,
        over_socket,
    };
    let traced = closed_loop(
        clients,
        &mut checkers,
        plan,
        opts.seconds * 0.3,
        Some(tracing),
    );
    closed_loop_per_layer(&baseline, &traced, over_socket, &mut outcome.metrics);
    outcome.attempted = baseline.attempted + traced.attempted;
    outcome.failures.extend(baseline.failures);
    outcome.failures.extend(traced.failures.iter().cloned());
    set(
        &mut outcome.metrics,
        "error_frac",
        error_frac(outcome.attempted, &outcome.failures),
    );
    Some((rec, traced))
}

// ---------------------------------------------------------------- http

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpKind {
    /// `vgg_tiny(32,4)` fp32, dense requests, `max_batch: 1`.
    TinyClosed,
    /// `vgg_small(32,10,16)` fp32 + int8, four tiers, default batching.
    VggMixed,
}

impl HttpKind {
    /// Requests per round: about half a second and a second of traffic.
    fn round_len(self, scale: f64) -> usize {
        let full = match self {
            HttpKind::TinyClosed => 2000,
            HttpKind::VggMixed => 400,
        };
        ((full as f64 * scale.min(1.0)).round() as usize).max(40)
    }
}

/// Everything an http workload builds before its first timed request;
/// `setup_s` times all of it.
struct HttpEnv {
    pool: Pool,
    server: HttpServer,
    refs: References,
    plan: Vec<ReqSpec>,
    rendered: Arc<HashMap<ReqSpec, Vec<u8>>>,
}

/// Seeds the inputs, writes the workload's `.adm` files into `dir`,
/// serves them, computes the references and renders the requests.
fn http_env(kind: HttpKind, opts: &RunOpts, dir: &Path) -> HttpEnv {
    let pool = input_pool(opts.seed);
    let registry = match kind {
        HttpKind::TinyClosed => {
            fp32_artifact(VggConfig::vgg_tiny(IMAGE, 4))
                .save(dir.join("vgg-tiny-fp32.adm"))
                .expect("scratch is writable");
            // max_batch 1 bypasses the batch window.
            start_registry(dir, |pinned| ServeConfig {
                max_batch: 1,
                ..pinned.clone()
            })
        }
        HttpKind::VggMixed => {
            let fp32 = fp32_artifact(VggConfig::vgg_small(IMAGE, 10, 16));
            fp32.save(dir.join("vgg-small-fp32.adm"))
                .expect("scratch is writable");
            int8_twin(&fp32)
                .save(dir.join("vgg-small-int8.adm"))
                .expect("scratch is writable");
            start_registry(dir, |pinned| ServeConfig {
                base_schedule: table1_schedule(),
                ..pinned.clone()
            })
        }
    };
    // Every client shares the loopback address, so the default 200 rps
    // bucket would answer 429; the limiter stays on the path and never
    // refuses.
    let config = HttpConfig {
        rate: RateConfig {
            rps: 1e6,
            burst: 1e6,
        },
        ..HttpConfig::default()
    };
    let server = HttpServer::start(config, registry).expect("loopback binds");
    let names = server.registry().names();
    let refs = References(
        names
            .iter()
            .map(|n| layers::reference_logits(&dir.join(format!("{n}.adm")), &pool))
            .collect(),
    );
    let tiers: &[Tier] = if kind == HttpKind::TinyClosed {
        &[Tier::Dense]
    } else {
        &Tier::MIXED
    };
    let plan = request_plan(
        opts.seed,
        kind.round_len(opts.scale()),
        clients(),
        names.len(),
        tiers,
    );
    let rendered = render_plan(&names, &plan, &pool);
    HttpEnv {
        pool,
        server,
        refs,
        plan,
        rendered,
    }
}

pub fn http(kind: HttpKind, opts: &RunOpts, scratch: &Scratch) -> Outcome {
    let mut outcome = Outcome::default();
    let (env, setup_s) = timed_setup(
        opts,
        scratch,
        |dir| http_env(kind, opts, dir),
        |previous| drop(previous.server.shutdown()),
    );
    let HttpEnv {
        pool,
        server,
        refs,
        plan,
        rendered,
    } = env;
    let scrape = (kind == HttpKind::VggMixed).then_some(SCRAPE_EVERY);
    let mut clients: Vec<HttpClient> = (0..clients())
        .map(|_| HttpClient::new(server.local_addr(), rendered.clone(), scrape))
        .collect();

    let traced = drive_closed_loop(opts, &mut clients, &refs, &plan, true, &mut outcome);
    let reconnects: u64 = clients.iter().map(|c| c.reconnects()).sum();
    let status_other: u64 = clients.iter().map(|c| c.status_other).sum();
    // The scrape at a fixed request count, so its cost compares across
    // runs whatever their length.
    let scrape_ms = clients[0]
        .scrapes
        .iter()
        .find(|s| s.0 == SCRAPE_EVERY)
        .map_or(0.0, |s| s.1);
    // Close the connections first: the drain waits for open ones.
    drop(clients);
    drop(server.shutdown());
    match traced {
        None => set(&mut outcome.metrics, "setup_s", setup_s),
        Some((rec, traced)) => {
            let m = &mut outcome.metrics;
            set(m, "http.reconnects", reconnects as f64);
            set(m, "http.status_other", status_other as f64);
            set(m, "http.scrape_last_ms", scrape_ms);
            if kind == HttpKind::VggMixed {
                let p50 = |keep: &dyn Fn(&ReqSpec) -> bool| {
                    stats::pct(
                        &traced
                            .samples()
                            .filter(|s| keep(&s.spec))
                            .map(|s| s.rtt_ms)
                            .collect::<Vec<_>>(),
                        50.0,
                    )
                };
                set(m, "split.fp32_p50_ms", p50(&|s| s.model == 0));
                set(m, "split.int8_p50_ms", p50(&|s| s.model == 1));
                set(
                    m,
                    "split.tier_dense_p50_ms",
                    p50(&|s| s.tier == Tier::Dense),
                );
                set(
                    m,
                    "split.tier_floor_p50_ms",
                    p50(&|s| s.tier == Tier::Floor),
                );
            }
            finish_traced(opts, rec, scratch, &pool, &mut outcome);
        }
    }
    outcome
}

// -------------------------------------------------------------- engine

/// Everything an in-process workload builds before its first timed
/// request; `setup_s` times all of it.
struct EngineEnv {
    pool: Pool,
    registry: ModelRegistry,
    refs: References,
}

/// Seeds the inputs, writes one fp32 `.adm` into `dir`, cold-starts it
/// with default batching and the Table I base schedule, and computes the
/// dense references when some request will run dense.
fn engine_env(config: VggConfig, opts: &RunOpts, dir: &Path, dense_requests: bool) -> EngineEnv {
    let pool = input_pool(opts.seed);
    let adm = dir.join("model.adm");
    fp32_artifact(config)
        .save(&adm)
        .expect("scratch is writable");
    let registry = start_registry(dir, |pinned| ServeConfig {
        base_schedule: table1_schedule(),
        ..pinned.clone()
    });
    let refs = if dense_requests {
        References(vec![layers::reference_logits(&adm, &pool)])
    } else {
        References::default()
    };
    EngineEnv {
        pool,
        registry,
        refs,
    }
}

fn handle_of(registry: &ModelRegistry) -> ServeHandle {
    registry.default_model().handle().clone()
}

pub fn engine_vgg16_table1(opts: &RunOpts, scratch: &Scratch) -> Outcome {
    let mut outcome = Outcome::default();
    // Every request is budgeted, so no dense reference is consulted.
    let (env, setup_s) = timed_setup(
        opts,
        scratch,
        |dir| engine_env(VggConfig::vgg16(IMAGE, 10), opts, dir, false),
        |previous| drop(previous.registry.drain()),
    );
    let EngineEnv {
        pool,
        registry,
        refs,
    } = env;
    let round = ((16.0 * opts.scale().min(1.0)).round() as usize).max(2 * clients());
    let plan = request_plan(opts.seed, round, clients(), 1, &[Tier::Table1]);
    let mut clients: Vec<EngineClient<'_>> = (0..clients())
        .map(|_| EngineClient {
            handles: vec![handle_of(&registry)],
            pool: &pool,
        })
        .collect();
    let traced = drive_closed_loop(opts, &mut clients, &refs, &plan, false, &mut outcome);
    drop(registry.drain());
    match traced {
        None => set(&mut outcome.metrics, "setup_s", setup_s),
        Some((rec, _)) => finish_traced(opts, rec, scratch, &pool, &mut outcome),
    }
    outcome
}

// -------------------------------------------------------------- ladder

/// One open-loop arrival: when it is due (from the step's start) and
/// what it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub spec: ReqSpec,
}

/// Seeded Poisson arrivals at `rate` per second over `duration`.
pub fn arrivals(seed: u64, rate: u32, duration: Duration) -> Vec<Arrival> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(rate) << 32));
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / f64::from(rate);
        if at >= duration.as_secs_f64() {
            return out;
        }
        let spec = ReqSpec {
            model: 0,
            input: rng.gen_range(0..crate::models::POOL),
            tier: Tier::MIXED[rng.gen_range(0..4)],
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(at),
            spec,
        });
    }
}

/// What a verified open-loop response reported.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Served {
    /// Milliseconds from the request's due time to its completion.
    from_due_ms: f64,
    queue_ms: f64,
    engine_ms: f64,
    batch: usize,
    degraded: bool,
    /// Achieved MACs over budget, for budgeted requests.
    budget_util: Option<f64>,
}

/// How one open-loop request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Ok(Served),
    /// Refused at admission or displaced from the queue (typed).
    Shed,
    /// Deadline passed while queued (typed).
    Expired,
    Violation,
}

#[derive(Debug, Clone, Copy)]
struct LadderRecord {
    /// Generator lateness: submit time minus due time, milliseconds.
    late_ms: f64,
    /// Due, submit and completion, seconds from the step's start
    /// (completion absent for a request refused at admission).
    due_s: f64,
    submitted_s: f64,
    finished_s: Option<f64>,
    end: End,
}

fn served(records: &[LadderRecord]) -> impl Iterator<Item = &Served> {
    records.iter().filter_map(|r| {
        if let End::Ok(s) = &r.end {
            Some(s)
        } else {
            None
        }
    })
}

/// What the SLO decision needs from one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSummary {
    pub rate: u32,
    pub sent: usize,
    /// Verified responses within the latency limit of their due time.
    pub within_slo: usize,
    /// Requests in flight at the step's midpoint and at its end.
    pub backlog_mid: usize,
    pub backlog_end: usize,
}

impl StepSummary {
    /// A backlog that more than doubled over the second half of the step
    /// (ignoring counts below 4) is growing: the rate is not sustained
    /// even if the latencies so far are within the limit.
    pub fn backlog_growing(&self) -> bool {
        self.backlog_end > 2 * self.backlog_mid.max(4)
    }

    /// At least 99 % of the requests sent completed OK within the limit,
    /// and the backlog is not growing.
    pub fn meets_slo(&self) -> bool {
        self.within_slo as f64 >= 0.99 * self.sent as f64 && !self.backlog_growing()
    }
}

/// Highest ladder rate whose step, and every step below it, meets the
/// SLO; 0 when the lowest does not.
pub fn slo_rate(steps: &[StepSummary]) -> u32 {
    steps
        .iter()
        .take_while(|s| s.meets_slo())
        .map(|s| s.rate)
        .last()
        .unwrap_or(0)
}

fn summarize(rate: u32, duration: Duration, records: &[LadderRecord]) -> StepSummary {
    let backlog_at = |t: f64| {
        records
            .iter()
            .filter(|r| r.submitted_s <= t && r.finished_s.is_some_and(|f| f > t))
            .count()
    };
    StepSummary {
        rate,
        sent: records.len(),
        within_slo: records
            .iter()
            .filter(|r| matches!(r.end, End::Ok(s) if s.from_due_ms <= SLO.as_secs_f64() * 1e3))
            .count(),
        backlog_mid: backlog_at(duration.as_secs_f64() / 2.0),
        backlog_end: backlog_at(duration.as_secs_f64()),
    }
}

/// One ladder step: the calling thread submits each arrival at its due
/// time; a collector thread waits for the responses and verifies them.
/// Returns once every response is in, so steps do not overlap.
fn ladder_step(
    handle: &ServeHandle,
    pool: &Pool,
    schedule: &[Arrival],
    checker: &mut Checker<'_>,
    failures: &mut Vec<String>,
    tracing: Option<&Recorder>,
    id_base: u64,
) -> Vec<LadderRecord> {
    type Sent = (
        usize,
        Instant,
        Instant,
        Result<antidote_serve::PendingResponse, ServeError>,
    );
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut records = Vec::with_capacity(schedule.len());
            let mut errors = Vec::new();
            for (i, due, submitted, admitted) in rx {
                let spec = schedule[i].spec;
                let result = admitted.and_then(|pending| pending.wait());
                let (finished, end) = match result {
                    Ok(r) => {
                        let finished = submitted + r.latency;
                        let observed = Observed {
                            model: 0,
                            input: spec.input,
                            tier: spec.tier,
                            logits: &r.logits,
                            class: r.class,
                            budget: r.budget,
                            achieved_macs: r.achieved_macs,
                            degraded: r.degraded,
                        };
                        let queue_ms = r.queue_wait.as_secs_f64() * 1e3;
                        let engine_ms = r.latency.as_secs_f64() * 1e3;
                        match checker.check(&observed) {
                            Ok(()) => {
                                if let Some(rec) = tracing {
                                    let parts = [
                                        ("serve.queue_wait", queue_ms),
                                        ("serve.service", engine_ms - queue_ms),
                                    ];
                                    rec.request(
                                        id_base + i as u64,
                                        due.min(submitted),
                                        finished,
                                        &parts,
                                    );
                                }
                                let served = Served {
                                    from_due_ms: finished
                                        .saturating_duration_since(due)
                                        .as_secs_f64()
                                        * 1e3,
                                    queue_ms,
                                    engine_ms,
                                    batch: r.batch_size,
                                    degraded: r.degraded,
                                    budget_util: r.budget.map(|b| r.achieved_macs / b),
                                };
                                (Some(finished), End::Ok(served))
                            }
                            Err(e) => {
                                errors.push(e);
                                (Some(finished), End::Violation)
                            }
                        }
                    }
                    Err(ServeError::DeadlineExceeded { waited }) => {
                        (Some(submitted + waited), End::Expired)
                    }
                    // Evicted from a full queue by a later arrival: its
                    // wait is unknown, so it leaves the backlog at once.
                    Err(ServeError::Overloaded { .. } | ServeError::QueueFull { .. }) => {
                        (None, End::Shed)
                    }
                    Err(e) => {
                        errors.push(format!("untyped or unexpected engine failure: {e}"));
                        (None, End::Violation)
                    }
                };
                let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                records.push(LadderRecord {
                    late_ms: submitted.saturating_duration_since(due).as_secs_f64() * 1e3,
                    due_s: since(due),
                    submitted_s: since(submitted),
                    finished_s: finished.map(since),
                    end,
                });
            }
            (records, errors)
        });
        for (i, arrival) in schedule.iter().enumerate() {
            let due = start + arrival.due;
            // Sleep, never spin: the generator shares two cores with the
            // workers, and the lateness a sleep adds is measured
            // (`gen.late_p99_ms`) and counted in every latency.
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let request = engine_request(handle, arrival.spec, pool).with_deadline(SLO);
            let submitted = Instant::now();
            let admitted = handle.submit(request);
            tx.send((i, due, submitted, admitted))
                .expect("collector outlives the generator");
        }
        drop(tx);
        let (records, errors) = collector.join().expect("collector thread does not panic");
        failures.extend(errors);
        records
    })
}

fn from_due_ms(records: &[LadderRecord]) -> Vec<f64> {
    served(records).map(|s| s.from_due_ms).collect()
}

/// Median over one-second windows (by due time) of each window's `q`-th
/// percentile of latency from due time: the open-loop counterpart of the
/// closed loops' medians over rounds. A step shorter than two seconds
/// is one window.
fn windowed_percentile_ms(records: &[LadderRecord], step: Duration, q: f64) -> f64 {
    let windows = (step.as_secs_f64().floor() as usize).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let last = w + 1 == windows;
            let inside: Vec<LadderRecord> = records
                .iter()
                .filter(|r| r.due_s >= w as f64 && (last || r.due_s < (w + 1) as f64))
                .copied()
                .collect();
            stats::pct(&from_due_ms(&inside), q)
        })
        .collect();
    stats::median(&per_window)
}

/// Median over one-second windows (by completion time) of the verified
/// responses completed in the window.
fn windowed_completions_per_s(records: &[LadderRecord], step: Duration) -> f64 {
    let windows = (step.as_secs_f64().floor() as usize).max(1);
    let mut completed = vec![0.0; windows];
    for r in records.iter().filter(|r| matches!(r.end, End::Ok(_))) {
        if let Some(w) = r.finished_s.map(|f| f as usize).filter(|&w| w < windows) {
            completed[w] += 1.0;
        }
    }
    stats::median(&completed)
}

pub fn engine_open_ladder(opts: &RunOpts, scratch: &Scratch) -> Outcome {
    let mut outcome = Outcome::default();
    let (env, setup_s) = timed_setup(
        opts,
        scratch,
        |dir| engine_env(VggConfig::vgg_small(IMAGE, 10, 16), opts, dir, true),
        |previous| drop(previous.registry.drain()),
    );
    let EngineEnv {
        pool,
        registry,
        refs,
    } = env;
    let handle = handle_of(&registry);
    let mut checker = Checker::new(&refs);
    let mut step =
        |seed: u64, rate: u32, seconds: f64, rec: Option<&Recorder>, outcome: &mut Outcome| {
            let duration = Duration::from_secs_f64(seconds);
            let schedule = arrivals(seed, rate, duration);
            let id_base = outcome.attempted + 1;
            outcome.attempted += schedule.len() as u64;
            (
                duration,
                ladder_step(
                    &handle,
                    &pool,
                    &schedule,
                    &mut checker,
                    &mut outcome.failures,
                    rec,
                    id_base,
                ),
            )
        };
    let (lowest, highest) = (LADDER_RATES[0], LADDER_RATES[LADDER_RATES.len() - 1]);
    step(
        opts.seed ^ 1,
        lowest,
        0.3 * opts.scale().min(1.0) + 0.1,
        None,
        &mut outcome,
    );

    if !opts.trace {
        // Sustained overload at the top rate. Latency at the calm rates
        // is idle-to-busy wake-ups, which on a shared VM swing by a third
        // between runs (README); under overload the cores never idle, and
        // how much still completes, and how late, is what only an open
        // loop can show. The traced run climbs all four steps.
        let (duration, records) = step(opts.seed, highest, opts.seconds * 0.85, None, &mut outcome);
        drop(registry.drain());
        let m = &mut outcome.metrics;
        set(
            m,
            "throughput_rps",
            windowed_completions_per_s(&records, duration),
        );
        set(
            m,
            "latency_p50_ms",
            windowed_percentile_ms(&records, duration, 50.0),
        );
        set(
            m,
            "latency_p95_ms",
            windowed_percentile_ms(&records, duration, 95.0),
        );
        set(m, "setup_s", setup_s);
        return outcome;
    }

    let step_s = opts.seconds * 0.1;
    let (_, baseline) = step(opts.seed ^ 2, lowest, step_s, None, &mut outcome);
    let rec = start_tracing();
    let mut steps = Vec::new();
    let mut all: Vec<LadderRecord> = Vec::new();
    for rate in LADDER_RATES {
        let (duration, records) = step(opts.seed, rate, step_s, Some(&rec), &mut outcome);
        steps.push((summarize(rate, duration, &records), from_due_ms(&records)));
        all.extend(records);
    }
    drop(registry.drain());

    let m = &mut outcome.metrics;
    for (summary, latencies) in &steps {
        let rate = summary.rate;
        set(
            m,
            &format!("serve.ladder{rate}_p50_ms"),
            stats::pct(latencies, 50.0),
        );
        set(
            m,
            &format!("serve.ladder{rate}_p99_ms"),
            stats::pct(latencies, 99.0),
        );
        set(
            m,
            &format!("serve.ladder{rate}_within_slo"),
            summary.within_slo as f64 / summary.sent.max(1) as f64,
        );
    }
    let summaries: Vec<StepSummary> = steps.iter().map(|s| s.0).collect();
    set(m, "slo_rate_rps", f64::from(slo_rate(&summaries)));
    set(
        m,
        "overload_goodput_rps",
        summaries[summaries.len() - 1].within_slo as f64 / step_s,
    );
    set(m, "latency_p99_ms", stats::pct(&steps[0].1, 99.0));
    let of = |f: fn(&Served) -> f64| served(&all).map(f).collect::<Vec<f64>>();
    set(
        m,
        "serve.queue_wait_p50_ms",
        stats::pct(&of(|s| s.queue_ms), 50.0),
    );
    set(
        m,
        "serve.queue_wait_p99_ms",
        stats::pct(&of(|s| s.queue_ms), 99.0),
    );
    set(
        m,
        "serve.service_p50_ms",
        stats::pct(&of(|s| s.engine_ms - s.queue_ms), 50.0),
    );
    set(m, "serve.batch_mean", stats::mean(&of(|s| s.batch as f64)));
    set(
        m,
        "serve.budget_util_mean",
        stats::mean(
            &served(&all)
                .filter_map(|s| s.budget_util)
                .collect::<Vec<_>>(),
        ),
    );
    set(
        m,
        "serve.degraded_frac",
        stats::mean(&of(|s| f64::from(u8::from(s.degraded)))),
    );
    let share =
        |end: End| all.iter().filter(|r| r.end == end).count() as f64 / all.len().max(1) as f64;
    set(m, "serve.shed_frac", share(End::Shed));
    set(m, "serve.expired_frac", share(End::Expired));
    set(
        m,
        "gen.late_p99_ms",
        stats::pct(&all.iter().map(|r| r.late_ms).collect::<Vec<_>>(), 99.0),
    );
    let peak = summaries
        .iter()
        .map(|s| s.backlog_mid.max(s.backlog_end))
        .max()
        .unwrap_or(0);
    set(m, "gen.max_outstanding", peak as f64);
    set(
        m,
        "obs.trace_overhead_ratio",
        stats::pct(&steps[0].1, 50.0) / stats::pct(&from_due_ms(&baseline), 50.0),
    );
    set(
        m,
        "error_frac",
        error_frac(outcome.attempted, &outcome.failures),
    );
    finish_traced(opts, rec, scratch, &pool, &mut outcome);
    outcome
}

// --------------------------------------------------------------- train

pub fn train_ttd(opts: &RunOpts, scratch: &Scratch) -> Outcome {
    let mut outcome = Outcome::default();
    // A quarter of the epochs when tracing (twice: baseline and traced),
    // never fewer than the four the accuracy check needs.
    let share = if opts.trace { 0.25 } else { 1.0 };
    let epochs = ((TRAIN_EPOCHS as f64 * opts.scale() * share).round() as usize).max(4);
    let (data, setup_s) = timed_setup(opts, scratch, |_| layers::train_dataset(opts.seed), drop);
    let check = |outcome: &mut Outcome, run: &layers::TrainRun| {
        outcome.attempted += run.losses.len() as u64;
        let bad = run.losses.iter().filter(|l| !l.is_finite()).count() + run.recoveries;
        outcome
            .failures
            .extend((0..bad).map(|_| "non-finite training loss".to_string()));
        if run.final_accuracy < 0.5 {
            outcome.failures.push(format!(
                "final train accuracy {} below 0.5",
                run.final_accuracy
            ));
        }
    };
    if !opts.trace {
        let run = layers::train_ttd_timed(&data, epochs, None);
        check(&mut outcome, &run);
        let m = &mut outcome.metrics;
        let rates: Vec<f64> = run
            .epoch_s
            .iter()
            .map(|s| run.images_per_epoch as f64 / s)
            .collect();
        set(m, "throughput_rps", stats::median(&rates));
        set(m, "latency_p50_ms", stats::pct(&run.step_ms, 50.0));
        set(m, "latency_p95_ms", stats::pct(&run.step_ms, 95.0));
        set(m, "setup_s", setup_s);
        return outcome;
    }
    let baseline = layers::train_ttd_timed(&data, epochs, None);
    check(&mut outcome, &baseline);
    let rec = start_tracing();
    let traced = layers::train_ttd_timed(&data, epochs, Some(&rec));
    check(&mut outcome, &traced);
    let m = &mut outcome.metrics;
    set(m, "latency_p99_ms", stats::pct(&traced.step_ms, 99.0));
    set(
        m,
        "obs.trace_overhead_ratio",
        stats::pct(&traced.step_ms, 50.0) / stats::pct(&baseline.step_ms, 50.0),
    );
    set(
        m,
        "error_frac",
        error_frac(outcome.attempted, &outcome.failures),
    );
    let pool = input_pool(opts.seed);
    finish_traced(opts, rec, scratch, &pool, &mut outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The served path end to end on the smallest workload: a healthy run
    /// verifies clean, and one flipped bit per reference turns into
    /// `error_frac > 0` and a failing outcome.
    #[test]
    fn corrupted_reference_fails_the_run() {
        let opts = RunOpts {
            seed: 3,
            seconds: 0.2,
            trace: false,
        };
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = Scratch::new(&root).unwrap();
        let env = http_env(HttpKind::TinyClosed, &opts, &scratch.dir("models"));
        let drive = |refs: &References| {
            let mut outcome = Outcome::default();
            let mut clients = vec![HttpClient::new(
                env.server.local_addr(),
                env.rendered.clone(),
                None,
            )];
            drive_closed_loop(&opts, &mut clients, refs, &env.plan, true, &mut outcome);
            outcome
        };
        let healthy = drive(&env.refs);
        assert!(
            healthy.passed() && healthy.attempted >= 2 * env.plan.len() as u64,
            "{:?}",
            healthy.failures
        );
        assert!(healthy.metrics["throughput_rps"] > 0.0 && healthy.metrics["latency_p50_ms"] > 0.0);

        let mut corrupted = env.refs.clone();
        corrupted.0[0].iter_mut().for_each(|logits| logits[0] ^= 1);
        let broken = drive(&corrupted);
        assert!(!broken.passed());
        assert!(error_frac(broken.attempted, &broken.failures) > 0.0);
        assert!(
            broken.failures[0].contains("reference"),
            "{}",
            broken.failures[0]
        );
        drop(env.server.shutdown());
    }

    #[test]
    fn same_seed_same_arrivals_at_about_the_asked_rate() {
        let second = Duration::from_secs(1);
        let a = arrivals(5, 800, second);
        assert_eq!(a, arrivals(5, 800, second));
        assert_ne!(a, arrivals(6, 800, second));
        assert!((700..900).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due) && a.last().unwrap().due < second);
    }

    fn step(
        rate: u32,
        sent: usize,
        within_slo: usize,
        backlog_mid: usize,
        backlog_end: usize,
    ) -> StepSummary {
        StepSummary {
            rate,
            sent,
            within_slo,
            backlog_mid,
            backlog_end,
        }
    }

    #[test]
    fn slo_decision_counts_every_request_sent() {
        assert!(step(200, 1000, 990, 2, 3).meets_slo());
        assert!(
            !step(200, 1000, 989, 2, 3).meets_slo(),
            "a refused request is a miss"
        );
    }

    #[test]
    fn growing_backlog_fails_a_step_whose_latencies_still_pass() {
        let s = step(800, 1000, 1000, 10, 30);
        assert!(s.backlog_growing() && !s.meets_slo());
        assert!(!step(800, 1000, 1000, 10, 20).backlog_growing());
        assert!(
            !step(800, 1000, 1000, 0, 8).backlog_growing(),
            "counts below 4 are ignored"
        );
    }

    #[test]
    fn slo_rate_is_the_highest_unbroken_pass() {
        let pass = |rate| step(rate, 100, 100, 1, 1);
        let fail = |rate| step(rate, 100, 50, 1, 1);
        assert_eq!(
            slo_rate(&[pass(200), pass(400), fail(800), fail(1600)]),
            400
        );
        assert_eq!(
            slo_rate(&[pass(200), fail(400), pass(800), fail(1600)]),
            200
        );
        assert_eq!(slo_rate(&[fail(200), pass(400)]), 0);
    }

    #[test]
    fn backlog_counts_requests_in_flight_at_midpoint_and_end() {
        let record = |submitted_s, finished_s| LadderRecord {
            late_ms: 0.0,
            due_s: submitted_s,
            submitted_s,
            finished_s,
            end: End::Shed,
        };
        let records = [
            record(0.1, Some(0.2)),
            record(0.4, Some(0.7)),
            record(0.9, Some(1.2)),
            record(0.95, None),
        ];
        let s = summarize(200, Duration::from_secs(1), &records);
        assert_eq!(
            (s.sent, s.within_slo, s.backlog_mid, s.backlog_end),
            (4, 0, 1, 1)
        );
    }
}
