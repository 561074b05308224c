//! The HTTP server: accept loop, connection workers, routing, and
//! graceful drain.
//!
//! # Threading
//!
//! One acceptor thread blocks on [`TcpListener::accept`] and pushes
//! connections onto a `Mutex<VecDeque>` + `Condvar` hand-off; a fixed
//! pool of **dedicated** connection-worker threads pops and serves
//! them. Connections deliberately do *not* run as `antidote-par` pool
//! tasks: that pool's callers participate in draining the shared task
//! queue, so a long-blocking connection task could capture an unrelated
//! caller — e.g. a serve worker mid-GEMM fan-out — and stall inference
//! behind socket I/O. Dedicated threads keep the compute pool free of
//! blocking work; `antidote-par` only informs the default worker count.
//!
//! # Drain
//!
//! [`HttpServer::shutdown`] flips a `draining` flag, wakes the acceptor
//! with a loopback self-connect, and lets the workers finish every
//! already-accepted connection (keep-alive loops end with
//! `Connection: close`) before the model registry drains its engines —
//! stop admission, flush in-flight batches, join replicas. No accepted
//! connection is ever reset.

use crate::api::{
    parse_priority, serve_error_body, ErrorBody, InferApiRequest, InferApiResponse,
};
use crate::http1::{self, read_request, write_response, RecvError};
use crate::ratelimit::{RateConfig, RateLimiter};
use crate::registry::{ModelEntry, ModelRegistry};
use antidote_obs::{Registry, Snapshot, TraceId, TraceRecord};
use antidote_serve::{InferRequest, ServeError, ServeMetrics};
use antidote_tensor::Tensor;
use std::collections::VecDeque;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration: a typed value the embedding program builds
/// (the library reads no environment).
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address. Port `0` picks a free port; read the result back
    /// from [`HttpServer::local_addr`].
    pub addr: String,
    /// Dedicated connection-worker threads.
    pub conn_workers: usize,
    /// Request body byte cap → `413` beyond.
    pub max_body: usize,
    /// Absolute per-request read deadline: a request must arrive in full
    /// within this window regardless of how slowly bytes drip → `408`.
    pub read_timeout: Duration,
    /// Requests served per connection before forcing `Connection:
    /// close` — bounds how long one client can pin a worker.
    pub keepalive_max: usize,
    /// Per-client-IP token bucket → `429` when empty.
    pub rate: RateConfig,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            // Connection workers block on socket reads and engine
            // waits, not CPU; a multiple of the compute width keeps
            // sockets fed while the serve workers batch.
            conn_workers: (2 * antidote_par::available()).max(4),
            max_body: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            keepalive_max: 256,
            rate: RateConfig::default(),
        }
    }
}

/// Front-end counters, registered at 0 when the server starts:
/// connections accepted, requests fully parsed (any route), responses
/// by status class (`4xx` includes `429`), `429` rate-limit rejections,
/// and receive failures that never became a parsed request (timeouts,
/// malformed framing, premature disconnects).
const HTTP_COUNTERS: [&str; 7] = [
    "connections",
    "requests",
    "responses_2xx",
    "responses_4xx",
    "responses_5xx",
    "rate_limited",
    "recv_errors",
];

fn count_status(metrics: &Registry, status: u16) {
    let class = match status {
        200..=299 => "responses_2xx",
        400..=499 => "responses_4xx",
        _ => "responses_5xx",
    };
    metrics.counter_add(class, 1);
}

/// State shared by the acceptor, the workers, and the owning handle.
struct Shared {
    registry: Arc<ModelRegistry>,
    limiter: RateLimiter,
    metrics: Registry,
    config: HttpConfig,
    draining: AtomicBool,
    conns: Mutex<VecDeque<TcpStream>>,
    conns_cv: Condvar,
}

/// The running server. Dropping it without calling
/// [`HttpServer::shutdown`] aborts the threads non-gracefully at
/// process exit; call `shutdown` for a clean drain.
pub struct HttpServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl HttpServer {
    /// Binds `config.addr` and starts the acceptor and connection
    /// workers over an already-started registry.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the address cannot be bound, or of kind
    /// `InvalidInput` if `config.rate` fails [`RateConfig::is_valid`].
    pub fn start(config: HttpConfig, registry: ModelRegistry) -> std::io::Result<Self> {
        if !config.rate.is_valid() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("rate limit needs rps > 0 and burst >= 1, got {:?}", config.rate),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Registry::new();
        for name in HTTP_COUNTERS {
            metrics.counter_add(name, 0);
        }
        let shared = Arc::new(Shared {
            registry: Arc::new(registry),
            limiter: RateLimiter::new(config.rate),
            metrics,
            config,
            draining: AtomicBool::new(false),
            conns: Mutex::new(VecDeque::new()),
            conns_cv: Condvar::new(),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("http-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        let workers = (0..shared.config.conn_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("http-conn-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn connection worker")
            })
            .collect();

        if antidote_obs::enabled() {
            let addr = local_addr.to_string();
            antidote_obs::event(
                antidote_obs::Level::Info,
                "http.listening",
                &[
                    ("addr", antidote_obs::Value::Str(&addr)),
                    (
                        "workers",
                        antidote_obs::Value::U64(shared.config.conn_workers as u64),
                    ),
                ],
            );
        }
        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the front-end counters.
    pub fn metrics(&self) -> Snapshot {
        self.shared.metrics.snapshot()
    }

    /// The registry being served.
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Graceful drain: stop accepting, serve every already-accepted
    /// connection to completion, then drain each model engine (flush
    /// in-flight batches, join replicas). Returns the final per-model
    /// metrics.
    pub fn shutdown(mut self) -> Vec<(String, ServeMetrics)> {
        self.shared.draining.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); a loopback self-connect is
        // the std-only way to wake it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.conns_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let registry = Arc::clone(&self.shared.registry);
        drop(self.shared);
        let finals = match Arc::try_unwrap(registry) {
            Ok(registry) => registry.drain(),
            // A caller-held registry() borrow cannot outlive `self`, so
            // the only other owner was `shared`; this arm is
            // unreachable, but degrade to snapshots rather than panic.
            Err(registry) => registry.metrics(),
        };
        if antidote_obs::enabled() {
            // After the engines flushed their in-flight batches, dump
            // the flight recorder's exemplars into the JSONL event ring
            // (and trace file, when set) — the retained records are
            // otherwise memory-only and die with the process.
            antidote_obs::recorder_dump_events();
        }
        finals
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    // The wake-up self-connect (or a raced arrival)
                    // lands here; drop it unserved.
                    return;
                }
                shared.metrics.counter_add("connections", 1);
                let mut q = shared.conns.lock().unwrap_or_else(|p| p.into_inner());
                q.push_back(stream);
                drop(q);
                shared.conns_cv.notify_one();
            }
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly rather than spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.conns.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(stream) = q.pop_front() {
                    break stream;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = shared
                    .conns_cv
                    .wait(q)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        serve_connection(shared, stream);
    }
}

/// Serves one connection's keep-alive loop to completion.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let peer_ip = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
    for served in 0.. {
        let deadline = Instant::now() + shared.config.read_timeout;
        let request = match read_request(&stream, deadline, shared.config.max_body) {
            Ok(req) => req,
            Err(RecvError::Idle | RecvError::Disconnected) => {
                // Nothing to answer: the peer left or never spoke.
                if served == 0 {
                    shared.metrics.counter_add("recv_errors", 1);
                }
                return;
            }
            Err(err) => {
                shared.metrics.counter_add("recv_errors", 1);
                let (status, kind) = recv_error_status(&err);
                let body = ErrorBody::new(kind, &err).to_json();
                respond(shared, &mut stream, status, CT_JSON, &[], &body, false);
                return;
            }
        };
        shared.metrics.counter_add("requests", 1);
        // Last response on a draining or exhausted connection says so.
        let keep_alive = request.keep_alive
            && served + 1 < shared.config.keepalive_max
            && !shared.draining.load(Ordering::SeqCst);
        let (status, extra, body, content_type) = route(shared, peer_ip, &request);
        respond(shared, &mut stream, status, content_type, &extra, &body, keep_alive);
        if !keep_alive {
            return;
        }
    }
}

fn respond(
    shared: &Shared,
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &str,
    keep_alive: bool,
) {
    count_status(&shared.metrics, status);
    // A write failure means the client is gone; the typed response was
    // still produced and counted.
    let _ = write_response(stream, status, content_type, extra, body, keep_alive);
}

/// Maps receive failures to the statuses the module docs promise.
fn recv_error_status(err: &RecvError) -> (u16, &'static str) {
    match err {
        RecvError::Timeout => (408, "request_timeout"),
        RecvError::TooLarge { part: "head", .. } => (431, "headers_too_large"),
        RecvError::TooLarge { .. } => (413, "payload_too_large"),
        RecvError::BadRequest(_) => (400, "malformed_request"),
        RecvError::LengthRequired => (411, "length_required"),
        RecvError::UnsupportedEncoding => (501, "unsupported_encoding"),
        // Handled before reaching here; kept total for safety.
        RecvError::Idle | RecvError::Disconnected => (400, "malformed_request"),
    }
}

/// JSON content type — every route except the Prometheus exposition.
const CT_JSON: &str = "application/json";
/// Prometheus text exposition format, version 0.0.4.
const CT_PROM: &str = "text/plain; version=0.0.4";

type Routed = (u16, Vec<(&'static str, String)>, String, &'static str);

/// Dispatches one parsed request to its route.
fn route(shared: &Shared, peer_ip: IpAddr, request: &http1::Request) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics(shared, request),
        ("GET", "/debug/traces") => {
            (200, vec![], antidote_obs::traces_json(), CT_JSON)
        }
        ("POST", "/v1/infer") => infer(shared, peer_ip, request),
        ("GET" | "HEAD", "/v1/infer") => (
            405,
            vec![("allow", "POST".to_string())],
            ErrorBody::new("method_not_allowed", "use POST /v1/infer").to_json(),
            CT_JSON,
        ),
        (_, "/healthz" | "/metrics" | "/debug/traces") => (
            405,
            vec![("allow", "GET".to_string())],
            ErrorBody::new("method_not_allowed", "use GET").to_json(),
            CT_JSON,
        ),
        (_, path) => (
            404,
            vec![],
            ErrorBody::new("not_found", format!("no route for `{path}`")).to_json(),
            CT_JSON,
        ),
    }
}

fn healthz(shared: &Shared) -> Routed {
    let models: Vec<String> = shared
        .registry
        .names()
        .into_iter()
        .map(|n| format!("\"{}\"", json_escape(&n)))
        .collect();
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    (
        200,
        vec![],
        format!(
            "{{\"status\":\"{status}\",\"models\":[{}]}}",
            models.join(",")
        ),
        CT_JSON,
    )
}

/// `true` when the client asked for the Prometheus text exposition:
/// `?format=prom` (or `prometheus`) in the query, or an `Accept` header
/// naming `text/plain` / OpenMetrics. JSON stays the default.
fn wants_prometheus(request: &http1::Request) -> bool {
    if request
        .query
        .split('&')
        .any(|p| p == "format=prom" || p == "format=prometheus")
    {
        return true;
    }
    request.header("accept").is_some_and(|accept| {
        let accept = accept.to_ascii_lowercase();
        accept.contains("text/plain") || accept.contains("application/openmetrics-text")
    })
}

/// `GET /metrics`: the front-end registry, each engine's registry and
/// the global `antidote-obs` registry — one JSON object of
/// [`Snapshot::to_json`]s by default, or the Prometheus text exposition
/// under content negotiation ([`wants_prometheus`]).
fn metrics(shared: &Shared, request: &http1::Request) -> Routed {
    let http = shared.metrics.snapshot();
    let models = shared.registry.metrics();
    let obs = antidote_obs::snapshot();
    if wants_prometheus(request) {
        let body = crate::prom::render_exposition(&http, &models, &obs);
        return (200, vec![], body, CT_PROM);
    }
    let models: Vec<String> = models
        .iter()
        .map(|(name, m)| format!("\"{}\":{}", json_escape(name), m.snapshot.to_json()))
        .collect();
    let body = format!(
        "{{\"http\":{},\"models\":{{{}}},\"obs\":{}}}",
        http.to_json(),
        models.join(","),
        obs.to_json(),
    );
    (200, vec![], body, CT_JSON)
}

/// The `x-antidote-trace` echo header for a request that carries an id.
fn trace_headers(trace: Option<TraceId>) -> Vec<(&'static str, String)> {
    match trace {
        Some(t) => vec![("x-antidote-trace", t.to_hex())],
        None => vec![],
    }
}

/// Records a synchronous (pre-execution) rejection in the flight
/// recorder. The engine records every post-admission outcome itself
/// (completion, deadline, eviction, panic); the HTTP layer owns what
/// fails before a ticket reaches the queue — validation `400`s,
/// admission errors from `submit`, rate limiting, unknown models.
fn record_rejection(
    trace: Option<TraceId>,
    model: &str,
    outcome: &str,
    detail: &str,
    priority: Option<&str>,
) {
    if !antidote_obs::enabled() {
        return;
    }
    let Some(tid) = trace else { return };
    let mut rec = TraceRecord::new(&tid.to_hex());
    rec.model = model.to_string();
    rec.outcome = outcome.to_string();
    rec.detail = detail.to_string();
    if let Some(p) = priority {
        rec.priority = p.to_string();
    }
    if matches!(outcome, "overloaded" | "queue_full") {
        rec.shed = "shed".to_string();
    }
    antidote_obs::record_trace(rec);
}

fn infer(shared: &Shared, peer_ip: IpAddr, request: &http1::Request) -> Routed {
    // Honor an inbound trace id; otherwise mint one while observability
    // is on, so even requests that fail before admission are
    // reconstructible from `/debug/traces`.
    let trace = request
        .header("x-antidote-trace")
        .and_then(TraceId::parse)
        .or_else(|| antidote_obs::enabled().then(TraceId::mint));
    let trace_hex = || trace.map(TraceId::to_hex);
    if let Err(wait) = shared.limiter.try_acquire(peer_ip) {
        shared.metrics.counter_add("rate_limited", 1);
        let mut eb = ErrorBody::new("rate_limited", "per-client request rate exceeded");
        eb.retry_after_ms = Some(wait.as_millis() as u64);
        eb.trace_id = trace_hex();
        record_rejection(trace, "", "rate_limited", &eb.detail, None);
        let mut extra = trace_headers(trace);
        extra.push(("retry-after", wait.as_secs().max(1).to_string()));
        return (429, extra, eb.to_json(), CT_JSON);
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            let mut eb = ErrorBody::new("invalid_json", "body is not valid UTF-8");
            eb.trace_id = trace_hex();
            record_rejection(trace, "", "invalid_json", &eb.detail, None);
            return (400, trace_headers(trace), eb.to_json(), CT_JSON);
        }
    };
    let api: InferApiRequest = match serde_json::from_str(text) {
        Ok(api) => api,
        Err(e) => {
            let mut eb =
                ErrorBody::new("invalid_json", format!("body is not a valid request: {e}"));
            eb.trace_id = trace_hex();
            record_rejection(trace, "", "invalid_json", &eb.detail, None);
            return (400, trace_headers(trace), eb.to_json(), CT_JSON);
        }
    };
    let entry = match shared.registry.route(api.model.as_deref()) {
        Some(entry) => entry,
        None => {
            let mut eb = ErrorBody::new(
                "model_not_found",
                format!("no model named `{}`", api.model.as_deref().unwrap_or("")),
            );
            eb.models = Some(shared.registry.names_detailed());
            eb.trace_id = trace_hex();
            record_rejection(
                trace,
                api.model.as_deref().unwrap_or(""),
                "model_not_found",
                &eb.detail,
                api.priority.as_deref(),
            );
            return (404, trace_headers(trace), eb.to_json(), CT_JSON);
        }
    };
    match build_request(entry, &api) {
        Ok(mut req) => {
            if let Some(t) = trace {
                req = req.with_trace(t);
            }
            match entry.handle().submit(req) {
                Ok(pending) => match pending.wait() {
                    Ok(resp) => {
                        // The engine echoes the submitted id (or the one
                        // it minted) back on the response.
                        let api_resp = InferApiResponse::from_engine(entry.name(), &resp);
                        (
                            200,
                            trace_headers(resp.trace.or(trace)),
                            serde_json::to_string(&api_resp)
                                .expect("infer response serialization cannot fail"),
                            CT_JSON,
                        )
                    }
                    // Post-admission failure: the engine already left
                    // the trace record (deadline, eviction, panic).
                    Err(err) => {
                        let (status, mut eb) = serve_error_body(&err);
                        eb.trace_id = trace_hex();
                        (status, trace_headers(trace), eb.to_json(), CT_JSON)
                    }
                },
                // Synchronous admission rejection (shed, queue full,
                // infeasible budget, bad input): record it here.
                Err(err) => {
                    let (status, mut eb) = serve_error_body(&err);
                    eb.trace_id = trace_hex();
                    let priority = match &err {
                        ServeError::Overloaded { priority, .. } => Some(priority.to_string()),
                        _ => api.priority.clone(),
                    };
                    record_rejection(
                        trace,
                        entry.name(),
                        &eb.error,
                        &eb.detail,
                        priority.as_deref(),
                    );
                    (status, trace_headers(trace), eb.to_json(), CT_JSON)
                }
            }
        }
        Err(mut eb) => {
            eb.trace_id = trace_hex();
            record_rejection(
                trace,
                entry.name(),
                &eb.error,
                &eb.detail,
                api.priority.as_deref(),
            );
            (400, trace_headers(trace), eb.to_json(), CT_JSON)
        }
    }
}

/// Validates the API body into an engine request against the routed
/// model. Every validation failure is a 400 with a typed kind.
fn build_request(
    entry: &ModelEntry,
    api: &InferApiRequest,
) -> Result<InferRequest, Box<ErrorBody>> {
    if api.shape.len() != 3 {
        return Err(Box::new(ErrorBody::new(
            "bad_shape",
            format!("shape must be [C, H, W], got {:?}", api.shape),
        )));
    }
    let expected: usize = api.shape.iter().product();
    if expected != api.input.len() {
        return Err(Box::new(ErrorBody::new(
            "bad_shape",
            format!(
                "shape {:?} needs {expected} values, body carries {}",
                api.shape,
                api.input.len()
            ),
        )));
    }
    let input = Tensor::from_vec(api.input.clone(), &api.shape)
        .map_err(|e| Box::new(ErrorBody::new("bad_shape", e)))?;
    let mut req = InferRequest::new(input);
    match (api.budget_macs, api.budget_frac) {
        (Some(_), Some(_)) => {
            return Err(Box::new(ErrorBody::new(
                "bad_budget",
                "set at most one of budget_macs and budget_frac",
            )));
        }
        (Some(macs), None) => req = req.with_budget(macs),
        (None, Some(frac)) => {
            if !frac.is_finite() {
                return Err(Box::new(ErrorBody::new(
                    "bad_budget",
                    "budget_frac must be finite",
                )));
            }
            let handle = entry.handle();
            let (floor, dense) = (handle.floor_macs(), handle.dense_macs());
            req = req.with_budget(floor + frac.clamp(0.0, 1.0) * (dense - floor));
        }
        (None, None) => {}
    }
    if let Some(ms) = api.deadline_ms {
        req = req.with_deadline(Duration::from_millis(ms));
    }
    if let Some(p) = &api.priority {
        let priority = parse_priority(p).map_err(|raw| {
            Box::new(ErrorBody::new(
                "bad_priority",
                format!("unknown priority `{raw}` (expected interactive|standard|batch)"),
            ))
        })?;
        req = req.with_priority(priority);
    }
    Ok(req)
}

/// Minimal JSON string escaping for names we splice into hand-built
/// fragments (model names are operator-chosen, but stay correct
/// anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = HttpConfig::default();
        assert!(cfg.conn_workers >= 4);
        assert!(cfg.rate.is_valid());
        assert!(cfg.max_body >= 1024);
        assert!(cfg.keepalive_max >= 1);
    }

    #[test]
    fn recv_errors_map_to_promised_statuses() {
        assert_eq!(recv_error_status(&RecvError::Timeout).0, 408);
        assert_eq!(
            recv_error_status(&RecvError::TooLarge { part: "head", limit: 1 }).0,
            431
        );
        assert_eq!(
            recv_error_status(&RecvError::TooLarge { part: "body", limit: 1 }).0,
            413
        );
        assert_eq!(recv_error_status(&RecvError::BadRequest("x".into())).0, 400);
        assert_eq!(recv_error_status(&RecvError::LengthRequired).0, 411);
        assert_eq!(recv_error_status(&RecvError::UnsupportedEncoding).0, 501);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn metrics_status_buckets() {
        let m = Registry::new();
        for status in [200, 404, 429, 503] {
            count_status(&m, status);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter("responses_2xx"), Some(1));
        assert_eq!(snap.counter("responses_4xx"), Some(2));
        assert_eq!(snap.counter("responses_5xx"), Some(1));
        let json = snap.to_json();
        assert!(json.contains("{\"name\":\"responses_4xx\",\"value\":2}"), "{json}");
    }
}
