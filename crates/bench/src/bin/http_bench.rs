//! Socket-level load benchmark for the `antidote-http` front-end.
//!
//! Where `serve_bench` drives the engine through its in-process handle,
//! this benchmark exercises the whole serving path the way production
//! traffic does: an open-loop [`antidote_bench::trace`] arrival trace is
//! replayed by concurrent client threads over **real TCP sockets**,
//! through the HTTP/1.1 parser, the JSON API, the model registry (an
//! fp32 `vgg_tiny` and its int8 twin, alternated per request), the SLO
//! queue, and the batched masked forward — then the server drains
//! gracefully and reports the same
//! [`antidote_serve::ServeMetrics::summary_line`] shape `serve_bench`
//! prints.
//!
//! The load is fixed: 96 arrivals (24 with `--smoke`) from trace seed
//! 42, replayed over 4 concurrent client connections.
//!
//! `--smoke` gates CI: it fails the process if any request dies an
//! *untyped* death (socket error, malformed response), if any status
//! falls outside the typed set {200, 408, 429, 503}, if any budgeted
//! `200` exceeds its budget, if either model goes unserved, or if the
//! drain loses a response. Smoke mode also enables observability and
//! checks the tracing pipeline end to end: every request carries a
//! deterministic `x-antidote-trace` id that must be echoed back, and a
//! deliberately errored request (negative budget → `422`) must appear
//! in `GET /debug/traces` under its pinned id.

use antidote_bench::trace::{generate, ArrivalProcess, ClassMix, PhaseSpec, RequestClass};
use antidote_core::quant::{calibrate, CalibrationMethod};
use antidote_core::PruneSchedule;
use antidote_data::Split;
use antidote_http::{
    HttpConfig, HttpServer, InferApiResponse, ModelRegistry, ModelSource, ModelSpec, RateConfig,
};
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{ModelFactory, Priority, QuantMode, ServeConfig};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Small inputs keep a socket-level smoke fast; the serving path is the
/// subject here, not the model.
const IMAGE_SIZE: usize = 32;
const CLASSES: usize = 4;
const DEADLINE_MS: u64 = 5000;

fn fresh_vgg(seed: u64) -> Vgg {
    let mut rng = SmallRng::seed_from_u64(seed);
    Vgg::new(&mut rng, VggConfig::vgg_tiny(IMAGE_SIZE, CLASSES))
}

/// The registry under test: an fp32 `vgg_tiny` and its int8
/// post-training-quantized twin, each with a pruning range so budgeted
/// requests have schedule scales to choose from.
fn registry(seed: u64) -> ModelRegistry {
    let config = || ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_capacity: 64,
        base_schedule: PruneSchedule::channel_only(vec![0.6, 0.6]),
        ..ServeConfig::default()
    };
    let fp32: ModelFactory = Arc::new(move |_| Box::new(fresh_vgg(seed)));
    let calib_split = Split {
        images: Tensor::from_fn([8, 3, IMAGE_SIZE, IMAGE_SIZE], |i| {
            (i as f32 * 0.379).sin() * 0.5
        }),
        labels: vec![0; 8],
    };
    let calib = calibrate(&mut fresh_vgg(seed), &calib_split, 4, 2, CalibrationMethod::MinMax);
    let int8: ModelFactory = Arc::new(move |_| {
        Box::new(fresh_vgg(seed).quantize(calib.input_scale, &calib.tap_scales))
    });
    ModelRegistry::start(vec![
        ModelSpec {
            name: "vgg-fp32".to_string(),
            config: ServeConfig { quant: QuantMode::Off, ..config() },
            factory: fp32,
            source: ModelSource::Built,
        },
        ModelSpec {
            name: "vgg-int8".to_string(),
            config: ServeConfig { quant: QuantMode::Int8, ..config() },
            factory: int8,
            source: ModelSource::Built,
        },
    ])
    .expect("registry start")
}

/// Budget tiers mirroring `serve_bench`, so both benches stress the
/// same spread of schedule scales.
fn tier_mix() -> ClassMix {
    let tier = |name: &'static str, budget_frac: Option<f64>| RequestClass {
        name,
        priority: Priority::Standard,
        budget_frac,
        deadline_ms: DEADLINE_MS,
    };
    ClassMix::new(vec![
        (tier("dense", None), 1.0),
        (tier("loose", Some(0.9)), 1.0),
        (tier("medium", Some(0.5)), 1.0),
        (tier("near-floor", Some(0.05)), 1.0),
    ])
}

/// Flattened deterministic input for event `i`.
fn input_values(i: usize) -> Vec<f32> {
    (0..3 * IMAGE_SIZE * IMAGE_SIZE)
        .map(|j| ((i * 193 + j * 7) % 23) as f32 * 0.04 - 0.44)
        .collect()
}

/// One terminal client-side outcome.
struct HttpOutcome {
    status: u16,
    /// Parsed body of a `200` (None for errors).
    response: Option<InferApiResponse>,
    /// Untyped transport/parse failure — the thing `--smoke` forbids.
    transport_error: Option<String>,
    /// `x-antidote-trace` response header, when present.
    trace_echo: Option<String>,
}

/// The deterministic trace id client traffic pins on event `i` (1–32
/// hex chars; the server echoes the zero-padded 32-char rendering).
fn trace_id_for(i: usize) -> String {
    format!("{:x}", 0xb00c_0000_0000u64 + i as u64)
}

/// Reads one HTTP/1.1 response (status line, headers, `Content-Length`
/// body); returns `(status, body, keep_alive, trace_echo)`.
fn read_http_response(
    stream: &mut TcpStream,
) -> Result<(u16, String, bool, Option<String>), String> {
    let mut buf = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response head")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut content_length = 0usize;
    let mut keep_alive = true;
    let mut trace_echo = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| "bad content-length")?;
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            "x-antidote-trace" => trace_echo = Some(value.to_string()),
            _ => {}
        }
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 body")?;
    Ok((status, body, keep_alive, trace_echo))
}

/// Issues one `POST /v1/infer` over `conn` (reconnecting if needed),
/// stamping the request with `trace_id`.
fn post_infer(
    conn: &mut Option<TcpStream>,
    addr: SocketAddr,
    trace_id: &str,
    body: &str,
) -> Result<(u16, String, Option<String>), String> {
    if conn.is_none() {
        *conn = Some(TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let stream = conn.as_mut().expect("connection just ensured");
    let request = format!(
        "POST /v1/infer HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\nx-antidote-trace: {trace_id}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len(),
    );
    if let Err(e) = stream.write_all(request.as_bytes()) {
        *conn = None;
        return Err(format!("write: {e}"));
    }
    match read_http_response(stream) {
        Ok((status, body, keep_alive, trace_echo)) => {
            if !keep_alive {
                *conn = None;
            }
            Ok((status, body, trace_echo))
        }
        Err(e) => {
            *conn = None;
            Err(e)
        }
    }
}

/// One-shot `GET` over a fresh connection; returns `(status, body)`.
fn get_path(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let request = format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    read_http_response(&mut stream).map(|(status, body, _, _)| (status, body))
}

/// Replays the trace open-loop: client `c` of `clients` owns events
/// `c, c + clients, c + 2·clients, …`, each submitted at its scheduled
/// offset from the shared start instant over the client's own
/// keep-alive connection.
fn run_clients(
    addr: SocketAddr,
    events: &[antidote_bench::trace::TraceEvent],
    clients: usize,
) -> Vec<HttpOutcome> {
    let start = Instant::now() + Duration::from_millis(50);
    let mut outcomes: Vec<Option<HttpOutcome>> = Vec::new();
    outcomes.resize_with(events.len(), || None);
    let mut slots: Vec<&mut Option<HttpOutcome>> = outcomes.iter_mut().collect();
    std::thread::scope(|scope| {
        let mut per_client: Vec<Vec<(usize, &mut Option<HttpOutcome>)>> =
            (0..clients).map(|_| Vec::new()).collect();
        for (i, slot) in slots.drain(..).enumerate() {
            per_client[i % clients].push((i, slot));
        }
        for (c, work) in per_client.into_iter().enumerate() {
            scope.spawn(move || {
                let mut conn: Option<TcpStream> = None;
                for (i, slot) in work {
                    let ev = &events[i];
                    let due = start + ev.at;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let model = if i % 2 == 0 { "vgg-fp32" } else { "vgg-int8" };
                    let body = request_body(model, i, &ev.class);
                    let tid = trace_id_for(i);
                    *slot = Some(match post_infer(&mut conn, addr, &tid, &body) {
                        Ok((200, body, trace_echo)) => match serde_json::from_str(&body) {
                            Ok(resp) => HttpOutcome {
                                status: 200,
                                response: Some(resp),
                                transport_error: None,
                                trace_echo,
                            },
                            Err(e) => HttpOutcome {
                                status: 200,
                                response: None,
                                transport_error: Some(format!(
                                    "client {c}: unparseable 200 body: {e}"
                                )),
                                trace_echo,
                            },
                        },
                        Ok((status, _, trace_echo)) => HttpOutcome {
                            status,
                            response: None,
                            transport_error: None,
                            trace_echo,
                        },
                        Err(e) => HttpOutcome {
                            status: 0,
                            response: None,
                            transport_error: Some(format!("client {c}: {e}")),
                            trace_echo: None,
                        },
                    });
                }
            });
        }
    });
    outcomes
        .into_iter()
        .map(|o| o.expect("every event slot is filled by its owning client"))
        .collect()
}

/// Renders the JSON body for event `i`.
fn request_body(model: &str, i: usize, class: &RequestClass) -> String {
    let values: Vec<String> = input_values(i).iter().map(|v| format!("{v}")).collect();
    let mut body = format!(
        "{{\"model\":\"{model}\",\"input\":[{}],\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}],\"deadline_ms\":{},\"priority\":\"{}\"",
        values.join(","),
        class.deadline_ms,
        class.priority,
    );
    if let Some(frac) = class.budget_frac {
        body.push_str(&format!(",\"budget_frac\":{frac}"));
    }
    body.push('}');
    body
}

fn main() {
    antidote_obs::init_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // The smoke gate asserts the tracing pipeline end to end, which
        // needs the flight recorder live regardless of ANTIDOTE_OBS.
        antidote_obs::set_enabled(true);
    }
    let requests: usize = if smoke { 24 } else { 96 };
    let clients = 4usize;
    let seed = 42u64;

    // All bench clients share the loopback IP and therefore one token
    // bucket; a generous limit keeps 429s out of the happy path (the
    // e2e tests cover rate limiting with tight limits).
    let config = HttpConfig {
        rate: RateConfig { rps: 10_000.0, burst: 10_000.0 },
        ..HttpConfig::default()
    }
    .with_env_overrides();
    let server = HttpServer::start(config, registry(seed)).expect("bind http server");
    let addr = server.local_addr();
    println!(
        "http_bench: {requests} requests, {clients} clients, seed {seed}, addr {addr}"
    );

    // ~120 arrivals/s across both models: brisk enough to exercise
    // batching, below the tiny registry's saturation point.
    let phases = [PhaseSpec {
        name: "steady",
        process: ArrivalProcess::Steady { rps: 120.0 },
        duration: Duration::from_secs_f64(requests as f64 / 120.0),
        mix: tier_mix(),
    }];
    let mut events = generate(&phases, seed);
    events.truncate(requests);
    let wall = Instant::now();
    let outcomes = run_clients(addr, &events, clients);
    let wall = wall.elapsed();

    // Smoke-only, pre-drain: an impossible budget must come back as a
    // typed 422 under its pinned trace id, and the flight recorder must
    // expose that record through GET /debug/traces.
    let mut trace_failures: Vec<String> = Vec::new();
    if smoke {
        let errored_id = "deadbee1";
        let padded = format!("{errored_id:0>32}");
        let bad_body = format!(
            "{{\"model\":\"vgg-fp32\",\"input\":[{}],\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}],\"budget_macs\":-1.0}}",
            input_values(0)
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        let mut conn: Option<TcpStream> = None;
        match post_infer(&mut conn, addr, errored_id, &bad_body) {
            Ok((422, _, Some(echo))) if echo == padded => {}
            Ok((status, body, echo)) => trace_failures.push(format!(
                "negative budget: want 422 echoing {padded}, got {status} echo {echo:?}: {body}"
            )),
            Err(e) => trace_failures.push(format!("negative-budget request died: {e}")),
        }
        match get_path(addr, "/debug/traces") {
            Ok((200, traces)) => {
                if !traces.contains(&padded) {
                    trace_failures.push(format!(
                        "errored trace {padded} missing from /debug/traces: {traces}"
                    ));
                }
                if !traces.contains("\"outcome\":\"budget_infeasible\"") {
                    trace_failures
                        .push(format!("no budget_infeasible outcome in /debug/traces: {traces}"));
                }
            }
            Ok((status, body)) => {
                trace_failures.push(format!("/debug/traces returned {status}: {body}"));
            }
            Err(e) => trace_failures.push(format!("/debug/traces request died: {e}")),
        }
    }

    let final_metrics = server.shutdown();

    // Report: status histogram + the shared per-model summary shape.
    let mut by_status: Vec<(u16, usize)> = Vec::new();
    for o in &outcomes {
        match by_status.iter_mut().find(|(s, _)| *s == o.status) {
            Some((_, n)) => *n += 1,
            None => by_status.push((o.status, 1)),
        }
    }
    by_status.sort_unstable();
    let histogram: Vec<String> =
        by_status.iter().map(|(s, n)| format!("{s}×{n}")).collect();
    println!(
        "replayed {} events in {:.2}s | statuses: {}",
        outcomes.len(),
        wall.as_secs_f64(),
        histogram.join(" "),
    );
    for (name, m) in &final_metrics {
        println!("--- {name} ---");
        println!("{}", m.summary_line());
    }

    if smoke {
        let mut failures: Vec<String> = trace_failures;
        for (i, o) in outcomes.iter().enumerate() {
            if let Some(err) = &o.transport_error {
                failures.push(format!("untyped failure: {err}"));
            } else if !matches!(o.status, 200 | 408 | 429 | 503) {
                failures.push(format!("unexpected status {}", o.status));
            }
            if o.transport_error.is_none() {
                let expected = format!("{:0>32}", trace_id_for(i));
                if o.trace_echo.as_deref() != Some(expected.as_str()) {
                    failures.push(format!(
                        "event {i}: trace echo {:?} != submitted id {expected}",
                        o.trace_echo
                    ));
                }
            }
            if let Some(resp) = &o.response {
                if let Some(budget) = resp.budget_macs {
                    if resp.achieved_macs > budget {
                        failures.push(format!(
                            "budget violated: achieved {} > budget {budget} ({})",
                            resp.achieved_macs, resp.model
                        ));
                    }
                }
            }
        }
        for model in ["vgg-fp32", "vgg-int8"] {
            if !outcomes
                .iter()
                .any(|o| o.response.as_ref().is_some_and(|r| r.model == model))
            {
                failures.push(format!("model {model} served no successful request"));
            }
        }
        let completed: u64 = final_metrics.iter().map(|(_, m)| m.completed).sum();
        let ok = outcomes.iter().filter(|o| o.status == 200).count() as u64;
        if completed < ok {
            failures.push(format!(
                "drain lost responses: engines completed {completed} < {ok} client 200s"
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("SMOKE FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("smoke OK: {} events, zero untyped failures", outcomes.len());
    }
}
