//! End-to-end acceptance: concurrent HTTP clients through
//! `TcpListener` → parser → registry → SLO queue → batched masked
//! forward, asserting budgets, deadline outcomes, independent fp32/int8
//! routing, rate limiting, and graceful drain — entirely over real
//! sockets.

use antidote_core::quant::{calibrate, CalibrationMethod};
use antidote_core::PruneSchedule;
use antidote_data::Split;
use antidote_http::{
    ErrorBody, HttpConfig, HttpServer, InferApiResponse, ModelRegistry, ModelSource, ModelSpec,
    RateConfig,
};
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{ModelFactory, QuantMode, ServeConfig};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const IMAGE_SIZE: usize = 16;
const CLASSES: usize = 4;

fn fresh_vgg(seed: u64) -> Vgg {
    let mut rng = SmallRng::seed_from_u64(seed);
    Vgg::new(&mut rng, VggConfig::vgg_tiny(IMAGE_SIZE, CLASSES))
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 32,
        base_schedule: PruneSchedule::channel_only(vec![0.6, 0.6]),
        ..ServeConfig::default()
    }
}

/// An fp32 `vgg_tiny` and its int8 twin.
fn twin_registry(seed: u64) -> ModelRegistry {
    let fp32: ModelFactory = Arc::new(move |_| Box::new(fresh_vgg(seed)));
    let calib_split = Split {
        images: Tensor::from_fn([4, 3, IMAGE_SIZE, IMAGE_SIZE], |i| {
            (i as f32 * 0.379).sin() * 0.5
        }),
        labels: vec![0; 4],
    };
    let calib = calibrate(&mut fresh_vgg(seed), &calib_split, 2, 2, CalibrationMethod::MinMax);
    let int8: ModelFactory = Arc::new(move |_| {
        Box::new(fresh_vgg(seed).quantize(calib.input_scale, &calib.tap_scales))
    });
    ModelRegistry::start(vec![
        ModelSpec {
            name: "fp32".to_string(),
            config: ServeConfig { quant: QuantMode::Off, ..serve_config() },
            factory: fp32,
            source: ModelSource::Built,
        },
        ModelSpec {
            name: "int8".to_string(),
            config: ServeConfig { quant: QuantMode::Int8, ..serve_config() },
            factory: int8,
            source: ModelSource::Built,
        },
    ])
    .expect("registry start")
}

fn start_server(rate: RateConfig) -> HttpServer {
    let config = HttpConfig {
        rate,
        read_timeout: Duration::from_secs(2),
        ..HttpConfig::default()
    };
    HttpServer::start(config, twin_registry(11)).expect("bind")
}

fn generous() -> RateConfig {
    RateConfig { rps: 100_000.0, burst: 100_000.0 }
}

fn input_json(i: usize) -> String {
    let values: Vec<String> = (0..3 * IMAGE_SIZE * IMAGE_SIZE)
        .map(|j| format!("{}", ((i * 193 + j * 7) % 23) as f32 * 0.04 - 0.44))
        .collect();
    format!("[{}]", values.join(","))
}

/// One-shot request over a fresh connection; returns (status, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, "POST", path, body);
    read_response(&mut stream)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, "GET", path, "");
    read_response(&mut stream)
}

fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes()).expect("send");
}

/// Reads one full response; returns (status, body).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .split("\r\n")
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("content-length header");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (status, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn concurrent_clients_get_budgeted_typed_responses_and_clean_drain() {
    let server = start_server(generous());
    let addr = server.local_addr();

    // ≥4 concurrent clients, mixed budgets/models/priorities, each on
    // its own socket.
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 4;
    let results: Vec<Vec<(u16, String, Option<f64>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for r in 0..PER_CLIENT {
                        let i = c * PER_CLIENT + r;
                        let model = if i.is_multiple_of(2) { "fp32" } else { "int8" };
                        let budget_frac = match i % 3 {
                            0 => None,
                            1 => Some(0.5),
                            _ => Some(0.05),
                        };
                        let priority = ["interactive", "standard", "batch"][i % 3];
                        let mut body = format!(
                            "{{\"model\":\"{model}\",\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}],\"priority\":\"{priority}\",\"deadline_ms\":5000",
                            input_json(i),
                        );
                        if let Some(f) = budget_frac {
                            body.push_str(&format!(",\"budget_frac\":{f}"));
                        }
                        body.push('}');
                        let (status, resp) = post(addr, "/v1/infer", &body);
                        out.push((status, resp, budget_frac));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });

    let mut fp32_seen = 0u64;
    let mut int8_seen = 0u64;
    for per_client in &results {
        for (status, body, budget_frac) in per_client {
            // Every outcome is typed: success or a typed SLO rejection.
            assert!(
                matches!(status, 200 | 408 | 503),
                "unexpected status {status}: {body}"
            );
            if *status != 200 {
                continue;
            }
            let resp: InferApiResponse = serde_json::from_str(body).expect("200 body");
            assert_eq!(resp.logits.len(), CLASSES);
            assert!(resp.class < CLASSES);
            match resp.model.as_str() {
                "fp32" => fp32_seen += 1,
                "int8" => int8_seen += 1,
                other => panic!("unknown model in response: {other}"),
            }
            // Budgets respected: achieved MACs never exceed the budget.
            if budget_frac.is_some() {
                let budget = resp.budget_macs.expect("budgeted request echoes budget");
                assert!(
                    resp.achieved_macs <= budget,
                    "achieved {} exceeds budget {budget}",
                    resp.achieved_macs
                );
            } else {
                assert_eq!(resp.budget_macs, None);
            }
        }
    }
    // Both variants were independently routable under concurrency.
    assert!(fp32_seen > 0, "fp32 model never served");
    assert!(int8_seen > 0, "int8 model never served");

    // /metrics sees both models and the front-end counters.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"fp32\""), "{metrics}");
    assert!(metrics.contains("\"int8\""), "{metrics}");
    assert!(metrics.contains("\"http\""), "{metrics}");
    assert!(metrics.contains("\"obs\""), "{metrics}");

    // Graceful drain: every admitted request above already completed;
    // final metrics account for all client-visible 200s with zero
    // connection resets (all reads above succeeded).
    let final_metrics = server.shutdown();
    let completed: u64 = final_metrics.iter().map(|(_, m)| m.completed).sum();
    assert_eq!(completed, fp32_seen + int8_seen);
    for (_, m) in &final_metrics {
        assert_eq!(m.queue_depth, 0, "drain left work queued");
    }
}

#[test]
fn unknown_model_is_a_typed_404_listing_the_registry() {
    let server = start_server(generous());
    let addr = server.local_addr();
    let body = format!(
        "{{\"model\":\"nope\",\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}]}}",
        input_json(0),
    );
    let (status, resp) = post(addr, "/v1/infer", &body);
    assert_eq!(status, 404, "{resp}");
    let err: ErrorBody = serde_json::from_str(&resp).expect("error body");
    assert_eq!(err.error, "model_not_found");
    let models = err.models.expect("registry names listed");
    // Entries are detailed `name (dtype, source)` lines so a client
    // picking the wrong route learns what each alternative actually is.
    assert!(models.contains(&"fp32 (fp32, built)".to_string()), "{models:?}");
    assert!(models.contains(&"int8 (int8, built)".to_string()), "{models:?}");
    server.shutdown();
}

#[test]
fn impossible_deadline_yields_typed_408() {
    let server = start_server(generous());
    let addr = server.local_addr();
    // Fill the batch window with work, then submit a 1ms-deadline
    // request that cannot be served in time.
    let warm = format!(
        "{{\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}]}}",
        input_json(1),
    );
    let (status, _) = post(addr, "/v1/infer", &warm);
    assert_eq!(status, 200);
    let rushed = format!(
        "{{\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}],\"deadline_ms\":1}}",
        input_json(2),
    );
    // The 1ms deadline may occasionally be met on an idle engine; accept
    // 200 but require any failure to be the typed 408.
    let mut saw_408 = false;
    for _ in 0..8 {
        let (status, body) = post(addr, "/v1/infer", &rushed);
        match status {
            200 => {}
            408 => {
                let err: ErrorBody = serde_json::from_str(&body).expect("error body");
                assert_eq!(err.error, "deadline_exceeded");
                saw_408 = true;
                break;
            }
            other => panic!("expected 200 or 408, got {other}: {body}"),
        }
    }
    assert!(saw_408, "a 1ms deadline never produced a typed 408");
    server.shutdown();
}

#[test]
fn seeded_burst_hits_the_rate_limit_with_retry_after() {
    // Tiny budget: 2 requests then a hard 429.
    let server = start_server(RateConfig { rps: 1.0, burst: 2.0 });
    let addr = server.local_addr();
    let body = format!(
        "{{\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}]}}",
        input_json(0),
    );
    let mut ok = 0;
    let mut limited = 0;
    for _ in 0..5 {
        let (status, resp) = post(addr, "/v1/infer", &body);
        match status {
            200 => ok += 1,
            429 => {
                limited += 1;
                let err: ErrorBody = serde_json::from_str(&resp).expect("429 body");
                assert_eq!(err.error, "rate_limited");
                assert!(err.retry_after_ms.is_some());
            }
            other => panic!("expected 200 or 429, got {other}: {resp}"),
        }
    }
    assert_eq!(ok, 2, "burst of 2 admits exactly 2");
    assert_eq!(limited, 3, "remaining requests are rate limited");
    // healthz and metrics stay exempt from the limiter.
    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(get(addr, "/metrics").0, 200);
    server.shutdown();
}

#[test]
fn drain_completes_in_flight_requests_without_resets() {
    let server = start_server(generous());
    let addr = server.local_addr();
    // Launch clients, then immediately start the drain: every
    // already-accepted connection must still get its full, typed
    // response (no resets), and the engines must flush their queues.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let model = if i % 2 == 0 { "fp32" } else { "int8" };
                let body = format!(
                    "{{\"model\":\"{model}\",\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}]}}",
                    input_json(i),
                );
                post(addr, "/v1/infer", &body)
            })
        })
        .collect();
    // Give the acceptor a moment to accept the connections, then drain
    // concurrently with the in-flight work.
    std::thread::sleep(Duration::from_millis(30));
    let final_metrics = server.shutdown();
    let mut ok = 0;
    for c in clients {
        let (status, body) = c.join().expect("client thread");
        // Accepted-before-drain connections complete normally; a client
        // racing the drain may be dropped pre-accept, but `post` would
        // have panicked on a reset mid-response — reaching here means
        // every response arrived whole.
        assert!(matches!(status, 200 | 503), "unexpected status {status}: {body}");
        if status == 200 {
            ok += 1;
        }
    }
    let completed: u64 = final_metrics.iter().map(|(_, m)| m.completed).sum();
    assert!(completed >= ok, "drain lost completions: {completed} < {ok}");
    for (_, m) in &final_metrics {
        assert_eq!(m.queue_depth, 0, "drain left work queued");
    }
}

#[test]
fn healthz_lists_models_and_keep_alive_reuses_the_connection() {
    let server = start_server(generous());
    let addr = server.local_addr();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");
    assert!(body.contains("\"fp32\"") && body.contains("\"int8\""), "{body}");

    // Two requests down one connection: keep-alive works.
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, "GET", "/healthz", "");
    let (s1, _) = read_response(&mut stream);
    send_request(&mut stream, "GET", "/healthz", "");
    let (s2, _) = read_response(&mut stream);
    assert_eq!((s1, s2), (200, 200));
    server.shutdown();
}
