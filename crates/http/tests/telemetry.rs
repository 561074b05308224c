//! Telemetry acceptance over real sockets: `x-antidote-trace`
//! round-trips end to end (header in → header/body out → flight
//! recorder), `/debug/traces` exposes slow and errored exemplars, and
//! the Prometheus exposition stays structurally valid while concurrent
//! clients mutate every counter behind it.

use antidote_core::PruneSchedule;
use antidote_http::{HttpConfig, HttpServer, InferApiResponse, ModelRegistry, ModelSource, ModelSpec};
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{ModelFactory, ServeConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

const IMAGE_SIZE: usize = 8;
const CLASSES: usize = 3;

/// Both tests toggle the process-global observability flag and read the
/// global flight recorder; serialize them.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_server() -> HttpServer {
    let factory: ModelFactory = Arc::new(|_| {
        let mut rng = SmallRng::seed_from_u64(11);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(IMAGE_SIZE, CLASSES)))
    });
    let registry = ModelRegistry::start(vec![ModelSpec {
        name: "vgg-tiny".to_string(),
        config: ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_capacity: 64,
            base_schedule: PruneSchedule::channel_only(vec![0.7, 0.7]),
            ..ServeConfig::default()
        },
        factory,
        source: ModelSource::Built,
    }])
    .expect("registry start");
    HttpServer::start(
        HttpConfig {
            read_timeout: Duration::from_secs(2),
            ..HttpConfig::default()
        },
        registry,
    )
    .expect("bind")
}

fn input_json(i: usize) -> String {
    let values: Vec<String> = (0..3 * IMAGE_SIZE * IMAGE_SIZE)
        .map(|j| format!("{}", ((i * 193 + j * 7) % 23) as f32 * 0.04 - 0.44))
        .collect();
    format!("[{}]", values.join(","))
}

fn infer_body(i: usize) -> String {
    format!(
        "{{\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}]}}",
        input_json(i)
    )
}

/// One request over a fresh connection; returns (status, headers, body)
/// with header names lowercased.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> (u16, HashMap<String, String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nhost: test\r\n");
    for (name, value) in extra_headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("send");
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
    let mut headers = HashMap::new();
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let content_length: usize = headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .expect("content-length header");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (status, headers, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn trace_ids_round_trip_and_land_in_the_flight_recorder() {
    let _guard = obs_lock();
    antidote_obs::reset();
    antidote_obs::clear_recorder();
    antidote_obs::set_enabled(true);

    let server = start_server();
    let addr = server.local_addr();

    // An inbound id is honored, echoed on the header and in the body as
    // the canonical (zero-padded) 32-hex rendering.
    let padded = format!("{:0>32}", "abc123");
    let (status, headers, body) = request(
        addr,
        "POST",
        "/v1/infer",
        &[("x-antidote-trace", "abc123")],
        &infer_body(0),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(headers.get("x-antidote-trace"), Some(&padded), "{headers:?}");
    let resp: InferApiResponse = serde_json::from_str(&body).expect("200 body");
    assert_eq!(resp.trace_id.as_deref(), Some(padded.as_str()));

    // An untraced request gets a minted id while observability is on.
    let (status, headers, body) =
        request(addr, "POST", "/v1/infer", &[], &infer_body(1));
    assert_eq!(status, 200, "{body}");
    let minted = headers
        .get("x-antidote-trace")
        .expect("minted id echoed on the response header");
    assert_eq!(minted.len(), 32);
    assert_ne!(*minted, padded);

    // A synchronous rejection (invalid budget → 422) is recorded by the
    // HTTP layer under the submitted id.
    let errored_id = format!("{:0>32}", "feedc0de");
    let bad = format!(
        "{{\"input\":{},\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}],\"budget_macs\":-1.0}}",
        input_json(2)
    );
    let (status, headers, body) = request(
        addr,
        "POST",
        "/v1/infer",
        &[("x-antidote-trace", "feedc0de")],
        &bad,
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(headers.get("x-antidote-trace"), Some(&errored_id));
    assert!(body.contains(&errored_id), "error body echoes the id: {body}");

    // /debug/traces exposes both exemplar sets.
    let (status, headers, traces) = request(addr, "GET", "/debug/traces", &[], "");
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    assert!(traces.contains(&padded), "ok trace retained: {traces}");
    assert!(traces.contains("\"model\":\"vgg-tiny\""), "{traces}");
    assert!(traces.contains("queue.wait"), "span tree present: {traces}");
    assert!(traces.contains(&errored_id), "errored trace retained: {traces}");
    assert!(traces.contains("\"outcome\":\"budget_infeasible\""), "{traces}");

    server.shutdown();
    antidote_obs::set_enabled(false);
    antidote_obs::clear_recorder();
    antidote_obs::reset();
}

/// Every `antidote_http_*` / `antidote_serve_*` `# TYPE` family the
/// exposition carries after inference traffic, sorted, except the
/// windowed `_rate` gauges (DESIGN.md §14 has the table of renames from
/// the hand-rendered exposition this replaced).
const PINNED_FAMILIES: &[&str] = &[
    "antidote_http_connections_total",
    "antidote_http_rate_limited_total",
    "antidote_http_recv_errors_total",
    "antidote_http_requests_total",
    "antidote_http_responses_2xx_total",
    "antidote_http_responses_4xx_total",
    "antidote_http_responses_5xx_total",
    "antidote_serve_achieved_macs_total",
    "antidote_serve_admitted_batch_total",
    "antidote_serve_admitted_interactive_total",
    "antidote_serve_admitted_standard_total",
    "antidote_serve_batch_live_00_total",
    "antidote_serve_batch_live_01_total",
    "antidote_serve_batch_live_02_total",
    "antidote_serve_batch_live_03_total",
    "antidote_serve_batch_live_04_total",
    "antidote_serve_batches_total",
    "antidote_serve_budgeted_total",
    "antidote_serve_chaos_kills",
    "antidote_serve_completed_total",
    "antidote_serve_degraded_total",
    "antidote_serve_evicted_total",
    "antidote_serve_expired_total",
    "antidote_serve_infeasible_total",
    "antidote_serve_latency_ms",
    "antidote_serve_latency_ms_60s",
    "antidote_serve_measured_macs_total",
    "antidote_serve_panicked_total",
    "antidote_serve_queue_depth",
    "antidote_serve_queue_wait_ms",
    "antidote_serve_queue_wait_ms_60s",
    "antidote_serve_rejected_full_total",
    "antidote_serve_shed_batch_total",
    "antidote_serve_shed_interactive_total",
    "antidote_serve_shed_standard_total",
    "antidote_serve_shed_total",
    "antidote_serve_worker_panics_total",
];

/// Splits a sample line into `(metric_name, labels, value)`.
fn parse_sample(line: &str) -> (&str, &str, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse().unwrap_or_else(|_| panic!("bad value in {line}")),
    };
    match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest.strip_suffix('}').expect("closed label set");
            (name, labels, value)
        }
        None => (series, "", value),
    }
}

#[test]
fn prometheus_exposition_stays_valid_under_concurrent_load() {
    let _guard = obs_lock();
    antidote_obs::reset();
    antidote_obs::clear_recorder();
    antidote_obs::set_enabled(true);

    let server = start_server();
    let addr = server.local_addr();

    // Concurrent writers (infer traffic) and readers (scrapes) racing
    // the exposition build.
    std::thread::scope(|scope| {
        for c in 0..3 {
            scope.spawn(move || {
                for r in 0..6 {
                    let (status, _, body) =
                        request(addr, "POST", "/v1/infer", &[], &infer_body(c * 6 + r));
                    assert_eq!(status, 200, "{body}");
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(move || {
                for _ in 0..5 {
                    let (status, _, _) =
                        request(addr, "GET", "/metrics?format=prom", &[], "");
                    assert_eq!(status, 200);
                }
            });
        }
    });

    // Both negotiation paths reach the text exposition; plain GET stays
    // JSON.
    let (_, headers, _) = request(addr, "GET", "/metrics", &[], "");
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    let (_, headers, accept_text) =
        request(addr, "GET", "/metrics", &[("accept", "text/plain")], "");
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4")
    );
    let (status, headers, text) =
        request(addr, "GET", "/metrics?format=prom", &[], "");
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4")
    );
    assert!(accept_text.starts_with("# TYPE"), "{accept_text}");

    // Structural lint over the final scrape.
    let mut families: HashMap<String, String> = HashMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name + kind");
            assert!(
                families.insert(name.to_string(), kind.to_string()).is_none(),
                "family declared twice: {name}"
            );
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary"),
                "unknown kind in {line}"
            );
            current = Some(name.to_string());
            continue;
        }
        // Every sample belongs to the family declared immediately above.
        let family = current.as_deref().expect("sample before any TYPE line");
        let (name, labels, value) = parse_sample(line);
        assert!(
            name.starts_with(family),
            "sample {name} outside family {family}"
        );
        assert!(!value.is_nan() || labels.contains("quantile"), "NaN in {line}");
        // Label values stay quoted and paired.
        if !labels.is_empty() {
            for pair in labels.split("\",") {
                let (k, v) = pair.split_once("=\"").unwrap_or_else(|| {
                    panic!("malformed label pair `{pair}` in {line}")
                });
                assert!(!k.is_empty() && !k.contains('"'), "{line}");
                assert!(!v.contains('\n'), "{line}");
            }
        }
    }

    // The front-end and engine family set is pinned: a family that
    // appears or disappears here is a change to what operators scrape.
    // A `_rate` gauge exists only while its counter moved in the last
    // 60 s (which batch sizes occurred is timing-dependent), so those
    // are checked against the counters instead.
    let (rates, mut served): (Vec<&str>, Vec<&str>) = families
        .keys()
        .map(String::as_str)
        .filter(|n| n.starts_with("antidote_http_") || n.starts_with("antidote_serve_"))
        .partition(|n| n.ends_with("_rate"));
    served.sort_unstable();
    assert_eq!(served, PINNED_FAMILIES, "{text}");
    for rate in &rates {
        let counter = format!("{}_total", rate.strip_suffix("_rate").unwrap());
        assert!(families.contains_key(&counter), "{rate} windows no counter");
    }
    assert!(rates.contains(&"antidote_serve_completed_rate"), "{text}");
    // The engine records its queue depth, chaos kills and live batch
    // sizes in its own registry only: the global obs registry holds no
    // twin of them.
    let twins: Vec<&String> = families
        .keys()
        .filter(|n| {
            n.starts_with("antidote_obs_serve_queue_depth")
                || n.starts_with("antidote_obs_serve_chaos_kills_total")
                || (n.starts_with("antidote_obs_serve_worker") && n.contains("_batch_live"))
        })
        .collect();
    assert!(twins.is_empty(), "global twins of engine metrics: {twins:?}");

    // The engine's traffic showed up.
    assert_eq!(families.get("antidote_http_requests_total").map(String::as_str), Some("counter"));
    assert!(
        text.contains("antidote_serve_completed_total{model=\"vgg-tiny\"} 18"),
        "{text}"
    );

    // Histogram invariants: within each family, cumulative buckets are
    // monotone and the +Inf bucket equals _count (per label set — one
    // model here, so each family's bucket run is one label set).
    for (family, _) in families.iter().filter(|(_, k)| *k == "histogram") {
        let bucket_prefix = format!("{family}_bucket{{");
        let mut prev = 0.0;
        let mut inf = None;
        for line in text.lines().filter(|l| l.starts_with(&bucket_prefix)) {
            let (_, labels, value) = parse_sample(line);
            assert!(value >= prev, "non-monotone buckets in {family}: {line}");
            prev = value;
            if labels.contains("le=\"+Inf\"") {
                inf = Some(value);
            }
        }
        let inf = inf.unwrap_or_else(|| panic!("{family} has no +Inf bucket"));
        let count_line = text
            .lines()
            .find(|l| l.starts_with(&format!("{family}_count")))
            .unwrap_or_else(|| panic!("{family} has no _count"));
        let (_, _, count) = parse_sample(count_line);
        assert_eq!(inf, count, "{family}: +Inf bucket != _count");
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{family}_sum"))),
            "{family} has no _sum"
        );
    }
    // The traffic above produced at least one histogram family.
    assert!(
        families.values().any(|k| k == "histogram"),
        "no histograms in the exposition: {text}"
    );

    server.shutdown();
    antidote_obs::set_enabled(false);
    antidote_obs::clear_recorder();
    antidote_obs::reset();
}
