//! Hostile-input coverage: malformed JSON, oversized payloads,
//! slow-loris drip-feeding, and premature disconnects must each produce
//! a typed 4xx/408 (or a silent close) without stalling a connection
//! worker or leaking a queue ticket — proven by the server answering a
//! well-formed follow-up request normally and draining with an empty
//! queue.

use antidote_http::{
    ErrorBody, HttpConfig, HttpServer, ModelRegistry, ModelSource, ModelSpec, RateConfig,
};
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{ModelFactory, ServeConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const IMAGE_SIZE: usize = 16;

fn registry() -> ModelRegistry {
    let factory: ModelFactory = Arc::new(|_| {
        let mut rng = SmallRng::seed_from_u64(3);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(IMAGE_SIZE, 4)))
    });
    ModelRegistry::start(vec![ModelSpec {
        name: "only".to_string(),
        config: ServeConfig { workers: 1, ..ServeConfig::default() },
        factory,
        source: ModelSource::Built,
    }])
    .expect("registry")
}

fn start_server() -> HttpServer {
    let config = HttpConfig {
        // Short read deadline so the slow-loris test concludes quickly;
        // small body cap so the oversize test needs little traffic.
        read_timeout: Duration::from_millis(300),
        max_body: 64 * 1024,
        rate: RateConfig { rps: 100_000.0, burst: 100_000.0 },
        conn_workers: 2,
        ..HttpConfig::default()
    };
    HttpServer::start(config, registry()).expect("bind")
}

fn valid_body() -> String {
    let values: Vec<String> = (0..3 * IMAGE_SIZE * IMAGE_SIZE)
        .map(|j| format!("{}", (j % 7) as f32 * 0.1))
        .collect();
    format!(
        "{{\"input\":[{}],\"shape\":[3,{IMAGE_SIZE},{IMAGE_SIZE}]}}",
        values.join(",")
    )
}

fn post_raw(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    read_response(&mut stream)
}

fn post_body(addr: SocketAddr, body: &str) -> (u16, String) {
    post_raw(
        addr,
        format!(
            "POST /v1/infer HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

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
        .expect("content-length");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (status, String::from_utf8_lossy(&body).to_string())
}

/// The follow-up probe every hostile case ends with: a well-formed
/// request must still be answered normally, proving no worker stalled
/// and no queue ticket leaked.
fn assert_still_serving(addr: SocketAddr) {
    let (status, body) = post_body(addr, &valid_body());
    assert_eq!(status, 200, "server unhealthy after hostile input: {body}");
}

fn error_kind(body: &str) -> String {
    let err: ErrorBody = serde_json::from_str(body).expect("typed error body");
    err.error
}

#[test]
fn malformed_json_is_typed_400() {
    let server = start_server();
    let addr = server.local_addr();
    for bad in [
        "{not json",
        "[]",
        "{\"input\": \"strings\", \"shape\": [3]}",
        "{\"input\": [0.1], \"shape\": [3, 16, 16]}",
        "\u{0}\u{1}\u{2}",
    ] {
        let (status, body) = post_body(addr, bad);
        assert_eq!(status, 400, "payload {bad:?} → {body}");
        let kind = error_kind(&body);
        assert!(
            kind == "invalid_json" || kind == "bad_shape",
            "payload {bad:?} → kind {kind}"
        );
    }
    // Bad priority and double budget are typed 400s too.
    let (status, body) = post_body(
        addr,
        "{\"input\": [0.0], \"shape\": [1, 1, 1], \"priority\": \"vip\"}",
    );
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "bad_priority");
    let (status, body) = post_body(
        addr,
        "{\"input\": [0.0], \"shape\": [1, 1, 1], \"budget_macs\": 1.0, \"budget_frac\": 0.5}",
    );
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "bad_budget");
    assert_still_serving(addr);
    let final_metrics = server.shutdown();
    assert_eq!(final_metrics[0].1.queue_depth, 0);
}

#[test]
fn oversized_payload_is_typed_413_without_reading_it_all() {
    let server = start_server();
    let addr = server.local_addr();
    // Declared length over the cap: rejected from the header alone.
    let (status, body) = post_raw(
        addr,
        b"POST /v1/infer HTTP/1.1\r\nhost: t\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    assert_eq!(error_kind(&body), "payload_too_large");
    // A huge header block is typed too (431).
    let mut raw = b"GET /healthz HTTP/1.1\r\nhost: t\r\n".to_vec();
    for i in 0..2000 {
        raw.extend_from_slice(format!("x-pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let (status, body) = post_raw(addr, &raw);
    assert_eq!(status, 431, "{body}");
    assert_still_serving(addr);
    let final_metrics = server.shutdown();
    assert_eq!(final_metrics[0].1.queue_depth, 0);
}

#[test]
fn slow_loris_gets_typed_408_at_the_absolute_deadline() {
    let server = start_server();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Drip bytes slower than the request completes: each write resets
    // nothing — the deadline is absolute from the first byte.
    stream.write_all(b"POST /v1/infer HT").expect("drip 1");
    for chunk in [b"TP/1.1\r\nhos".as_slice(), b"t: t\r\ncon".as_slice()] {
        std::thread::sleep(Duration::from_millis(120));
        stream.write_all(chunk).expect("drip");
    }
    // Keep dripping past the 300ms deadline.
    std::thread::sleep(Duration::from_millis(150));
    let _ = stream.write_all(b"tent-length: 4\r\n");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 408, "{body}");
    assert_eq!(error_kind(&body), "request_timeout");
    assert_still_serving(addr);
    let final_metrics = server.shutdown();
    assert_eq!(final_metrics[0].1.queue_depth, 0);
}

#[test]
fn premature_disconnect_leaves_no_stalled_worker_or_leaked_ticket() {
    let server = start_server();
    let addr = server.local_addr();
    // Disconnect mid-head, mid-body, and before speaking at all.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /v1/infer HTTP/1.1\r\ncontent-").expect("send");
    } // dropped: close mid-head
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /v1/infer HTTP/1.1\r\nhost: t\r\ncontent-length: 500\r\n\r\n{\"inp")
            .expect("send");
    } // dropped: close mid-body
    {
        let _s = TcpStream::connect(addr).expect("connect");
    } // dropped: never spoke
    // Brief pause so the server observes the disconnects.
    std::thread::sleep(Duration::from_millis(50));
    // With only 2 connection workers, two stalled connections would
    // deadlock this probe — answering proves no worker is stuck.
    assert_still_serving(addr);
    assert_still_serving(addr);
    let final_metrics = server.shutdown();
    assert_eq!(final_metrics[0].1.completed, 2);
    assert_eq!(final_metrics[0].1.queue_depth, 0, "leaked queue ticket");
}

#[test]
fn unsupported_routes_and_framing_are_typed() {
    let server = start_server();
    let addr = server.local_addr();
    // Unknown path → 404.
    let (status, body) = post_raw(
        addr,
        b"GET /nope HTTP/1.1\r\nhost: t\r\n\r\n",
    );
    assert_eq!(status, 404);
    assert_eq!(error_kind(&body), "not_found");
    // Wrong method on a known route → 405.
    let (status, body) = post_raw(
        addr,
        b"GET /v1/infer HTTP/1.1\r\nhost: t\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert_eq!(error_kind(&body), "method_not_allowed");
    // POST without Content-Length → 411.
    let (status, body) = post_raw(
        addr,
        b"POST /v1/infer HTTP/1.1\r\nhost: t\r\n\r\n",
    );
    assert_eq!(status, 411);
    assert_eq!(error_kind(&body), "length_required");
    // Chunked encoding → 501.
    let (status, body) = post_raw(
        addr,
        b"POST /v1/infer HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 501);
    assert_eq!(error_kind(&body), "unsupported_encoding");
    // Garbage request line → 400.
    let (status, body) = post_raw(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "malformed_request");
    assert_still_serving(addr);
    server.shutdown();
}

#[test]
fn invalid_rate_limit_refuses_to_start() {
    for rate in [RateConfig { rps: 0.0, burst: 1.0 }, RateConfig { rps: 1.0, burst: 0.5 }] {
        let config = HttpConfig { rate, ..HttpConfig::default() };
        let err = HttpServer::start(config, registry()).expect_err("invalid rate limit");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}
