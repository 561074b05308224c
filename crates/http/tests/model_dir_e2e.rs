//! A model directory end to end: `.adm` artifacts on disk →
//! `specs_from_dir` → live server → infer over a real socket, with the
//! detailed 404 body naming dtype and file source.

use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::CalibrationMethod;
use antidote_http::{HttpConfig, HttpServer, ModelRegistry};
use antidote_modelfile::ModelArtifact;
use antidote_models::{Vgg, VggConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const IMAGE_SIZE: usize = 8;
const CLASSES: usize = 3;

fn post(addr: std::net::SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "POST /v1/infer HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len(),
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn model_dir_cold_starts_and_serves_over_sockets() {
    // Publish fp32 + int8 artifacts the way `convert` would.
    let dir = std::env::temp_dir().join(format!("adm_http_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = VggConfig::vgg_tiny(IMAGE_SIZE, CLASSES);
    let mut net = Vgg::new(&mut SmallRng::seed_from_u64(17), config.clone());
    let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
    let fp32 = ModelArtifact::from_checkpoint(&ckpt, None).unwrap();
    fp32.save(dir.join("tiny-fp32.adm")).unwrap();
    let int8 = fp32.quantize(CalibrationMethod::MinMax, 16, 4, 0).unwrap();
    int8.save(dir.join("tiny-int8.adm")).unwrap();
    let (fp32_bytes, int8_bytes) = (fp32.weight_bytes(), int8.weight_bytes());
    assert!(int8_bytes < fp32_bytes);

    antidote_obs::set_enabled(true);
    let _ = antidote_obs::drain_events();
    let specs = ModelRegistry::specs_from_dir(&dir).unwrap();
    assert_eq!(specs.len(), 2, "one spec per .adm file");
    let registry = ModelRegistry::start(specs).unwrap();

    // What each model costs is on the event stream: one resident copy of
    // the weights however many replicas serve it.
    let events = antidote_obs::drain_events();
    for (model, bytes) in [("tiny-fp32", fp32_bytes), ("tiny-int8", int8_bytes)] {
        let event = |kind: &str| {
            events
                .iter()
                .find(|l| l.contains(&format!("\"kind\":\"{kind}\"")) && l.contains(model))
                .unwrap_or_else(|| panic!("no {kind} event for {model}: {events:?}"))
        };
        let load = event("model.load");
        assert!(
            load.contains(&format!("\"weight_bytes\":{bytes}")),
            "{load}"
        );
        assert!(load.contains("\"build_ms\":"), "{load}");
        let registered = event("http.model_registered");
        assert!(
            registered.contains(&format!("\"weight_bytes_resident\":{bytes}")),
            "{registered}"
        );
        assert!(registered.contains("\"replicas\":2"), "{registered}");
    }
    let server = HttpServer::start(HttpConfig::default(), registry).expect("bind");
    let addr = server.local_addr();

    // The file-loaded int8 twin serves a real request over the wire.
    let values: Vec<String> = (0..3 * IMAGE_SIZE * IMAGE_SIZE)
        .map(|j| format!("{}", ((j * 7) % 23) as f32 * 0.04 - 0.44))
        .collect();
    let infer = format!(
        r#"{{"model":"tiny-int8","input":[{}],"shape":[3,{IMAGE_SIZE},{IMAGE_SIZE}]}}"#,
        values.join(",")
    );
    let (status, body) = post(addr, &infer);
    assert_eq!(status, 200, "infer against file-loaded model: {body}");
    assert!(body.contains(r#""model":"tiny-int8""#) && body.contains(r#""logits""#), "{body}");

    // Misnaming a model lists what is served, at which dtype, from where.
    let (status, body) = post(addr, r#"{"model":"nope","input":[0.0],"shape":[1,1,1]}"#);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("tiny-fp32 (fp32, file:"), "404 lacks fp32 source: {body}");
    assert!(body.contains("tiny-int8 (int8, file:"), "404 lacks int8 source: {body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
