//! The two closed-loop clients: a keep-alive HTTP/1.1 connection sending
//! pre-rendered `POST /v1/infer` bytes, and an in-process `ServeHandle`
//! slot. Both only write, read and parse the small response.

use crate::load::{Client, ReqSpec, Response};
use crate::models::{Pool, IMAGE};
use antidote_http::InferApiResponse;
use antidote_serve::{InferRequest, ServeHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Full request bytes (head and JSON body) for one planned request.
pub fn render_request(model: &str, spec: ReqSpec, pool: &Pool) -> Vec<u8> {
    let mut body = format!(
        "{{\"model\":\"{model}\",\"input\":{},\"shape\":[3,{IMAGE},{IMAGE}]",
        pool.json[spec.input]
    );
    if let Some(frac) = spec.tier.budget_frac() {
        body.push_str(&format!(",\"budget_frac\":{frac}"));
    }
    body.push('}');
    format!(
        "POST /v1/infer HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Pre-renders every distinct request of `plan`.
pub fn render_plan(
    models: &[String],
    plan: &[ReqSpec],
    pool: &Pool,
) -> Arc<HashMap<ReqSpec, Vec<u8>>> {
    let mut rendered = HashMap::new();
    for &spec in plan {
        rendered
            .entry(spec)
            .or_insert_with(|| render_request(&models[spec.model], spec, pool));
    }
    Arc::new(rendered)
}

/// Reads one `Content-Length` response into `buf`; returns
/// `(status, body range, keep-alive)`.
fn read_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Result<(u16, std::ops::Range<usize>, bool), String> {
    buf.clear();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let mut content_length = 0usize;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| "bad content-length")?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.trim().eq_ignore_ascii_case("close");
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok((status, body_start..body_start + content_length, keep_alive))
}

/// One keep-alive connection to the in-process server.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    requests: Arc<HashMap<ReqSpec, Vec<u8>>>,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// Every `scrape_every`-th request is preceded by a `GET /metrics`.
    scrape_every: Option<usize>,
    issued: usize,
    /// `(requests issued before it, milliseconds)` per scrape.
    pub scrapes: Vec<(usize, f64)>,
    connects: u64,
    pub status_other: u64,
}

impl HttpClient {
    pub fn new(
        addr: SocketAddr,
        requests: Arc<HashMap<ReqSpec, Vec<u8>>>,
        scrape_every: Option<usize>,
    ) -> Self {
        Self {
            addr,
            requests,
            conn: None,
            buf: Vec::with_capacity(8192),
            scrape_every,
            issued: 0,
            scrapes: Vec::new(),
            connects: 0,
            status_other: 0,
        }
    }

    /// Connections opened beyond the first.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Writes `bytes` and reads the response into `self.buf`.
    fn exchange(&mut self, bytes: &[u8]) -> Result<(u16, std::ops::Range<usize>, Instant), String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            self.conn = Some(stream);
            self.connects += 1;
        }
        let stream = self.conn.as_mut().expect("connection just ensured");
        let result = stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream, &mut self.buf));
        let done = Instant::now();
        match result {
            Ok((status, body, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok((status, body, done))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

impl Client for HttpClient {
    fn issue(&mut self, spec: ReqSpec) -> Result<Response, String> {
        self.issued += 1;
        if self
            .scrape_every
            .is_some_and(|n| self.issued.is_multiple_of(n))
        {
            let sent = Instant::now();
            let (status, _, done) =
                self.exchange(b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n")?;
            if status != 200 {
                self.status_other += 1;
                return Err(format!("GET /metrics answered {status}"));
            }
            self.scrapes
                .push((self.issued, (done - sent).as_secs_f64() * 1e3));
        }
        let requests = Arc::clone(&self.requests);
        let sent = Instant::now();
        let (status, body, done) = self.exchange(&requests[&spec])?;
        let body = std::str::from_utf8(&self.buf[body]).map_err(|_| "non-UTF-8 body")?;
        if status != 200 {
            self.status_other += 1;
            return Err(format!("POST /v1/infer answered {status}: {body}"));
        }
        let r: InferApiResponse =
            serde_json::from_str(body).map_err(|e| format!("unparseable 200 body: {e}"))?;
        Ok(Response {
            sent,
            done,
            engine_ms: r.latency_ms,
            queue_ms: r.queue_wait_ms,
            batch: r.batch_size,
            budget: r.budget_macs,
            achieved_macs: r.achieved_macs,
            degraded: r.degraded,
            class: r.class,
            logits: r.logits,
        })
    }
}

/// One in-flight slot on in-process engines (one handle per model).
#[derive(Debug)]
pub struct EngineClient<'a> {
    pub handles: Vec<ServeHandle>,
    pub pool: &'a Pool,
}

/// Builds the engine request for `spec`, as the HTTP API would.
pub fn engine_request(handle: &ServeHandle, spec: ReqSpec, pool: &Pool) -> InferRequest {
    let request = InferRequest::new(pool.tensors[spec.input].clone());
    match spec
        .tier
        .budget_macs(handle.floor_macs(), handle.dense_macs())
    {
        Some(budget) => request.with_budget(budget),
        None => request,
    }
}

impl Client for EngineClient<'_> {
    fn issue(&mut self, spec: ReqSpec) -> Result<Response, String> {
        let handle = &self.handles[spec.model];
        let request = engine_request(handle, spec, self.pool);
        let sent = Instant::now();
        let r = handle
            .submit(request)
            .and_then(|pending| pending.wait())
            .map_err(|e| format!("engine refused or lost a closed-loop request: {e}"))?;
        let done = Instant::now();
        Ok(Response {
            sent,
            done,
            engine_ms: r.latency.as_secs_f64() * 1e3,
            queue_ms: r.queue_wait.as_secs_f64() * 1e3,
            batch: r.batch_size,
            budget: r.budget,
            achieved_macs: r.achieved_macs,
            degraded: r.degraded,
            class: r.class,
            logits: r.logits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::request_plan;
    use crate::models::{input_pool, Tier};

    #[test]
    fn same_seed_renders_byte_identical_requests() {
        let models = ["a".to_string(), "b".to_string()];
        let render = |seed| {
            let pool = input_pool(seed);
            let plan = request_plan(seed, 40, 2, 2, &Tier::MIXED);
            let rendered = render_plan(&models, &plan, &pool);
            plan.iter().map(|s| rendered[s].clone()).collect::<Vec<_>>()
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
        let one = String::from_utf8(render(7).swap_remove(0)).unwrap();
        assert!(one.starts_with("POST /v1/infer HTTP/1.1\r\n"));
        let (head, body) = one.split_once("\r\n\r\n").unwrap();
        assert!(head.contains(&format!("content-length: {}", body.len())));
    }
}
