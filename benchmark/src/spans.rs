//! The benchmark's own in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's files only, around the calls
//! into each layer; they stay in memory and are written to `trace.json`
//! when the run ends. A span's self time is its duration minus the part
//! of that interval its children cover.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` 0 means a root; `request` 0 means the
/// span belongs to no request (a direct layer call).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

/// Thread-safe recorder; every timestamp is relative to its creation.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    pub fn record(&self, parent: u64, request: u64, name: &str, start_us: f64, end_us: f64) -> u64 {
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_us,
            end_us,
        });
        id
    }

    /// Times `f` as a root span with no request (a direct layer call).
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(0, 0, name, self.at(start), self.at(end));
        (out, (end - start).as_secs_f64())
    }

    /// One request's span tree: a root from send to response whose
    /// children carry the durations the response reported. Only the
    /// durations are measured; the children are laid end to end.
    pub fn request(&self, request: u64, sent: Instant, done: Instant, parts: &[(&str, f64)]) {
        let (start, end) = (self.at(sent), self.at(done));
        let root = self.record(0, request, "request", start, end);
        let mut cursor = start;
        for &(name, ms) in parts {
            let stop = (cursor + ms.max(0.0) * 1e3).min(end);
            self.record(root, request, name, cursor, stop);
            cursor = stop;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no span is recorded while panicking")
    }
}

/// Self time per span id: duration minus the union of the children's
/// intervals clipped to the span.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            let mut reach = s.start_us;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_us - s.start_us - covered).max(0.0))
        })
        .collect()
}

/// The `trace.json` document: every span, and self time summed by name.
pub fn trace_document(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let self_us = self_times_us(spans);
    let mut by_name: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += self_us[&s.id];
    }
    let span_rows = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".into(), Value::U64(s.id)),
                ("parent".into(), Value::U64(s.parent)),
                ("request".into(), Value::U64(s.request)),
                ("name".into(), Value::Str(s.name.clone())),
                ("start_us".into(), Value::F64(s.start_us)),
                ("end_us".into(), Value::F64(s.end_us)),
            ])
        })
        .collect();
    let self_rows = by_name
        .into_iter()
        .map(|(name, (count, us))| {
            Value::Object(vec![
                ("name".into(), Value::Str(name.to_string())),
                ("spans".into(), Value::U64(count)),
                ("self_ms".into(), Value::F64(us / 1e3)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.to_string())),
        ("seed".into(), Value::U64(seed)),
        ("self_time_by_name".into(), Value::Array(self_rows)),
        ("spans".into(), Value::Array(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 40.0),
            span(3, 1, 50.0, 70.0),
        ];
        let st = self_times_us(&spans);
        assert_eq!(st[&1], 50.0);
        assert_eq!(st[&2], 30.0);
        assert_eq!(st[&3], 20.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children overlap each other (20..60 and 40..80) and one runs
        // past the parent's end: covered = 20..100 clipped = 80.
        let spans = vec![
            span(1, 0, 0.0, 100.0),
            span(2, 1, 20.0, 60.0),
            span(3, 1, 40.0, 80.0),
            span(4, 1, 80.0, 130.0),
        ];
        assert_eq!(self_times_us(&spans)[&1], 20.0);
    }

    #[test]
    fn request_tree_links_children_to_its_root() {
        let rec = Recorder::new();
        let sent = Instant::now();
        let done = sent + std::time::Duration::from_millis(10);
        rec.request(
            7,
            sent,
            done,
            &[
                ("http.overhead", 1.0),
                ("serve.queue_wait", 2.0),
                ("serve.service", 7.0),
            ],
        );
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == spans[0].id && s.request == 7));
        let st = self_times_us(&spans);
        assert!(
            st[&spans[0].id].abs() < 1e-6,
            "children cover the whole request"
        );
    }
}
