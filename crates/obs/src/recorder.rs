//! Flight recorder: a bounded store of complete per-request trace
//! records, retaining exemplars — the slowest-N successful requests and
//! the most recent errored ones.
//!
//! The serving stack builds one [`TraceRecord`] per traced request
//! (queue wait, shed/degrade decision, schedule scale, batch id and
//! occupancy, per-layer spans and MAC counters) and hands it to
//! [`record_trace`]. Retention is two independent bounded sets:
//!
//! - **slow**: the N highest-`total_ns` records with `outcome == "ok"`
//!   (cap [`DEFAULT_SLOW_CAP`], 16);
//! - **errored**: the most recent records with any other outcome
//!   (ring semantics, cap [`DEFAULT_ERROR_CAP`], 64).
//!
//! [`traces_json`] renders both sets for `GET /debug/traces`;
//! [`recorder_dump_events`] flushes summaries into the JSONL event ring
//! on graceful drain so a terminating process leaves its exemplars in
//! the trace file. Recording is a no-op while observability is
//! disabled.

use crate::json;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// Cap of the slowest-N set.
pub const DEFAULT_SLOW_CAP: usize = 16;
/// Cap of the errored ring.
pub const DEFAULT_ERROR_CAP: usize = 64;

/// One span inside a [`TraceRecord`], in nanoseconds relative to the
/// request's submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpanRec {
    /// Span name (e.g. `queue.wait`, `fwd.layer03`).
    pub name: String,
    /// Start offset from request submission, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// The complete post-hoc explanation of one traced request.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// 32-hex-char trace id (echoed to the client).
    pub trace_id: String,
    /// Model route the request resolved to (empty if it never did).
    pub model: String,
    /// `"ok"` or the typed error kind (`deadline_exceeded`, …).
    pub outcome: String,
    /// Human-readable error detail (empty on success).
    pub detail: String,
    /// Priority lane label.
    pub priority: String,
    /// Admission decision: `admit`, `degrade`, or `shed`.
    pub shed: String,
    /// Schedule scale the request ran (or would have run) at.
    pub schedule_scale: f64,
    /// Whether admission degraded the request's schedule.
    pub degraded: bool,
    /// Requested MAC budget (`None` when the request ran dense).
    pub budget_macs: Option<f64>,
    /// MACs actually spent.
    pub achieved_macs: f64,
    /// Batch the request executed in (0 if it never reached one).
    pub batch_id: u64,
    /// Requests in that batch.
    pub batch_occupancy: u64,
    /// Worker replica that ran the batch (`None` pre-execution).
    pub worker: Option<u64>,
    /// Time spent queued, nanoseconds.
    pub queue_wait_ns: u64,
    /// Submission-to-completion latency, nanoseconds.
    pub total_ns: u64,
    /// Monotonic capture time (ns since process start) for ordering.
    pub mono_ns: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Per-layer keep fractions of the schedule that served it.
    pub keep_fractions: Vec<f64>,
    /// Span tree (request-relative offsets).
    pub spans: Vec<TraceSpanRec>,
    /// Counter deltas attributed to the request (per-layer MACs).
    pub counters: Vec<(String, u64)>,
}

impl TraceRecord {
    /// A blank record for `trace_id`, stamped with the current
    /// monotonic and wall-clock capture times.
    pub fn new(trace_id: &str) -> Self {
        let mono_ns =
            u64::try_from(crate::event::start_instant().elapsed().as_nanos()).unwrap_or(u64::MAX);
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self {
            trace_id: trace_id.to_string(),
            model: String::new(),
            outcome: "ok".to_string(),
            detail: String::new(),
            priority: String::new(),
            shed: String::new(),
            schedule_scale: 0.0,
            degraded: false,
            budget_macs: None,
            achieved_macs: 0.0,
            batch_id: 0,
            batch_occupancy: 0,
            worker: None,
            queue_wait_ns: 0,
            total_ns: 0,
            mono_ns,
            unix_ms,
            keep_fractions: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// `true` when the record describes a failed request.
    pub fn is_error(&self) -> bool {
        self.outcome != "ok"
    }

    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                    json::escape(&s.name),
                    s.start_ns,
                    s.dur_ns
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("{{\"name\":\"{}\",\"value\":{v}}}", json::escape(n)))
            .collect();
        let fractions: Vec<String> =
            self.keep_fractions.iter().map(|f| json::number(*f)).collect();
        format!(
            concat!(
                "{{\"trace_id\":\"{}\",\"model\":\"{}\",\"outcome\":\"{}\",\"detail\":\"{}\",",
                "\"priority\":\"{}\",\"shed\":\"{}\",\"schedule_scale\":{},\"degraded\":{},",
                "\"budget_macs\":{},\"achieved_macs\":{},\"batch_id\":{},\"batch_occupancy\":{},",
                "\"worker\":{},\"queue_wait_ns\":{},\"total_ns\":{},\"mono_ns\":{},\"unix_ms\":{},",
                "\"keep_fractions\":[{}],\"spans\":[{}],\"counters\":[{}]}}"
            ),
            json::escape(&self.trace_id),
            json::escape(&self.model),
            json::escape(&self.outcome),
            json::escape(&self.detail),
            json::escape(&self.priority),
            json::escape(&self.shed),
            json::number(self.schedule_scale),
            self.degraded,
            self.budget_macs.map_or("null".to_string(), json::number),
            json::number(self.achieved_macs),
            self.batch_id,
            self.batch_occupancy,
            self.worker.map_or("null".to_string(), |w| w.to_string()),
            self.queue_wait_ns,
            self.total_ns,
            self.mono_ns,
            self.unix_ms,
            fractions.join(","),
            spans.join(","),
            counters.join(",")
        )
    }
}

#[derive(Debug, Default)]
struct RecorderState {
    /// Highest-latency successful records, sorted descending by
    /// `total_ns`.
    slow: Vec<TraceRecord>,
    /// Most recent errored records (oldest evicted first).
    errored: VecDeque<TraceRecord>,
    recorded: u64,
    evicted: u64,
}

fn state() -> &'static Mutex<RecorderState> {
    static STATE: OnceLock<Mutex<RecorderState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(RecorderState::default()))
}

/// Retains `rec` per the exemplar policy. A no-op while observability
/// is disabled ([`crate::enabled`]).
pub fn record_trace(rec: TraceRecord) {
    if !crate::enabled() {
        return;
    }
    let mut st = crate::metrics::lock(state());
    st.recorded += 1;
    if rec.is_error() {
        if st.errored.len() == DEFAULT_ERROR_CAP {
            st.errored.pop_front();
            st.evicted += 1;
        }
        st.errored.push_back(rec);
        return;
    }
    let full = st.slow.len() == DEFAULT_SLOW_CAP;
    if full && st.slow.last().is_some_and(|l| rec.total_ns <= l.total_ns) {
        st.evicted += 1;
        return;
    }
    let pos = st
        .slow
        .binary_search_by(|r| rec.total_ns.cmp(&r.total_ns))
        .unwrap_or_else(|p| p);
    st.slow.insert(pos, rec);
    if st.slow.len() > DEFAULT_SLOW_CAP {
        st.slow.pop();
        st.evicted += 1;
    }
}

/// `(recorded, evicted)` totals since startup.
pub fn recorder_counts() -> (u64, u64) {
    let st = crate::metrics::lock(state());
    (st.recorded, st.evicted)
}

/// Drops every retained record and zeroes the totals (tests).
pub fn clear_recorder() {
    let mut st = crate::metrics::lock(state());
    st.slow.clear();
    st.errored.clear();
    st.recorded = 0;
    st.evicted = 0;
}

/// Renders the recorder contents for `GET /debug/traces`:
/// `{"recorded":…,"evicted":…,"slow":[…],"errored":[…]}` with the
/// errored set newest-first.
pub fn traces_json() -> String {
    let st = crate::metrics::lock(state());
    let slow: Vec<String> = st.slow.iter().map(TraceRecord::to_json).collect();
    let errored: Vec<String> = st.errored.iter().rev().map(TraceRecord::to_json).collect();
    format!(
        "{{\"recorded\":{},\"evicted\":{},\"slow_cap\":{},\"error_cap\":{},\"slow\":[{}],\"errored\":[{}]}}",
        st.recorded,
        st.evicted,
        DEFAULT_SLOW_CAP,
        DEFAULT_ERROR_CAP,
        slow.join(","),
        errored.join(",")
    )
}

/// Flushes a `trace.flush` summary event per retained record into the
/// JSONL ring (and trace file sink, when set) — called on graceful
/// drain so exemplars survive process exit.
pub fn recorder_dump_events() {
    use crate::event::{info, Value};
    let st = crate::metrics::lock(state());
    for rec in st.slow.iter().chain(st.errored.iter()) {
        info(
            "trace.flush",
            &[
                ("trace_id", Value::Str(&rec.trace_id)),
                ("model", Value::Str(&rec.model)),
                ("outcome", Value::Str(&rec.outcome)),
                ("priority", Value::Str(&rec.priority)),
                ("total_ns", Value::U64(rec.total_ns)),
                ("queue_wait_ns", Value::U64(rec.queue_wait_ns)),
                ("batch_id", Value::U64(rec.batch_id)),
                ("spans", Value::U64(rec.spans.len() as u64)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use crate::{reset, set_enabled};

    fn rec(id: &str, outcome: &str, total_ns: u64) -> TraceRecord {
        let mut r = TraceRecord::new(id);
        r.outcome = outcome.to_string();
        r.total_ns = total_ns;
        r
    }

    #[test]
    fn recorder_keeps_slowest_and_errored() {
        let _guard = test_lock::hold();
        reset();
        clear_recorder();
        set_enabled(true);
        // DEFAULT_SLOW_CAP + 2 ok traces: the slowest cap stay, "aa" is
        // pushed out and "dd" is too fast to enter.
        record_trace(rec("aa", "ok", 10));
        for i in 0..DEFAULT_SLOW_CAP as u64 {
            record_trace(rec(&format!("s{i}"), "ok", 100 + i));
        }
        record_trace(rec("dd", "ok", 5)); // too fast: evicted
        // DEFAULT_ERROR_CAP + 1 errored traces: the oldest, "e0", goes.
        for i in 0..=DEFAULT_ERROR_CAP {
            let outcome = if i == 0 { "deadline_exceeded" } else { "overloaded" };
            record_trace(rec(&format!("e{i}"), outcome, 1));
        }
        set_enabled(false);
        let js = traces_json();
        let last_slow = format!("\"s{}\"", DEFAULT_SLOW_CAP - 1);
        assert!(js.contains("\"s0\"") && js.contains(&last_slow), "{js}");
        assert!(!js.contains("\"aa\"") && !js.contains("\"dd\""), "{js}");
        let last_error = format!("\"e{DEFAULT_ERROR_CAP}\"");
        assert!(js.contains("\"e1\"") && js.contains(&last_error), "{js}");
        assert!(!js.contains("\"e0\""), "{js}");
        let caps = format!("\"slow_cap\":{DEFAULT_SLOW_CAP},\"error_cap\":{DEFAULT_ERROR_CAP}");
        assert!(js.contains(&caps), "{js}");
        let (recorded, evicted) = recorder_counts();
        assert_eq!(recorded as usize, DEFAULT_SLOW_CAP + 2 + DEFAULT_ERROR_CAP + 1);
        assert_eq!(evicted, 3);
        clear_recorder();
        reset();
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _guard = test_lock::hold();
        reset();
        clear_recorder();
        set_enabled(false);
        record_trace(rec("zz", "ok", 99));
        assert_eq!(recorder_counts(), (0, 0));
        clear_recorder();
        reset();
    }

    #[test]
    fn record_json_is_well_formed() {
        let mut r = TraceRecord::new("abc123");
        r.model = "vgg-\"quoted\"".to_string();
        r.budget_macs = Some(1.5e6);
        r.worker = Some(2);
        r.keep_fractions = vec![0.5, 1.0];
        r.spans.push(TraceSpanRec {
            name: "fwd.layer00".to_string(),
            start_ns: 10,
            dur_ns: 20,
        });
        r.counters.push(("fwd.layer00.macs".to_string(), 123));
        let js = r.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"trace_id\":\"abc123\""));
        assert!(js.contains("vgg-\\\"quoted\\\""));
        assert!(js.contains("\"budget_macs\":1500000"));
        assert!(js.contains("\"worker\":2"));
        assert!(js.contains("\"keep_fractions\":[0.5,1]"));
        assert!(js.contains("\"spans\":[{\"name\":\"fwd.layer00\""));
        assert!(js.contains("\"counters\":[{\"name\":\"fwd.layer00.macs\",\"value\":123}]"));
        // No budget → null.
        let r2 = TraceRecord::new("x");
        assert!(r2.to_json().contains("\"budget_macs\":null"));
    }
}
