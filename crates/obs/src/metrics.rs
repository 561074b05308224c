//! The metrics [`Registry`]: counters, gauges, histograms, their
//! rotating 60s windows, and the [`Snapshot`] that freezes everything
//! (spans included) for reporting. The process-global registry behind
//! the free functions is one instance; a component that owns its
//! accounting (a serving engine, the HTTP front-end) owns another.

use crate::json;
use crate::prom::HIST_LE;
use crate::span::SpanStat;
use crate::stats::percentile;
use crate::window::{now_tick, GaugeWindow, RateWindow, SampleWindow, WINDOW_BUCKETS};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Histograms keep at most this many recent samples (ring semantics)
/// for their percentiles; count, sum, min, max and buckets are lifetime
/// aggregates that evictions do not touch. Evictions increment the
/// registry's `obs.hist_overflow` counter (plus the per-histogram
/// `overflow` snapshot field) so truncation is never silent.
const HIST_CAP: usize = 16_384;

/// A set of named counters, gauges and histograms (plus span timings,
/// which only the global registry records).
///
/// Every map is behind its own mutex, and every lock recovers from
/// poisoning: a panicking recorder must not take accounting down with
/// it.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) spans: Mutex<BTreeMap<String, SpanStat>>,
    counters: Mutex<BTreeMap<String, CounterCell>>,
    gauges: Mutex<BTreeMap<String, GaugeCell>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

// The windows are boxed so a map node stays small: inline, eleven
// ~1 KB windows made every `BTreeMap` node an 11 KB block, and a
// process that starts and stops engines (each pre-registering its
// counters) fragmented its heap by megabytes.
#[derive(Debug, Default)]
struct CounterCell {
    total: u64,
    window: Box<RateWindow>,
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: f64,
    window: Box<GaugeWindow>,
}

/// One histogram; it exists only once a sample was recorded into it.
#[derive(Debug)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Lifetime samples per [`HIST_LE`] bucket (`le[i-1] < v <= le[i]`);
    /// samples above the top bound land in none.
    buckets: [u64; HIST_LE.len()],
    recent: VecDeque<f64>,
    /// Samples evicted from the retained ring (lifetime).
    overflow: u64,
    window: SampleWindow,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_LE.len()],
            recent: VecDeque::new(),
            overflow: 0,
            window: SampleWindow::default(),
        }
    }
}

impl Histogram {
    /// Records one finite sample; returns `true` when an old sample was
    /// evicted from the ring (the caller bumps the overflow counter
    /// outside the hists lock).
    fn record(&mut self, tick: u64, v: f64) -> bool {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if let Some(b) = self.buckets.get_mut(HIST_LE.partition_point(|le| *le < v)) {
            *b += 1;
        }
        self.window.record_at(tick, v);
        let evicted = self.recent.len() == HIST_CAP;
        if evicted {
            self.recent.pop_front();
            self.overflow += 1;
        }
        self.recent.push_back(v);
        evicted
    }

    fn snapshot(&self, name: &str, tick: u64) -> HistSnapshot {
        let mut sorted: Vec<f64> = self.recent.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let buckets = self
            .buckets
            .iter()
            .scan(0, |acc, n| {
                *acc += n;
                Some(*acc)
            })
            .collect();
        let (w_p50, w_p95, w_p99) = self.window.percentiles_at(tick, WINDOW_BUCKETS);
        HistSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets,
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
            overflow: self.overflow,
            retained: sorted.len() as u64,
            w_count: self.window.count_at(tick, WINDOW_BUCKETS),
            w_p50,
            w_p95,
            w_p99,
        }
    }
}

/// The process-global registry.
pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Locks a registry map, recovering from poisoning (a panicking worker
/// thread must not take observability down with it).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named monotonic counter and its 60s rate
    /// window, and returns the counter's new total. Adding 0 registers
    /// the counter, so it reads (and renders) as 0 before its first
    /// event.
    pub fn counter_add(&self, name: &str, delta: u64) -> u64 {
        let tick = now_tick();
        let mut counters = lock(&self.counters);
        let cell = counters.entry_or_default(name);
        cell.total += delta;
        cell.window.add_at(tick, delta);
        cell.total
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map_or(0, |c| c.total)
    }

    /// Sets the named gauge to `value` (last-write-wins; the 60s window
    /// additionally tracks the min/max written each second).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let tick = now_tick();
        let mut gauges = lock(&self.gauges);
        let cell = gauges.entry_or_default(name);
        cell.value = value;
        cell.window.set_at(tick, value);
    }

    /// Records one sample into the named histogram. Non-finite samples
    /// are dropped with an `obs.nonfinite_dropped` counter increment;
    /// evictions from the bounded retained ring increment
    /// `obs.hist_overflow` (both in this registry).
    pub fn hist_record(&self, name: &str, value: f64) {
        if !value.is_finite() {
            self.counter_add("obs.nonfinite_dropped", 1);
            return;
        }
        let tick = now_tick();
        let evicted = lock(&self.hists).entry_or_default(name).record(tick, value);
        if evicted {
            self.counter_add("obs.hist_overflow", 1);
        }
    }

    /// Freezes every aggregate (spans, counters, gauges, histograms, and
    /// their 60s windows) into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_at(now_tick())
    }

    /// [`Registry::snapshot`] with an explicit window tick
    /// (deterministic tests).
    pub fn snapshot_at(&self, tick: u64) -> Snapshot {
        let spans = lock(&self.spans)
            .iter()
            .map(|(name, s)| SpanSnapshot {
                name: name.clone(),
                count: s.count,
                total_ns: s.total_ns,
                min_ns: s.min_ns,
                max_ns: s.max_ns,
            })
            .collect();
        let (counters, counter_rates) = {
            let guard = lock(&self.counters);
            let counters: Vec<(String, u64)> =
                guard.iter().map(|(n, c)| (n.clone(), c.total)).collect();
            let rates = guard
                .iter()
                .filter_map(|(n, c)| {
                    let last_60s = c.window.sum_at(tick, WINDOW_BUCKETS);
                    if last_60s == 0 {
                        return None;
                    }
                    Some(CounterRates {
                        name: n.clone(),
                        last_1s: c.window.sum_at(tick, 1),
                        last_10s: c.window.sum_at(tick, 10),
                        last_60s,
                    })
                })
                .collect();
            (counters, rates)
        };
        let (gauges, gauge_ranges) = {
            let guard = lock(&self.gauges);
            let gauges: Vec<(String, f64)> =
                guard.iter().map(|(n, g)| (n.clone(), g.value)).collect();
            let ranges = guard
                .iter()
                .filter_map(|(n, g)| {
                    g.window.range_at(tick, WINDOW_BUCKETS).map(|(lo, hi)| GaugeRange {
                        name: n.clone(),
                        min_60s: lo,
                        max_60s: hi,
                    })
                })
                .collect();
            (gauges, ranges)
        };
        let hists = lock(&self.hists)
            .iter()
            .map(|(name, h)| h.snapshot(name, tick))
            .collect();
        Snapshot {
            spans,
            counters,
            gauges,
            hists,
            counter_rates,
            gauge_ranges,
        }
    }

    /// Clears every aggregate.
    pub fn reset(&self) {
        lock(&self.spans).clear();
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.hists).clear();
    }
}

/// Adds `delta` to the named counter of the global registry (see
/// [`Registry::counter_add`]); when a trace collector is active on this
/// thread the delta is mirrored there too.
///
/// Counters always record (they are cheap and typically increment on
/// rare events like dropped samples); guard calls on hot paths with
/// [`crate::enabled`] at the call site.
pub fn counter_add(name: &str, delta: u64) {
    crate::trace::collect_counter(name, delta);
    registry().counter_add(name, delta);
}

/// Current value of a global counter (0 if never incremented).
pub fn counter_value(name: &str) -> u64 {
    registry().counter_value(name)
}

/// Sets the named gauge of the global registry (see
/// [`Registry::gauge_set`]).
pub fn gauge_set(name: &str, value: f64) {
    registry().gauge_set(name, value);
}

/// Records one sample into the named histogram of the global registry
/// (see [`Registry::hist_record`]).
pub fn hist_record(name: &str, value: f64) {
    registry().hist_record(name, value);
}

/// `BTreeMap::entry(name.to_string()).or_default()` without allocating
/// when the key already exists.
trait EntryOrDefault<V: Default> {
    fn entry_or_default(&mut self, name: &str) -> &mut V;
}

impl<V: Default> EntryOrDefault<V> for BTreeMap<String, V> {
    fn entry_or_default(&mut self, name: &str) -> &mut V {
        if !self.contains_key(name) {
            self.insert(name.to_string(), V::default());
        }
        self.get_mut(name).expect("just inserted")
    }
}

/// Aggregated timings of one span name at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Completed span instances.
    pub count: u64,
    /// Summed wall-clock time, nanoseconds.
    pub total_ns: u64,
    /// Fastest instance, nanoseconds.
    pub min_ns: u64,
    /// Slowest instance, nanoseconds.
    pub max_ns: u64,
}

/// One histogram at snapshot time: lifetime aggregates (count, sum,
/// min, max, buckets), percentiles over the retained ring, and
/// 60s-windowed companions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    /// Histogram name.
    pub name: String,
    /// Samples ever recorded (Prometheus `_count`).
    pub count: u64,
    /// Sum of every sample ever recorded (Prometheus `_sum`).
    pub sum: f64,
    /// Smallest sample ever recorded.
    pub min: f64,
    /// Largest sample ever recorded.
    pub max: f64,
    /// Lifetime cumulative counts at each [`crate::prom::HIST_LE`]
    /// bound (Prometheus `_bucket`); samples above the top bound count
    /// only in `count` (the `+Inf` bucket).
    pub buckets: Vec<u64>,
    /// Nearest-rank p50 of the retained ring.
    pub p50: f64,
    /// Nearest-rank p95 of the retained ring.
    pub p95: f64,
    /// Nearest-rank p99 of the retained ring.
    pub p99: f64,
    /// Samples evicted from the retained ring (the `obs.hist_overflow`
    /// contribution of this histogram).
    pub overflow: u64,
    /// Samples currently retained in the ring (the population behind
    /// `p50`/`p95`/`p99`).
    pub retained: u64,
    /// Samples recorded in the trailing 60s (retained or not).
    pub w_count: u64,
    /// Nearest-rank p50 over the trailing 60s.
    pub w_p50: f64,
    /// Nearest-rank p95 over the trailing 60s.
    pub w_p95: f64,
    /// Nearest-rank p99 over the trailing 60s.
    pub w_p99: f64,
}

impl HistSnapshot {
    /// Lifetime mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Windowed sums of one counter at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRates {
    /// Counter name.
    pub name: String,
    /// Sum of increments in the trailing 1 second.
    pub last_1s: u64,
    /// Sum of increments in the trailing 10 seconds.
    pub last_10s: u64,
    /// Sum of increments in the trailing 60 seconds.
    pub last_60s: u64,
}

/// Min/max of one gauge over the trailing 60 seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeRange {
    /// Gauge name.
    pub name: String,
    /// Smallest value written in the trailing 60s.
    pub min_60s: f64,
    /// Largest value written in the trailing 60s.
    pub max_60s: f64,
}

/// A point-in-time copy of every aggregate in the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Per-name span timings, name-sorted.
    pub spans: Vec<SpanSnapshot>,
    /// Counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name-sorted.
    pub hists: Vec<HistSnapshot>,
    /// 1s/10s/60s windowed counter sums, name-sorted (only counters
    /// with at least one increment inside the 60s window appear).
    pub counter_rates: Vec<CounterRates>,
    /// 60s gauge ranges, name-sorted (only gauges written inside the
    /// window appear).
    pub gauge_ranges: Vec<GaugeRange>,
}

impl Snapshot {
    /// Looks up a span aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Looks up a counter's windowed sums by name.
    pub fn counter_rate(&self, name: &str) -> Option<&CounterRates> {
        self.counter_rates.iter().find(|c| c.name == name)
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the obs crate
    /// is std-only).
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                    json::escape(&s.name),
                    s.count,
                    s.total_ns,
                    s.min_ns,
                    s.max_ns
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("{{\"name\":\"{}\",\"value\":{v}}}", json::escape(n)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(n, v)| {
                format!("{{\"name\":\"{}\",\"value\":{}}}", json::escape(n), json::number(*v))
            })
            .collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|h| {
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"min\":{},\"max\":{},\"overflow\":{},\"w_count\":{},\"w_p50\":{},\"w_p95\":{},\"w_p99\":{}}}",
                    json::escape(&h.name),
                    h.count,
                    json::number(h.sum),
                    json::number(h.p50),
                    json::number(h.p95),
                    json::number(h.p99),
                    json::number(h.min),
                    json::number(h.max),
                    h.overflow,
                    h.w_count,
                    json::number(h.w_p50),
                    json::number(h.w_p95),
                    json::number(h.w_p99)
                )
            })
            .collect();
        let rates: Vec<String> = self
            .counter_rates
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"last_1s\":{},\"last_10s\":{},\"last_60s\":{}}}",
                    json::escape(&c.name),
                    c.last_1s,
                    c.last_10s,
                    c.last_60s
                )
            })
            .collect();
        let ranges: Vec<String> = self
            .gauge_ranges
            .iter()
            .map(|g| {
                format!(
                    "{{\"name\":\"{}\",\"min_60s\":{},\"max_60s\":{}}}",
                    json::escape(&g.name),
                    json::number(g.min_60s),
                    json::number(g.max_60s)
                )
            })
            .collect();
        format!(
            "{{\"spans\":[{}],\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}],\"counter_rates\":[{}],\"gauge_ranges\":[{}]}}",
            spans.join(","),
            counters.join(","),
            gauges.join(","),
            hists.join(","),
            rates.join(","),
            ranges.join(",")
        )
    }
}

/// Freezes every aggregate of the global registry into a
/// [`Snapshot`].
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// [`snapshot`] with an explicit window tick (deterministic tests).
pub fn snapshot_at(tick: u64) -> Snapshot {
    registry().snapshot_at(tick)
}

/// Clears the global registry and the event ring (the trace file sink
/// and enabled flag are left as-is).
pub fn reset() {
    registry().reset();
    crate::event::clear_ring();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn counters_gauges_hists_round_trip() {
        let _guard = test_lock::hold();
        reset();
        counter_add("t.counter", 2);
        counter_add("t.counter", 3);
        gauge_set("t.gauge", 1.0);
        gauge_set("t.gauge", 7.5);
        for i in 1..=100 {
            hist_record("t.hist", i as f64);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("t.counter"), Some(5));
        assert_eq!(snap.gauge("t.gauge"), Some(7.5));
        let h = snap.hist("t.hist").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.retained, 100);
        assert_eq!(h.sum, (1..=100).sum::<u64>() as f64);
        reset();
        assert_eq!(counter_value("t.counter"), 0);
    }

    #[test]
    fn windowed_snapshot_reports_rates_and_ranges() {
        let _guard = test_lock::hold();
        reset();
        counter_add("t.windowed", 4);
        gauge_set("t.windowed.gauge", 2.5);
        hist_record("t.windowed.hist", 10.0);
        hist_record("t.windowed.hist", 30.0);
        // Snapshot "now": everything is inside every window.
        let snap = snapshot_at(now_tick());
        let r = snap.counter_rate("t.windowed").expect("windowed counter present");
        assert_eq!(r.last_1s, 4);
        assert_eq!(r.last_60s, 4);
        let g = snap.gauge_ranges.iter().find(|g| g.name == "t.windowed.gauge").unwrap();
        assert_eq!((g.min_60s, g.max_60s), (2.5, 2.5));
        let h = snap.hist("t.windowed.hist").unwrap();
        assert_eq!(h.w_count, 2);
        assert_eq!(h.w_p50, 10.0);
        // 100 ticks later every window has aged out.
        let later = snapshot_at(now_tick() + 100);
        assert!(later.counter_rate("t.windowed").is_none());
        assert!(later.gauge_ranges.iter().all(|g| g.name != "t.windowed.gauge"));
        assert_eq!(later.hist("t.windowed.hist").unwrap().w_count, 0);
        // Lifetime aggregates are unaffected by window aging.
        assert_eq!(later.counter("t.windowed"), Some(4));
        reset();
    }

    #[test]
    fn non_finite_hist_samples_are_dropped_with_counter() {
        let _guard = test_lock::hold();
        reset();
        hist_record("t.nan", f64::NAN);
        hist_record("t.nan", f64::INFINITY);
        hist_record("t.nan", 2.0);
        let snap = snapshot();
        assert_eq!(snap.hist("t.nan").unwrap().count, 1);
        assert_eq!(snap.counter("obs.nonfinite_dropped"), Some(2));
        reset();
    }

    #[test]
    fn histogram_window_is_bounded_and_overflow_is_counted() {
        let _guard = test_lock::hold();
        reset();
        for i in 0..(HIST_CAP + 10) {
            hist_record("t.bounded", i as f64);
        }
        {
            let reg = registry();
            let hists = lock(&reg.hists);
            let h = hists.get("t.bounded").unwrap();
            assert_eq!(h.recent.len(), HIST_CAP);
            assert_eq!(h.count, (HIST_CAP + 10) as u64);
        }
        // Truncation is no longer silent: both the global counter and
        // the per-histogram snapshot field report the evictions.
        let snap = snapshot();
        assert_eq!(snap.counter("obs.hist_overflow"), Some(10));
        assert_eq!(snap.hist("t.bounded").unwrap().overflow, 10);
        assert_eq!(snap.hist("t.bounded").unwrap().retained, HIST_CAP as u64);
        reset();
    }

    #[test]
    fn hist_buckets_are_cumulative_against_the_ladder() {
        let _guard = test_lock::hold();
        reset();
        hist_record("t.buckets", 0.3);
        hist_record("t.buckets", 7.0);
        hist_record("t.buckets", 7.0);
        let snap = snapshot();
        let h = snap.hist("t.buckets").unwrap();
        assert_eq!(h.buckets.len(), crate::prom::HIST_LE.len());
        for (le, c) in crate::prom::HIST_LE.iter().zip(&h.buckets) {
            let want = [0.3, 7.0, 7.0].iter().filter(|v| **v <= *le).count() as u64;
            assert_eq!(*c, want, "le={le}");
        }
        assert!(h.buckets.windows(2).all(|w| w[0] <= w[1]));
        reset();
    }

    #[test]
    fn a_poisoned_metrics_mutex_keeps_serving() {
        let reg = std::sync::Arc::new(Registry::new());
        let holder = std::sync::Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            let _guard = holder.counters.lock().unwrap();
            panic!("poison the counters mutex");
        })
        .join();
        assert!(reg.counters.is_poisoned());
        assert_eq!(reg.counter_add("shed", 1), 1);
        assert_eq!(reg.snapshot().counter("shed"), Some(1));
    }

    #[test]
    fn registry_instances_are_independent_of_the_global_one() {
        let _guard = test_lock::hold();
        reset();
        let reg = Registry::new();
        assert_eq!(reg.counter_add("t.own", 0), 0, "adding 0 registers");
        assert_eq!(reg.counter_add("t.own", 2), 2);
        reg.gauge_set("t.own.gauge", 3.0);
        reg.hist_record("t.own.hist", f64::NAN);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.own"), Some(2));
        assert_eq!(snap.gauge("t.own.gauge"), Some(3.0));
        assert_eq!(snap.counter("obs.nonfinite_dropped"), Some(1));
        assert_eq!(counter_value("t.own"), 0);
        assert_eq!(counter_value("obs.nonfinite_dropped"), 0);
        reg.reset();
        assert_eq!(reg.snapshot(), Snapshot::default());
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let _guard = test_lock::hold();
        reset();
        counter_add("t.json\"quoted", 1);
        gauge_set("t.json.gauge", f64::NAN);
        let js = snapshot().to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("t.json\\\"quoted"));
        assert!(js.contains("\"value\":null"));
        assert!(js.contains("\"counter_rates\":["));
        reset();
    }
}
