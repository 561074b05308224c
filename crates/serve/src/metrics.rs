//! Serving observability: latency percentiles, batch-size histograms,
//! budget-utilization accounting, rotating 60×1s traffic windows, and a
//! JSON-serializable snapshot.

use antidote_obs::percentile;
use antidote_obs::window::{now_tick, RateWindow, SampleWindow, WINDOW_BUCKETS};
use crate::shed::Priority;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Summary statistics of a latency sample (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean, ms.
    pub mean_ms: f64,
    /// Median (nearest-rank p50), ms.
    pub p50_ms: f64,
    /// Nearest-rank p95, ms.
    pub p95_ms: f64,
    /// Nearest-rank p99, ms.
    pub p99_ms: f64,
    /// Maximum observed, ms.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Builds a summary from unsorted millisecond samples.
    ///
    /// Non-finite samples (NaN/±inf) are dropped rather than poisoning
    /// the percentiles; each drop increments the
    /// `serve.nonfinite_samples_dropped` observability counter.
    pub fn from_samples_ms(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        let dropped = samples.len() - sorted.len();
        if dropped > 0 {
            antidote_obs::counter_add("serve.nonfinite_samples_dropped", dropped as u64);
        }
        if sorted.is_empty() {
            return Self::default();
        }
        sorted.sort_by(f64::total_cmp);
        Self {
            count: sorted.len() as u64,
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: percentile(&sorted, 50.0),
            p95_ms: percentile(&sorted, 95.0),
            p99_ms: percentile(&sorted, 99.0),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }

    /// Builds a summary from wall-clock durations.
    pub fn from_durations(samples: &[Duration]) -> Self {
        let ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        Self::from_samples_ms(&ms)
    }
}

/// Per-request compute-budget accounting across a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BudgetMetrics {
    /// Completed requests that carried an explicit FLOPs budget.
    pub budgeted_requests: u64,
    /// Mean achieved/budget utilization over budgeted requests (≤ 1.0 by
    /// construction of the budget→ratio mapping).
    pub mean_utilization: f64,
    /// Worst-case (highest) achieved/budget utilization observed.
    pub max_utilization: f64,
    /// Sum of achieved MACs over all completed requests (analytic cost
    /// model applied to the masks actually generated).
    pub achieved_macs_total: f64,
    /// Sum of MACs the masked executor actually performed, over all
    /// batches (aggregate; bounded above by `achieved_macs_total` for
    /// stride-1 convolutions since border windows skip out-of-bounds
    /// taps).
    pub measured_macs_total: u64,
}

/// Windowed (rotating 60×1s bucket) view of the engine's recent
/// traffic, alongside the lifetime aggregates: completion counts/rates
/// over the trailing 1/10/60 seconds and latency percentiles over the
/// trailing 60 seconds. All fields are zero on an idle engine — stale
/// window buckets age out without a background thread.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Requests completed in the trailing 1 second.
    pub completed_1s: u64,
    /// Requests completed in the trailing 10 seconds.
    pub completed_10s: u64,
    /// Requests completed in the trailing 60 seconds.
    pub completed_60s: u64,
    /// Completions per second over the trailing 1 second.
    pub rate_1s: f64,
    /// Completions per second over the trailing 10 seconds.
    pub rate_10s: f64,
    /// Completions per second over the trailing 60 seconds.
    pub rate_60s: f64,
    /// Latency samples inside the trailing 60 seconds.
    pub latency_count_60s: u64,
    /// Nearest-rank p50 latency over the trailing 60 seconds, ms.
    pub latency_p50_ms_60s: f64,
    /// Nearest-rank p95 latency over the trailing 60 seconds, ms.
    pub latency_p95_ms_60s: f64,
    /// Nearest-rank p99 latency over the trailing 60 seconds, ms.
    pub latency_p99_ms_60s: f64,
}

/// A point-in-time snapshot of everything the engine measures.
///
/// Serializes to JSON via [`ServeMetrics::to_json`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServeMetrics {
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_full: u64,
    /// Requests whose deadline expired while queued/batching. Expired
    /// requests are rejected with a typed `DeadlineExceeded` at dequeue
    /// and never consume a batch slot.
    pub expired: u64,
    /// Requests shed at admission under queue pressure (typed
    /// `Overloaded` response; see the degrade-before-shed policy).
    pub shed: u64,
    /// Queued requests displaced by higher-priority arrivals at a full
    /// queue (also a typed `Overloaded` response).
    pub evicted: u64,
    /// Requests admitted but degraded to a cheaper schedule scale under
    /// queue pressure (served, with `degraded = true` in the response).
    pub degraded: u64,
    /// Chaos-mode replica kills fired (0 unless `ANTIDOTE_CHAOS_*` is
    /// enabled).
    pub chaos_kills: u64,
    /// Requests rejected because their budget was below the floor of the
    /// most aggressive allowed schedule.
    pub infeasible: u64,
    /// Requests failed by a worker panic (typed error, engine survives).
    pub panicked: u64,
    /// Worker panics observed (one panic can fail a whole batch).
    pub worker_panics: u64,
    /// Completed requests per second of engine uptime.
    pub throughput_rps: f64,
    /// End-to-end latency (submit → response), ms. Count, mean and max
    /// cover the engine's lifetime; the percentiles cover the most
    /// recent 16 384 completions.
    pub latency: LatencySummary,
    /// Queueing + batching delay (submit → batch launch), ms, with the
    /// same lifetime/recent split.
    pub queue_wait: LatencySummary,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// `batch_histogram[k]` counts batches executed with `k` live
    /// requests (index 0 counts batches that expired whole).
    pub batch_histogram: Vec<u64>,
    /// Batches executed (including empty ones).
    pub batches: u64,
    /// Mean live batch size over non-empty batches.
    pub mean_batch_size: f64,
    /// Budget accounting.
    pub budget: BudgetMetrics,
    /// Engine uptime covered by this snapshot, seconds.
    pub elapsed_secs: f64,
    /// Rotating-window view of recent traffic (absent in snapshots
    /// serialized by older builds — defaults to all-zero).
    #[serde(default)]
    pub window: WindowMetrics,
    /// Requests admitted per priority lane, indexed by
    /// [`Priority::lane`] order (`interactive`, `standard`, `batch`).
    #[serde(default)]
    pub admitted_by_lane: Vec<u64>,
    /// Requests shed at admission per priority lane, same order.
    #[serde(default)]
    pub shed_by_lane: Vec<u64>,
}

impl ServeMetrics {
    /// Serializes the snapshot to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the type contains no non-serializable
    /// values.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics serialization cannot fail")
    }

    /// Parses a snapshot back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Requests that received *some* terminal outcome (completion or a
    /// typed failure) after admission. Evicted requests count — they
    /// were queued, then failed with a typed `Overloaded`; shed requests
    /// do not, since they were rejected synchronously at admission.
    pub fn resolved(&self) -> u64 {
        self.completed + self.expired + self.panicked + self.evicted
    }

    /// Everything that asked for service: admitted work plus every
    /// synchronous admission rejection.
    pub fn offered(&self) -> u64 {
        self.resolved() + self.rejected_full + self.infeasible + self.shed
    }

    /// Fraction of offered requests rejected for overload (shed at
    /// admission or displaced from the queue).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            (self.shed + self.evicted) as f64 / offered as f64
        }
    }

    /// Fraction of offered requests served at a degraded (cheaper)
    /// schedule scale.
    pub fn degrade_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.degraded as f64 / offered as f64
        }
    }
}

/// Latency samples a summary's percentiles are taken over: the most
/// recent 16 384, the cap `antidote_obs`'s histograms use.
const SAMPLE_CAP: usize = 16_384;

/// One latency series that stays bounded under uptime: `count`, mean
/// and max are lifetime-exact running scalars, percentiles come from a
/// ring of the most recent [`SAMPLE_CAP`] samples.
#[derive(Debug, Default)]
pub(crate) struct LatencyTrack {
    count: u64,
    sum_ms: f64,
    max_ms: f64,
    recent: VecDeque<f64>,
}

impl LatencyTrack {
    fn record(&mut self, sample: Duration) {
        let ms = sample.as_secs_f64() * 1e3;
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
        if self.recent.len() == SAMPLE_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
    }

    fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        LatencySummary {
            count: self.count,
            mean_ms: self.sum_ms / self.count as f64,
            max_ms: self.max_ms,
            ..LatencySummary::from_samples_ms(&recent)
        }
    }
}

/// Mutable accumulator behind the engine's metrics mutex. Workers record
/// into this; [`MetricsState::snapshot`] freezes it into a
/// [`ServeMetrics`].
#[derive(Debug)]
pub(crate) struct MetricsState {
    pub completed: u64,
    pub rejected_full: u64,
    pub expired: u64,
    pub shed: u64,
    pub evicted: u64,
    pub degraded: u64,
    pub infeasible: u64,
    pub panicked: u64,
    pub worker_panics: u64,
    latency: LatencyTrack,
    queue_wait: LatencyTrack,
    pub batch_histogram: Vec<u64>,
    pub batches: u64,
    pub budgeted_requests: u64,
    pub utilization_sum: f64,
    pub utilization_max: f64,
    pub achieved_macs_total: f64,
    pub measured_macs_total: u64,
    pub admitted_by_lane: Vec<u64>,
    pub shed_by_lane: Vec<u64>,
    completed_window: RateWindow,
    latency_window: SampleWindow,
    started_at: Instant,
}

impl MetricsState {
    /// Locks the engine's metrics, recovering from poisoning: every
    /// update is a counter bump or a sample push that leaves the state
    /// valid at each step, so one panicking holder must not turn every
    /// later admission, completion and `/metrics` scrape into a panic.
    pub fn lock(metrics: &Mutex<Self>) -> MutexGuard<'_, Self> {
        metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn new(max_batch: usize) -> Self {
        Self {
            completed: 0,
            rejected_full: 0,
            expired: 0,
            shed: 0,
            evicted: 0,
            degraded: 0,
            infeasible: 0,
            panicked: 0,
            worker_panics: 0,
            latency: LatencyTrack::default(),
            queue_wait: LatencyTrack::default(),
            batch_histogram: vec![0; max_batch + 1],
            batches: 0,
            budgeted_requests: 0,
            utilization_sum: 0.0,
            utilization_max: 0.0,
            achieved_macs_total: 0.0,
            measured_macs_total: 0,
            admitted_by_lane: vec![0; Priority::COUNT],
            shed_by_lane: vec![0; Priority::COUNT],
            completed_window: RateWindow::new(),
            latency_window: SampleWindow::new(),
            started_at: Instant::now(),
        }
    }

    /// Accounts one executed batch and returns its 1-based batch id
    /// (the running batch count — stable across workers because it is
    /// assigned under the metrics lock).
    pub fn record_batch(&mut self, live: usize) -> u64 {
        self.batches += 1;
        if let Some(slot) = self.batch_histogram.get_mut(live) {
            *slot += 1;
        }
        self.batches
    }

    pub fn record_completion(
        &mut self,
        latency: Duration,
        queue_wait: Duration,
        achieved_macs: f64,
        budget: Option<f64>,
    ) {
        self.completed += 1;
        let latency_ms = latency.as_secs_f64() * 1e3;
        let tick = now_tick();
        self.completed_window.add_at(tick, 1);
        self.latency_window.record_at(tick, latency_ms);
        self.latency.record(latency);
        self.queue_wait.record(queue_wait);
        self.achieved_macs_total += achieved_macs;
        if let Some(b) = budget {
            let util = achieved_macs / b;
            self.budgeted_requests += 1;
            self.utilization_sum += util;
            self.utilization_max = self.utilization_max.max(util);
        }
    }

    pub fn snapshot(&self, queue_depth: usize, chaos_kills: u64) -> ServeMetrics {
        self.snapshot_at(queue_depth, chaos_kills, now_tick())
    }

    /// [`MetricsState::snapshot`] with an explicit window tick, so
    /// tests can verify window aging deterministically.
    pub fn snapshot_at(&self, queue_depth: usize, chaos_kills: u64, tick: u64) -> ServeMetrics {
        let elapsed = self.started_at.elapsed().as_secs_f64();
        let (w_p50, w_p95, w_p99) = self.latency_window.percentiles_at(tick, WINDOW_BUCKETS);
        let window = WindowMetrics {
            completed_1s: self.completed_window.sum_at(tick, 1),
            completed_10s: self.completed_window.sum_at(tick, 10),
            completed_60s: self.completed_window.sum_at(tick, WINDOW_BUCKETS),
            rate_1s: self.completed_window.rate_at(tick, 1),
            rate_10s: self.completed_window.rate_at(tick, 10),
            rate_60s: self.completed_window.rate_at(tick, WINDOW_BUCKETS),
            latency_count_60s: self.latency_window.count_at(tick, WINDOW_BUCKETS),
            latency_p50_ms_60s: w_p50,
            latency_p95_ms_60s: w_p95,
            latency_p99_ms_60s: w_p99,
        };
        let live_batches: u64 = self.batch_histogram.iter().skip(1).sum();
        let live_requests: u64 = self
            .batch_histogram
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum();
        ServeMetrics {
            completed: self.completed,
            rejected_full: self.rejected_full,
            expired: self.expired,
            shed: self.shed,
            evicted: self.evicted,
            degraded: self.degraded,
            chaos_kills,
            infeasible: self.infeasible,
            panicked: self.panicked,
            worker_panics: self.worker_panics,
            throughput_rps: if elapsed > 0.0 {
                self.completed as f64 / elapsed
            } else {
                0.0
            },
            latency: self.latency.summary(),
            queue_wait: self.queue_wait.summary(),
            queue_depth,
            batch_histogram: self.batch_histogram.clone(),
            batches: self.batches,
            mean_batch_size: if live_batches > 0 {
                live_requests as f64 / live_batches as f64
            } else {
                0.0
            },
            budget: BudgetMetrics {
                budgeted_requests: self.budgeted_requests,
                mean_utilization: if self.budgeted_requests > 0 {
                    self.utilization_sum / self.budgeted_requests as f64
                } else {
                    0.0
                },
                max_utilization: self.utilization_max,
                achieved_macs_total: self.achieved_macs_total,
                measured_macs_total: self.measured_macs_total,
            },
            elapsed_secs: elapsed,
            window,
            admitted_by_lane: self.admitted_by_lane.clone(),
            shed_by_lane: self.shed_by_lane.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_from_samples() {
        let s = LatencySummary::from_samples_ms(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean_ms - 2.5).abs() < 1e-12);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.p99_ms, 4.0);
        assert_eq!(s.max_ms, 4.0);
        assert_eq!(LatencySummary::from_samples_ms(&[]), LatencySummary::default());
    }

    #[test]
    fn non_finite_samples_are_dropped_not_fatal() {
        // Regression: this used to panic on `partial_cmp(..).expect(..)`.
        let before = antidote_obs::counter_value("serve.nonfinite_samples_dropped");
        let s = LatencySummary::from_samples_ms(&[
            4.0,
            f64::NAN,
            1.0,
            f64::INFINITY,
            3.0,
            f64::NEG_INFINITY,
            2.0,
        ]);
        assert_eq!(s.count, 4, "only finite samples are summarized");
        assert!((s.mean_ms - 2.5).abs() < 1e-12);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.max_ms, 4.0);
        let after = antidote_obs::counter_value("serve.nonfinite_samples_dropped");
        assert_eq!(after - before, 3, "each drop is counted");
        // All-non-finite input degrades to the empty summary.
        assert_eq!(
            LatencySummary::from_samples_ms(&[f64::NAN, f64::NAN]),
            LatencySummary::default()
        );
    }

    #[test]
    fn state_snapshot_and_json_round_trip() {
        let mut st = MetricsState::new(4);
        assert_eq!(st.record_batch(3), 1, "batch ids are 1-based and sequential");
        assert_eq!(st.record_batch(0), 2);
        for _ in 0..3 {
            st.record_completion(
                Duration::from_millis(10),
                Duration::from_millis(2),
                50.0,
                Some(100.0),
            );
        }
        st.measured_macs_total = 120;
        st.shed = 2;
        st.evicted = 1;
        st.degraded = 2;
        let snap = st.snapshot(1, 4);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.evicted, 1);
        assert_eq!(snap.degraded, 2);
        assert_eq!(snap.chaos_kills, 4);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batch_histogram, vec![1, 0, 0, 1, 0]);
        assert!((snap.mean_batch_size - 3.0).abs() < 1e-12);
        assert!((snap.budget.mean_utilization - 0.5).abs() < 1e-12);
        assert!((snap.budget.max_utilization - 0.5).abs() < 1e-12);
        assert_eq!(snap.queue_depth, 1);
        // resolved = completed + expired + panicked + evicted.
        assert_eq!(snap.resolved(), 4);
        // offered adds admission rejections: + shed (2).
        assert_eq!(snap.offered(), 6);
        assert!((snap.shed_rate() - 3.0 / 6.0).abs() < 1e-12);
        assert!((snap.degrade_rate() - 2.0 / 6.0).abs() < 1e-12);
        let back = ServeMetrics::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // Older serialized snapshots (no window/lane fields) still parse.
        let legacy = ServeMetrics::from_json(&ServeMetrics::default().to_json());
        assert!(legacy.is_ok());
    }

    #[test]
    fn latency_samples_stay_bounded_under_uptime_with_exact_lifetime_scalars() {
        let mut st = MetricsState::new(4);
        let total = 40_000u64;
        for i in 1..=total {
            st.record_completion(
                Duration::from_millis(i),
                Duration::from_millis(total + 1 - i),
                1.0,
                None,
            );
        }
        assert_eq!(st.latency.recent.len(), SAMPLE_CAP);
        assert_eq!(st.queue_wait.recent.len(), SAMPLE_CAP);
        let snap = st.snapshot(0, 0);
        assert_eq!(snap.latency.count, total);
        assert_eq!(snap.queue_wait.count, total);
        // Lifetime-exact scalars: latencies 1..=40 000 ms, and the same
        // values in reverse arrival order for the queue wait.
        let mean = (total + 1) as f64 / 2.0;
        assert!((snap.latency.mean_ms - mean).abs() < 1e-6);
        assert!((snap.queue_wait.mean_ms - mean).abs() < 1e-6);
        assert_eq!(snap.latency.max_ms, total as f64);
        // ...including a max that left the ring long ago.
        assert_eq!(snap.queue_wait.max_ms, total as f64);
        // Percentiles describe the most recent SAMPLE_CAP samples.
        let oldest_retained = (total as usize - SAMPLE_CAP + 1) as f64;
        assert!(snap.latency.p50_ms >= oldest_retained);
        assert!(snap.queue_wait.p99_ms <= SAMPLE_CAP as f64);
    }

    #[test]
    fn a_poisoned_metrics_mutex_keeps_serving() {
        let metrics = std::sync::Arc::new(Mutex::new(MetricsState::new(1)));
        let holder = std::sync::Arc::clone(&metrics);
        let _ = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("poison the metrics mutex");
        })
        .join();
        assert!(metrics.is_poisoned());
        MetricsState::lock(&metrics).shed += 1;
        assert_eq!(MetricsState::lock(&metrics).snapshot(0, 0).shed, 1);
    }

    #[test]
    fn windowed_traffic_is_reported_and_ages_out() {
        let mut st = MetricsState::new(4);
        st.admitted_by_lane[Priority::Interactive.lane()] = 5;
        st.shed_by_lane[Priority::Batch.lane()] = 2;
        for i in 0..10u64 {
            st.record_completion(
                Duration::from_millis(i + 1),
                Duration::from_millis(1),
                10.0,
                None,
            );
        }
        let tick = now_tick();
        let snap = st.snapshot_at(0, 0, tick);
        let w = snap.window;
        assert_eq!(w.completed_60s, 10);
        assert!(w.completed_1s <= w.completed_10s && w.completed_10s <= w.completed_60s);
        assert_eq!(w.latency_count_60s, 10);
        assert!(w.latency_p50_ms_60s >= 1.0 && w.latency_p99_ms_60s <= 10.0);
        assert!(w.latency_p50_ms_60s <= w.latency_p95_ms_60s);
        assert!(w.rate_60s > 0.0);
        assert_eq!(snap.admitted_by_lane, vec![5, 0, 0]);
        assert_eq!(snap.shed_by_lane, vec![0, 0, 2]);
        // Lifetime aggregates persist, but the window forgets.
        let aged = st.snapshot_at(0, 0, tick + 200);
        assert_eq!(aged.completed, 10);
        assert_eq!(aged.window, WindowMetrics::default());
    }

    #[test]
    fn rates_are_zero_on_empty_metrics() {
        let snap = ServeMetrics::default();
        assert_eq!(snap.offered(), 0);
        assert_eq!(snap.shed_rate(), 0.0);
        assert_eq!(snap.degrade_rate(), 0.0);
    }
}
