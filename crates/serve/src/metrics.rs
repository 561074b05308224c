//! A read-only view of one engine's [`antidote_obs::Registry`].
//!
//! The engine records every outcome into its own registry (counters,
//! the `latency_ms` / `queue_wait_ms` histograms, the `queue_depth` /
//! `chaos_kills` gauges); [`ServeMetrics`] lifts the counts callers
//! assert on out of a [`Snapshot`] of it and carries the snapshot for
//! everything else (lifetime latency mean/max, percentiles, 60s
//! windows, per-lane and per-batch-size counters).

use antidote_obs::Snapshot;

/// Counter prefix of the live-batch-size histogram: `batch_live.NN`
/// counts batches executed with `NN` live requests.
pub(crate) const BATCH_LIVE: &str = "batch_live.";

/// A point-in-time view of everything the engine measures.
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Requests rejected because their budget was below the floor of the
    /// most aggressive allowed schedule.
    pub infeasible: u64,
    /// Requests failed by a worker panic (typed error, engine survives).
    pub panicked: u64,
    /// Worker panics observed (one panic can fail a whole batch).
    pub worker_panics: u64,
    /// Chaos-mode replica kills fired (0 unless
    /// [`crate::ServeConfig::chaos`] is set).
    pub chaos_kills: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// `batch_histogram[k]` counts batches executed with `k` live
    /// requests (index 0 counts batches that expired whole).
    pub batch_histogram: Vec<u64>,
    /// The engine registry's snapshot the fields above were read from.
    pub snapshot: Snapshot,
}

impl ServeMetrics {
    /// Reads the view out of an engine registry's snapshot.
    pub(crate) fn from_snapshot(snapshot: Snapshot) -> Self {
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        let gauge = |name: &str| snapshot.gauge(name).unwrap_or(0.0);
        let mut batch_histogram = Vec::new();
        for (name, n) in &snapshot.counters {
            if let Some(Ok(k)) = name.strip_prefix(BATCH_LIVE).map(str::parse::<usize>) {
                if batch_histogram.len() <= k {
                    batch_histogram.resize(k + 1, 0);
                }
                batch_histogram[k] = *n;
            }
        }
        Self {
            completed: counter("completed"),
            rejected_full: counter("rejected_full"),
            expired: counter("expired"),
            shed: counter("shed"),
            evicted: counter("evicted"),
            degraded: counter("degraded"),
            infeasible: counter("infeasible"),
            panicked: counter("panicked"),
            worker_panics: counter("worker_panics"),
            chaos_kills: gauge("chaos_kills") as u64,
            queue_depth: gauge("queue_depth") as usize,
            batch_histogram,
            snapshot,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_obs::Registry;

    #[test]
    fn view_reads_counters_gauges_and_the_batch_histogram() {
        let reg = Registry::new();
        for k in 0..=4 {
            reg.counter_add(&format!("{BATCH_LIVE}{k:02}"), 0);
        }
        reg.counter_add("batch_live.03", 1);
        reg.counter_add("batch_live.00", 1);
        reg.counter_add("completed", 3);
        reg.counter_add("shed", 2);
        reg.counter_add("evicted", 1);
        reg.counter_add("degraded", 2);
        reg.gauge_set("queue_depth", 1.0);
        reg.gauge_set("chaos_kills", 4.0);
        let m = ServeMetrics::from_snapshot(reg.snapshot());
        assert_eq!(m.batch_histogram, vec![1, 0, 0, 1, 0]);
        assert_eq!((m.completed, m.shed, m.evicted, m.degraded), (3, 2, 1, 2));
        assert_eq!((m.queue_depth, m.chaos_kills), (1, 4));
        // resolved = completed + expired + panicked + evicted.
        assert_eq!(m.resolved(), 4);
        // offered adds admission rejections: + shed (2).
        assert_eq!(m.offered(), 6);
        assert!((m.shed_rate() - 3.0 / 6.0).abs() < 1e-12);
        assert!((m.degrade_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rates_are_zero_on_empty_metrics() {
        let snap = ServeMetrics::default();
        assert_eq!(snap.offered(), 0);
        assert_eq!(snap.shed_rate(), 0.0);
        assert_eq!(snap.degrade_rate(), 0.0);
    }
}
