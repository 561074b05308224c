//! Rotating-bucket time windows over counters, gauges, and histogram
//! samples.
//!
//! Lifetime aggregates ([`crate::snapshot`]) answer "since boot"
//! questions; operating a serving fleet needs "right now" ones — the
//! 1s/10s/60s request rate, the p99 over the last minute. Each window
//! here is a fixed array of [`WINDOW_BUCKETS`] one-second buckets,
//! indexed by `tick % WINDOW_BUCKETS` where a *tick* is whole seconds
//! since the process observability epoch ([`now_tick`]). Every bucket
//! carries the tick it was last written at, so stale buckets (the ring
//! wrapped without traffic) are ignored on read without any background
//! rotation thread — writes stamp, reads filter.
//!
//! Every method takes an explicit tick: the registry stamps writes with
//! [`now_tick`], and unit tests drive deterministic clocks.

use crate::stats::percentile;

/// Number of one-second buckets per window: windows answer questions
/// about the last 60 seconds at one-second resolution.
pub const WINDOW_BUCKETS: usize = 60;

/// Sample cap per bucket in a [`SampleWindow`]; excess samples within
/// one second still count but are not retained for percentiles.
const SAMPLES_PER_BUCKET: usize = 256;

/// Sentinel stamp for a bucket that has never been written.
const EMPTY: u64 = u64::MAX;

/// Whole seconds elapsed since the process observability epoch — the
/// tick the registry stamps window writes with.
pub fn now_tick() -> u64 {
    crate::event::start_instant().elapsed().as_secs()
}

/// `true` when a bucket stamped at `stamp` is within the last `n`
/// buckets ending at `tick` (inclusive).
fn in_window(stamp: u64, tick: u64, n: usize) -> bool {
    stamp != EMPTY && stamp <= tick && tick - stamp < n as u64
}

/// A 60×1s rotating window over a monotonic counter: records deltas
/// and reports sums/rates over the trailing 1/10/60 buckets.
#[derive(Debug, Clone)]
pub struct RateWindow {
    /// `(stamp, sum-of-deltas-that-second)` per bucket.
    buckets: [(u64, u64); WINDOW_BUCKETS],
}

impl Default for RateWindow {
    fn default() -> Self {
        Self {
            buckets: [(EMPTY, 0); WINDOW_BUCKETS],
        }
    }
}

impl RateWindow {
    /// Adds `delta` in the bucket for `tick`, resetting the bucket if
    /// the ring has wrapped past it since it was last written.
    pub fn add_at(&mut self, tick: u64, delta: u64) {
        let b = &mut self.buckets[(tick % WINDOW_BUCKETS as u64) as usize];
        if b.0 != tick {
            *b = (tick, 0);
        }
        b.1 = b.1.saturating_add(delta);
    }

    /// Sum of deltas over the last `n` buckets ending at `tick`
    /// (inclusive); stale buckets are excluded.
    pub fn sum_at(&self, tick: u64, n: usize) -> u64 {
        self.buckets
            .iter()
            .filter(|(stamp, _)| in_window(*stamp, tick, n.min(WINDOW_BUCKETS)))
            .map(|&(_, v)| v)
            .sum()
    }
}

/// A 60×1s rotating window over a gauge: tracks the min/max value seen
/// each second so `/metrics` can report the 60s range.
#[derive(Debug, Clone)]
pub struct GaugeWindow {
    /// `(stamp, min, max)` per bucket.
    buckets: [(u64, f64, f64); WINDOW_BUCKETS],
}

impl Default for GaugeWindow {
    fn default() -> Self {
        Self {
            buckets: [(EMPTY, 0.0, 0.0); WINDOW_BUCKETS],
        }
    }
}

impl GaugeWindow {
    /// Records a gauge write in the bucket for `tick`.
    pub fn set_at(&mut self, tick: u64, value: f64) {
        let b = &mut self.buckets[(tick % WINDOW_BUCKETS as u64) as usize];
        if b.0 != tick {
            *b = (tick, value, value);
        } else {
            b.1 = b.1.min(value);
            b.2 = b.2.max(value);
        }
    }

    /// `(min, max)` over the last `n` buckets ending at `tick`, or
    /// `None` if no write landed in the window.
    pub fn range_at(&self, tick: u64, n: usize) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for &(stamp, lo, hi) in &self.buckets {
            if in_window(stamp, tick, n.min(WINDOW_BUCKETS)) {
                range = Some(match range {
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                    None => (lo, hi),
                });
            }
        }
        range
    }
}

/// One second's worth of retained histogram samples.
#[derive(Debug, Clone, Default)]
struct SampleBucket {
    stamp: u64,
    count: u64,
    samples: Vec<f64>,
}

/// A 60×1s rotating window over histogram samples: retains up to 256
/// samples per second and reports windowed counts and percentiles.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    buckets: Vec<SampleBucket>,
}

impl Default for SampleWindow {
    fn default() -> Self {
        Self {
            buckets: vec![
                SampleBucket {
                    stamp: EMPTY,
                    count: 0,
                    samples: Vec::new(),
                };
                WINDOW_BUCKETS
            ],
        }
    }
}

impl SampleWindow {
    /// Records one sample in the bucket for `tick`. Past the per-bucket
    /// retention cap the sample still counts but is not kept for
    /// percentiles.
    pub fn record_at(&mut self, tick: u64, value: f64) {
        let b = &mut self.buckets[(tick % WINDOW_BUCKETS as u64) as usize];
        if b.stamp != tick {
            b.stamp = tick;
            b.count = 0;
            b.samples.clear();
        }
        b.count += 1;
        if b.samples.len() < SAMPLES_PER_BUCKET {
            b.samples.push(value);
        }
    }

    /// Samples recorded (retained or not) over the last `n` buckets
    /// ending at `tick`.
    pub fn count_at(&self, tick: u64, n: usize) -> u64 {
        self.buckets
            .iter()
            .filter(|b| in_window(b.stamp, tick, n.min(WINDOW_BUCKETS)))
            .map(|b| b.count)
            .sum()
    }

    /// Retained samples over the last `n` buckets ending at `tick`,
    /// sorted ascending (the input shape [`crate::percentile`] expects).
    pub fn sorted_at(&self, tick: u64, n: usize) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .buckets
            .iter()
            .filter(|b| in_window(b.stamp, tick, n.min(WINDOW_BUCKETS)))
            .flat_map(|b| b.samples.iter().copied())
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Nearest-rank `(p50, p95, p99)` over the retained samples in the
    /// last `n` buckets ending at `tick` (zeros when empty).
    pub fn percentiles_at(&self, tick: u64, n: usize) -> (f64, f64, f64) {
        let sorted = self.sorted_at(tick, n);
        (
            percentile(&sorted, 50.0),
            percentile(&sorted, 95.0),
            percentile(&sorted, 99.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_window_sums_and_rotates() {
        let mut w = RateWindow::default();
        for tick in 0..5 {
            w.add_at(tick, 10);
        }
        assert_eq!(w.sum_at(4, 1), 10);
        assert_eq!(w.sum_at(4, 5), 50);
        assert_eq!(w.sum_at(4, 60), 50);
        // 2 ticks later, the last-1s bucket is empty and 60s still sees all.
        assert_eq!(w.sum_at(6, 1), 0);
        assert_eq!(w.sum_at(6, 60), 50);
    }

    #[test]
    fn rate_window_wraps_and_clears_stale_buckets() {
        let mut w = RateWindow::default();
        w.add_at(3, 7);
        // Same ring slot one full revolution later must not double-count.
        w.add_at(3 + WINDOW_BUCKETS as u64, 5);
        assert_eq!(w.sum_at(3 + WINDOW_BUCKETS as u64, 60), 5);
    }

    #[test]
    fn stale_buckets_are_excluded_without_writes() {
        let mut w = RateWindow::default();
        w.add_at(10, 42);
        // Far in the future, nothing in any window — no rotation thread
        // needed, reads filter on the stamp.
        assert_eq!(w.sum_at(10 + 200, 60), 0);
    }

    #[test]
    fn gauge_window_tracks_min_max() {
        let mut w = GaugeWindow::default();
        w.set_at(0, 5.0);
        w.set_at(0, 1.0);
        w.set_at(2, 9.0);
        assert_eq!(w.range_at(2, 60), Some((1.0, 9.0)));
        assert_eq!(w.range_at(2, 1), Some((9.0, 9.0)));
        assert_eq!(w.range_at(100, 30), None);
    }

    #[test]
    fn sample_window_percentiles_match_ground_truth() {
        let mut w = SampleWindow::default();
        // 100 samples spread over 10 seconds: values 1..=100.
        for i in 0..100u64 {
            w.record_at(i / 10, (i + 1) as f64);
        }
        assert_eq!(w.count_at(9, 60), 100);
        let (p50, p95, p99) = w.percentiles_at(9, 60);
        assert_eq!(p50, 50.0);
        assert_eq!(p95, 95.0);
        assert_eq!(p99, 99.0);
        // A 1s window only sees the last second's ten samples.
        assert_eq!(w.count_at(9, 1), 10);
        let (p50_1s, _, _) = w.percentiles_at(9, 1);
        assert_eq!(p50_1s, 95.0);
    }

    #[test]
    fn sample_window_caps_retention_but_counts_all() {
        let mut w = SampleWindow::default();
        for i in 0..1000 {
            w.record_at(5, i as f64);
        }
        assert_eq!(w.count_at(5, 1), 1000);
        assert_eq!(w.sorted_at(5, 1).len(), 256);
    }
}
