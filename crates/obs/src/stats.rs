//! Shared sample statistics.

/// Nearest-rank percentile of an ascending-sorted sample slice.
///
/// `q` is in percent (`50.0` = median). Empty input returns `0.0`; `q`
/// outside `[0, 100]` is clamped. This is the single percentile
/// implementation shared across the workspace: obs histograms (and so
/// every serving engine's latency percentiles), the experiment harness
/// (`antidote-bench`) and the benchmark use it.
///
/// Callers are responsible for sorting; to be robust against NaN use
/// `sort_by(f64::total_cmp)` and drop non-finite samples first (as
/// [`crate::Registry::hist_record`] does).
///
/// # Examples
///
/// ```
/// use antidote_obs::percentile;
///
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&sorted, 50.0), 2.0);
/// assert_eq!(percentile(&sorted, 99.0), 4.0);
/// assert_eq!(percentile(&sorted, 0.0), 1.0);
/// ```
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 200.0), 3.0);
    }
}
