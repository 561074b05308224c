//! Sample statistics: nearest-rank percentiles with their "samples
//! beyond" count, medians and means.

/// Sorts `samples` ascending, dropping non-finite values.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (the workspace's single
/// implementation) plus the number of samples strictly beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    let rank = (q.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    let beyond = sorted.len().saturating_sub(rank.max(1));
    (antidote_obs::percentile(sorted, q), beyond)
}

/// Median (nearest-rank p50) of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

/// Nearest-rank percentile of unsorted samples; 0 when empty.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    antidote_obs::percentile(&sorted(samples), q)
}

/// Mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_samples_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), (100.0, 100));
        assert_eq!(percentile(&s, 95.0), (190.0, 10));
        assert_eq!(percentile(&s, 99.0), (198.0, 2));
        assert_eq!(percentile(&s, 100.0), (200.0, 0));
        assert_eq!(percentile(&s, 0.0), (1.0, 199));
        assert_eq!(percentile(&[], 50.0), (0.0, 0));
    }

    #[test]
    fn median_ignores_non_finite_and_order() {
        assert_eq!(median(&[3.0, f64::NAN, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
