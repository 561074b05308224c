//! Binary mask generation from attention coefficients (Eq. 3 and Eq. 4).
//!
//! The paper binarizes attention with a top-k rule: keep the
//! `k = int(p·C)` highest-attention channels (Eq. 3) and the
//! `k = int(p·H·W)` highest-attention spatial columns (Eq. 4), where `p`
//! is the *reserved* fraction. A mean-relative threshold policy is
//! provided as an ablation.

use antidote_tensor::reduce::topk_indices;
use serde::{Deserialize, Serialize};

/// How attention coefficients are binarized into keep-masks.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum MaskPolicy {
    #[default]
    /// Keep the top-k coefficients, `k = round(keep_fraction · len)` —
    /// the paper's Eq. 3/4 rule.
    TopK,
    /// Keep coefficients `>= alpha · mean(coefficients)` — threshold
    /// ablation; the realized keep fraction varies per input.
    Threshold {
        /// Multiplier on the mean attention.
        alpha: f32,
    },
}

/// Ranking direction: the paper's attention-based pruning keeps the
/// *largest* coefficients; the inverse criterion (Fig. 2's control) keeps
/// the smallest; random ignores the coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Criterion {
    /// Keep top-attention components (the proposed method).
    #[default]
    Attention,
    /// Keep uniformly random components (Fig. 2 control).
    Random,
    /// Keep the *lowest*-attention components (Fig. 2 control — prunes
    /// the most important features first).
    InverseAttention,
}

/// The top-k count of Eqs. 3–4 over `n` components: `k = round(p·n)`,
/// at most `n`, and the keep fraction `k/n` a top-k mask realizes
/// (exactly 1.0 when `p ≥ 1` or `n` is 0).
///
/// # Examples
///
/// ```
/// use antidote_core::mask::topk_count;
///
/// assert_eq!(topk_count(0.8, 64), (51, 51.0 / 64.0));
/// assert_eq!(topk_count(1.0, 7), (7, 1.0));
/// ```
pub fn topk_count(keep_fraction: f64, n: usize) -> (usize, f64) {
    if n == 0 || keep_fraction >= 1.0 {
        return (n, 1.0);
    }
    let k = ((keep_fraction * n as f64).round() as usize).min(n);
    (k, k as f64 / n as f64)
}

/// Builds a keep-mask over `coefficients` reserving `keep_fraction` of
/// entries, according to `policy`.
///
/// With `keep_fraction >= 1.0` everything is kept; with `0.0` everything
/// is pruned.
///
/// # Panics
///
/// Panics if `keep_fraction` is negative or NaN.
///
/// # Examples
///
/// ```
/// use antidote_core::mask::{binarize, MaskPolicy};
///
/// let mask = binarize(&[0.9, 0.1, 0.5, 0.7], 0.5, MaskPolicy::TopK);
/// assert_eq!(mask, vec![true, false, false, true]);
/// ```
pub fn binarize(coefficients: &[f32], keep_fraction: f64, policy: MaskPolicy) -> Vec<bool> {
    assert!(
        keep_fraction >= 0.0 && !keep_fraction.is_nan(),
        "keep fraction must be non-negative"
    );
    let n = coefficients.len();
    match policy {
        MaskPolicy::TopK => {
            let (k, _) = topk_count(keep_fraction, n);
            let mut mask = vec![false; n];
            for i in topk_indices(coefficients, k) {
                mask[i] = true;
            }
            mask
        }
        MaskPolicy::Threshold { alpha } => {
            let mean = coefficients.iter().sum::<f32>() / n as f32;
            let cut = alpha * mean;
            coefficients.iter().map(|&c| c >= cut).collect()
        }
    }
}

/// Builds a keep-mask under a [`Criterion`]: attention keeps top-k,
/// inverse keeps bottom-k, random keeps a uniform subset of size k (using
/// the supplied `rng`).
pub fn binarize_with_criterion<R: rand::Rng + ?Sized>(
    coefficients: &[f32],
    keep_fraction: f64,
    criterion: Criterion,
    rng: &mut R,
) -> Vec<bool> {
    let n = coefficients.len();
    let (k, _) = topk_count(keep_fraction, n);
    match criterion {
        Criterion::Attention => binarize(coefficients, keep_fraction, MaskPolicy::TopK),
        Criterion::InverseAttention => {
            let negated: Vec<f32> = coefficients.iter().map(|&c| -c).collect();
            let mut mask = vec![false; n];
            for i in topk_indices(&negated, k) {
                mask[i] = true;
            }
            mask
        }
        Criterion::Random => {
            let mut idx: Vec<usize> = (0..n).collect();
            // Partial Fisher–Yates: choose k distinct positions.
            for i in 0..k.min(n) {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            let mut mask = vec![false; n];
            for &i in &idx[..k] {
                mask[i] = true;
            }
            mask
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn topk_keeps_exactly_k() {
        let c = [0.1, 0.9, 0.4, 0.8, 0.2];
        let m = binarize(&c, 0.4, MaskPolicy::TopK);
        assert_eq!(m.iter().filter(|&&b| b).count(), 2);
        assert!(m[1] && m[3]);
    }

    #[test]
    fn keep_all_and_keep_none() {
        let c = [1.0, 2.0];
        assert_eq!(binarize(&c, 1.0, MaskPolicy::TopK), vec![true, true]);
        assert_eq!(binarize(&c, 0.0, MaskPolicy::TopK), vec![false, false]);
        assert_eq!(binarize(&c, 2.0, MaskPolicy::TopK), vec![true, true]);
    }

    #[test]
    fn threshold_policy_scales_with_mean() {
        let c = [1.0, 2.0, 3.0, 6.0]; // mean 3
        let m = binarize(&c, 0.5, MaskPolicy::Threshold { alpha: 1.0 });
        assert_eq!(m, vec![false, false, true, true]);
    }

    #[test]
    fn inverse_keeps_smallest() {
        let c = [0.1, 0.9, 0.4];
        let mut rng = SmallRng::seed_from_u64(0);
        let m = binarize_with_criterion(&c, 1.0 / 3.0, Criterion::InverseAttention, &mut rng);
        assert_eq!(m, vec![true, false, false]);
    }

    #[test]
    fn inverse_is_complement_of_attention_at_half() {
        let c = [0.1, 0.9, 0.4, 0.8];
        let mut rng = SmallRng::seed_from_u64(0);
        let att = binarize_with_criterion(&c, 0.5, Criterion::Attention, &mut rng);
        let inv = binarize_with_criterion(&c, 0.5, Criterion::InverseAttention, &mut rng);
        for (a, i) in att.iter().zip(&inv) {
            assert_ne!(a, i);
        }
    }

    #[test]
    fn random_keeps_k_and_varies() {
        let c = [0.0f32; 16];
        let mut rng = SmallRng::seed_from_u64(1);
        let m1 = binarize_with_criterion(&c, 0.5, Criterion::Random, &mut rng);
        let m2 = binarize_with_criterion(&c, 0.5, Criterion::Random, &mut rng);
        assert_eq!(m1.iter().filter(|&&b| b).count(), 8);
        assert_eq!(m2.iter().filter(|&&b| b).count(), 8);
        assert_ne!(m1, m2, "random masks should differ across draws");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fraction_panics() {
        binarize(&[1.0], -0.1, MaskPolicy::TopK);
    }

    #[test]
    fn rounding_matches_paper_int() {
        // Eq. 3: k = int(p*C). We use round() which matches int() for the
        // paper's ratios on its channel counts (e.g. 0.8*64 = 51.2 -> 51).
        let c: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let m = binarize(&c, 0.8, MaskPolicy::TopK);
        assert_eq!(m.iter().filter(|&&b| b).count(), 51);
    }
}
