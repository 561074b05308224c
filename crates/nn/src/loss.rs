//! Classification loss: softmax cross-entropy with fused gradient.

use antidote_tensor::reduce::softmax_rows;
use antidote_tensor::Tensor;

/// Result of a softmax-cross-entropy evaluation: scalar loss, gradient
/// w.r.t. the logits, and the softmax probabilities (exposed per
/// C-INTERMEDIATE so callers computing accuracy don't redo the softmax).
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean cross-entropy over the batch.
    pub loss: f32,
    /// Gradient w.r.t. the logits, already divided by the batch size.
    pub grad: Tensor,
    /// Softmax probabilities `(N, K)`.
    pub probs: Tensor,
}

/// Computes mean softmax cross-entropy for `(N, K)` logits against integer
/// class `labels`.
///
/// The returned gradient is the fused, numerically stable
/// `(softmax(x) - onehot(y)) / N`.
///
/// # Panics
///
/// Panics if `logits` is not rank 2, `labels.len() != N`, or any label is
/// out of range.
///
/// # Examples
///
/// ```
/// use antidote_nn::loss::softmax_cross_entropy;
/// use antidote_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2])?;
/// let out = softmax_cross_entropy(&logits, &[0]);
/// assert!(out.loss < 1e-3); // confidently correct
/// # Ok(())
/// # }
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> LossOutput {
    let (n, k) = logits
        .shape()
        .as_matrix()
        .expect("logits must be (N, K)");
    assert_eq!(labels.len(), n, "label count must equal batch size");
    let probs = softmax_rows(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    let inv_n = 1.0 / n as f32;
    let g = grad.data_mut();
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < k, "label {y} out of range for {k} classes");
        let p = probs.data()[i * k + y];
        loss -= p.max(1e-12).ln();
        g[i * k + y] -= 1.0;
    }
    grad.scale(inv_n);
    LossOutput {
        loss: loss * inv_n,
        grad,
        probs,
    }
}

/// Fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics if `logits` is not rank 2 or `labels.len()` differs from the
/// batch size.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let (n, k) = logits.shape().as_matrix().expect("logits must be (N, K)");
    assert_eq!(labels.len(), n, "label count must equal batch size");
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits.data()[i * k..(i + 1) * k];
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (j, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = j;
            }
        }
        if best == y {
            correct += 1;
        }
    }
    correct as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Tensor::zeros([4, 10]);
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((out.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_numerical() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 1.0, 0.1, 0.0, -1.0], &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num = (softmax_cross_entropy(&lp, &labels).loss
                - softmax_cross_entropy(&lm, &labels).loss)
                / (2.0 * eps);
            let ana = out.grad.data()[i];
            assert!(
                (num - ana).abs() < 1e-3,
                "grad mismatch at {i}: num={num} ana={ana}"
            );
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::from_fn([3, 4], |i| (i as f32 * 0.37).sin());
        let out = softmax_cross_entropy(&logits, &[1, 3, 0]);
        for i in 0..3 {
            let s: f32 = out.grad.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.3, 0.7], &[3, 2]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        softmax_cross_entropy(&Tensor::zeros([1, 2]), &[5]);
    }

    #[test]
    fn probs_are_exposed() {
        let logits = Tensor::from_vec(vec![2.0, 0.0], &[1, 2]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0]);
        assert!(out.probs.data()[0] > 0.85);
        assert!((out.probs.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
}
