//! Post-training int8 quantization primitives (DESIGN.md §11).
//!
//! The scheme is deliberately the simplest one that composes with the
//! paper's dynamic pruning:
//!
//! - **Weights**: symmetric per-output-row quantization. Each row of the
//!   `(Cout, Cin·K·K)` filter matrix gets its own scale
//!   `s_w[r] = absmax(row r) / 127` and is stored as `i8` with zero-point
//!   0 ([`QuantizedMatrix::quantize_symmetric_per_row`]).
//! - **Activations**: symmetric per-tensor scale from a calibration pass
//!   (`antidote-core`'s `quant` module), `s_a = range / 127`
//!   ([`scale_for_absmax`]).
//! - **Arithmetic**: `i8 × i8 → i32` accumulation ([`gemm_i8`]); the
//!   result dequantizes with the single factor `s_a · s_w[r]` per output
//!   row. No zero-points means no cross terms — a masked (exact-zero)
//!   input quantizes to exactly 0 and contributes exactly nothing, which
//!   is what lets the quantized masked executor in `antidote-nn` skip
//!   pruned MACs precisely as the fp32 one does.
//!
//! [`gemm_i8`] is on the served path: `antidote-nn`'s int8 masked
//! executor runs every int8 conv as one `gemm_i8` per batch item, over
//! the kept channels' columns only.
//!
//! The round-trip error of a value inside the calibrated range is at most
//! half a quantization step ([`quantize_value`]'s contract, property-
//! tested in `tests/quant_props.rs`).
//!
//! # Example
//!
//! ```
//! use antidote_tensor::quant::{self, QuantizedMatrix};
//!
//! // Quantize a 2×3 weight matrix per row…
//! let w = [0.5f32, -1.0, 0.25, 2.0, 0.0, -4.0];
//! let qw = QuantizedMatrix::quantize_symmetric_per_row(&w, 2, 3);
//! // …and a length-3 activation column with a per-tensor scale.
//! let x = [1.0f32, -0.5, 0.125];
//! let sx = quant::scale_for_absmax(1.0);
//! let mut qx = vec![0i8; 3];
//! quant::quantize_slice(&x, sx, &mut qx);
//! // i8×i8→i32 GEMM, then dequantize with s_a · s_w[row].
//! let mut acc = vec![0i32; 2];
//! quant::gemm_i8(&qw.data, &qx, &mut acc, 2, 3, 1);
//! for (r, &a) in acc.iter().enumerate() {
//!     let y = a as f32 * (sx * qw.scales[r]);
//!     let y_fp32: f32 = (0..3).map(|c| w[r * 3 + c] * x[c]).sum();
//!     assert!((y - y_fp32).abs() < 0.05, "row {r}: {y} vs {y_fp32}");
//! }
//! ```

use crate::backend::{self, Backend};
use crate::linalg::{four_rows_mut, par_row_blocks, MR, NC};

/// The symmetric int8 quantization ceiling. The representable range is
/// `[-QMAX, QMAX]` (−128 is never produced, keeping the scheme exactly
/// symmetric so negation commutes with quantization).
pub const QMAX: i32 = 127;

/// Smallest scale ever returned: an all-zero (or denormal) range still
/// quantizes without dividing by zero, and everything maps to 0.
const MIN_SCALE: f32 = 1e-10;

/// The quantization step for a symmetric range `[-absmax, absmax]`:
/// `absmax / 127`, floored at a tiny positive value so degenerate
/// all-zero ranges stay well-defined.
pub fn scale_for_absmax(absmax: f32) -> f32 {
    (absmax.abs() / QMAX as f32).max(MIN_SCALE)
}

/// Largest absolute value of a slice (0.0 for an empty slice).
pub fn absmax(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Quantizes one value: round-to-nearest of `v / scale`, clamped to
/// `[-QMAX, QMAX]`.
///
/// For `|v| ≤ scale · QMAX` (i.e. inside the calibrated range) the
/// round-trip error `|v − dequantize(quantize(v))|` is at most
/// `scale / 2`; values outside the range saturate.
pub fn quantize_value(v: f32, scale: f32) -> i8 {
    let q = (v / scale).round();
    q.clamp(-(QMAX as f32), QMAX as f32) as i8
}

/// Inverse of [`quantize_value`]: `q · scale`.
pub fn dequantize_value(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

/// Quantizes `src` into `dst` with one shared scale.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn quantize_slice(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_slice length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = quantize_value(s, scale);
    }
}

/// An int8 matrix with per-row scales — the storage format of quantized
/// weight matrices (`rows` = output channels, `cols` = `Cin·K·K`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Row-major `i8` entries, `rows × cols`.
    pub data: Vec<i8>,
    /// Per-row dequantization scales, length `rows`.
    pub scales: Vec<f32>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl QuantizedMatrix {
    /// Symmetric per-row quantization: each row is scaled by its own
    /// `absmax / 127` ([`scale_for_absmax`]), so one badly-conditioned
    /// output channel cannot destroy the precision of the others.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows * cols`.
    pub fn quantize_symmetric_per_row(w: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(w.len(), rows * cols, "weight length mismatch");
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows];
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let scale = scale_for_absmax(absmax(row));
            quantize_slice(row, scale, &mut data[r * cols..(r + 1) * cols]);
            scales[r] = scale;
        }
        Self {
            data,
            scales,
            rows,
            cols,
        }
    }

    /// Dequantizes the whole matrix back to `f32` (testing/debugging aid;
    /// the hot paths never materialize this).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let scale = self.scales[r];
            for (o, &q) in out[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(&self.data[r * self.cols..(r + 1) * self.cols])
            {
                *o = dequantize_value(q, scale);
            }
        }
        out
    }
}

/// Int8 GEMM `C (m×n, i32) += A (m×k, i8) · B (k×n, i8)` with exact
/// `i32` accumulation.
///
/// Mirrors `linalg::matmul_into`'s structure exactly — the same `MR`
/// register blocking, `NC` cache blocking, group-level zero-skip, and
/// `MR`-aligned output-row-block parallelism over the `antidote-par`
/// pool — so the bit-exactness-across-thread-budgets argument of the
/// `linalg` module docs carries over verbatim (and is trivially stronger
/// here: integer addition is associative).
///
/// Overflow cannot occur for any practically sized `k`. The inputs are
/// arbitrary `i8`, so a single product is bounded by `(-128)² = 16384`
/// (not `127² = 16129` — this crate's quantizers clamp to `[-127, 127]`
/// and never emit −128, but `gemm_i8` must be safe for callers that
/// do): `k` may reach `i32::MAX / 16384 = 131 071` before the `i32`
/// accumulator can saturate — two orders of magnitude above the largest
/// `Cin·K·K` in the model zoo (4608 for VGG16 block 5). The full-range
/// bound, −128 included, is pinned by a proptest in
/// `tests/quant_props.rs`.
///
/// # Panics
///
/// Panics (debug assertions) if slice lengths do not match `m*k`, `k*n`,
/// `m*n`.
pub fn gemm_i8(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    gemm_i8_on(backend::active(), a, b, c, m, k, n);
}

/// [`gemm_i8`] on an explicit kernel [`Backend`]. Integer accumulation
/// is exact, so every backend returns identical results — the SIMD
/// backends restructure the loop around the ISA's 16-bit
/// multiply-accumulate (`madd`), which is what finally makes the int8
/// path faster than f32 rather than merely smaller.
///
/// # Panics
///
/// Panics if `be` is not supported on this host.
pub fn gemm_i8_on(be: Backend, a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    be.assert_supported();
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    par_row_blocks(c, m, n, k * n, &|first_row, block| {
        be.gemm_i8_rows(a, b, block, first_row, k, n);
    });
}

/// Scalar [`gemm_i8`] row-block kernel for output rows
/// `first_row .. first_row + block.len() / n` — the reference the SIMD
/// backends are property-tested against.
pub(crate) fn gemm_i8_rows_scalar(
    a: &[i8],
    b: &[i8],
    block: &mut [i32],
    first_row: usize,
    k: usize,
    n: usize,
) {
    let rows = block.len() / n;
    let mut r = 0;
    while r + MR <= rows {
        let i = first_row + r;
        let a_rows: [&[i8]; MR] = std::array::from_fn(|q| &a[(i + q) * k..(i + q + 1) * k]);
        let [c0, c1, c2, c3] = four_rows_mut(&mut block[r * n..(r + MR) * n], n);
        let mut j0 = 0;
        while j0 < n {
            let je = (j0 + NC).min(n);
            // Products are computed in i16: |i8·i8| ≤ 128² = 16384
            // (the extreme is (-128)·(-128); i16::MAX is 32767), and
            // baseline SSE2/NEON has a native 16-bit vector multiply
            // where a 32-bit one would be emulated. Only the accumulate
            // widens to i32.
            for p in 0..k {
                let (x0, x1, x2, x3) = (
                    a_rows[0][p] as i16,
                    a_rows[1][p] as i16,
                    a_rows[2][p] as i16,
                    a_rows[3][p] as i16,
                );
                if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
                    continue;
                }
                let b_row = &b[p * n + j0..p * n + je];
                let iter = c0[j0..je]
                    .iter_mut()
                    .zip(&mut c1[j0..je])
                    .zip(&mut c2[j0..je])
                    .zip(&mut c3[j0..je])
                    .zip(b_row);
                for ((((v0, v1), v2), v3), &bv) in iter {
                    let bv = bv as i16;
                    *v0 += (x0 * bv) as i32;
                    *v1 += (x1 * bv) as i32;
                    *v2 += (x2 * bv) as i32;
                    *v3 += (x3 * bv) as i32;
                }
            }
            j0 = je;
        }
        r += MR;
    }
    while r < rows {
        let a_row = &a[(first_row + r) * k..(first_row + r + 1) * k];
        let c_row = &mut block[r * n..(r + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0 {
                continue; // quantized masked inputs are exact zeros
            }
            let x = a_ip as i16;
            let b_row = &b[p * n..(p + 1) * n];
            for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                *c_ij += (x * b_pj as i16) as i32;
            }
        }
        r += 1;
    }
}

/// Bytes of operand + output traffic a GEMM of this shape moves at
/// minimum (each matrix touched once): the metric the int8 path is
/// guaranteed to win on, independent of wall clock.
///
/// `elem_bytes` is the operand width (4 for `f32`, 1 for `i8`); the
/// output is charged at 4 bytes either way (`f32` out vs `i32`
/// accumulators).
pub fn gemm_min_bytes(m: usize, k: usize, n: usize, elem_bytes: usize) -> u64 {
    ((m * k + k * n) * elem_bytes + m * n * 4) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += a[i * k + p] as i32 * b[p * n + j] as i32;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn pseudo(seed: u64, len: usize) -> Vec<i8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((s >> 33) % 255) as i32 - 127;
                if v.abs() < 20 {
                    0
                } else {
                    v as i8
                }
            })
            .collect()
    }

    #[test]
    fn scale_handles_zero_range() {
        assert!(scale_for_absmax(0.0) > 0.0);
        assert_eq!(quantize_value(0.0, scale_for_absmax(0.0)), 0);
    }

    #[test]
    fn quantize_saturates_and_round_trips() {
        let scale = scale_for_absmax(2.0);
        assert_eq!(quantize_value(2.0, scale), 127);
        assert_eq!(quantize_value(-2.0, scale), -127);
        assert_eq!(quantize_value(100.0, scale), 127); // out of range saturates
        let v = 1.3f32;
        let err = (v - dequantize_value(quantize_value(v, scale), scale)).abs();
        assert!(err <= scale / 2.0 + f32::EPSILON, "err {err} > step/2");
    }

    #[test]
    fn quantization_is_symmetric() {
        let scale = scale_for_absmax(3.0);
        for v in [0.1f32, 0.5, 1.9, 3.0] {
            assert_eq!(
                quantize_value(v, scale) as i32,
                -(quantize_value(-v, scale) as i32)
            );
        }
    }

    #[test]
    fn per_row_scales_are_independent() {
        // Row 1 is 100× larger; per-row scaling keeps row 0 precise.
        let w = [0.01f32, -0.02, 0.005, 1.0, -2.0, 0.5];
        let q = QuantizedMatrix::quantize_symmetric_per_row(&w, 2, 3);
        let deq = q.dequantize();
        for (orig, back) in w.iter().zip(&deq) {
            let row = if orig.abs() > 0.1 { 1 } else { 0 };
            assert!(
                (orig - back).abs() <= q.scales[row] / 2.0 + f32::EPSILON,
                "{orig} -> {back}"
            );
        }
        assert!(q.scales[1] > 10.0 * q.scales[0]);
    }

    #[test]
    fn exact_zero_quantizes_to_zero() {
        // The pruning-composition invariant: masked entries are exact
        // zeros and must stay exact zeros in the int8 domain.
        for scale in [1e-3f32, 0.1, 5.0] {
            assert_eq!(quantize_value(0.0, scale), 0);
        }
    }

    #[test]
    fn gemm_i8_matches_naive() {
        for (m, k, n) in [(1, 3, 2), (4, 8, 5), (7, 5, 9), (13, 17, 11), (8, 4, 4)] {
            let a = pseudo(m as u64 * 31 + 7, m * k);
            let b = pseudo(n as u64 * 17 + 3, k * n);
            let mut c = vec![0i32; m * n];
            gemm_i8(&a, &b, &mut c, m, k, n);
            assert_eq!(c, naive_gemm_i8(&a, &b, m, k, n), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_i8_accumulates() {
        let a = pseudo(1, 6);
        let b = pseudo(2, 6);
        let mut c = vec![5i32; 4];
        gemm_i8(&a, &b, &mut c, 2, 3, 2);
        let mut expect = naive_gemm_i8(&a, &b, 2, 3, 2);
        for v in &mut expect {
            *v += 5;
        }
        assert_eq!(c, expect);
    }

    #[test]
    fn gemm_i8_thread_parity() {
        let (m, k, n) = (37, 64, 29);
        let a = pseudo(11, m * k);
        let b = pseudo(13, k * n);
        let prev = antidote_par::current_threads();
        antidote_par::set_threads(1);
        let mut c1 = vec![0i32; m * n];
        gemm_i8(&a, &b, &mut c1, m, k, n);
        antidote_par::set_threads(4);
        let mut c4 = vec![0i32; m * n];
        gemm_i8(&a, &b, &mut c4, m, k, n);
        antidote_par::set_threads(prev);
        assert_eq!(c1, c4);
    }

    #[test]
    fn byte_traffic_model() {
        // i8 operands are 4× smaller; output charged 4 bytes either way.
        let f32_bytes = gemm_min_bytes(256, 2304, 784, 4);
        let i8_bytes = gemm_min_bytes(256, 2304, 784, 1);
        assert!(i8_bytes < f32_bytes);
        assert_eq!(
            f32_bytes - i8_bytes,
            ((256 * 2304 + 2304 * 784) * 3) as u64
        );
    }
}
