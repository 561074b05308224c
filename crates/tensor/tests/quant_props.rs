//! Property tests for the int8 quantization scheme (DESIGN.md §11).
//!
//! The contract under test: for any value inside the calibrated range,
//! the quantize→dequantize round trip errs by at most half a
//! quantization step (`scale / 2`), values outside the range saturate to
//! `±scale·127`, and the int8 GEMM agrees exactly with a naive
//! `i32`-accumulating reference at every shape and thread budget.

use antidote_tensor::backend::Backend;
use antidote_tensor::quant::{
    self, dequantize_value, gemm_i8, gemm_i8_on, quantize_value, scale_for_absmax,
    QuantizedMatrix, QMAX,
};
use proptest::collection;
use proptest::prelude::*;

/// Deterministic pseudo-random i8 operand with zeros sprinkled in so the
/// group-level zero-skip path runs.
fn fill_i8(seed: u64, len: usize) -> Vec<i8> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The satellite-mandated bound: round-trip error ≤ scale/2 for
    // in-range values (a hair of f32 slack on top: the division and the
    // final multiply each round once).
    #[test]
    fn round_trip_error_bounded_by_half_step(
        absmax in 1e-3f32..1e3,
        frac in -1.0f32..1.0,
    ) {
        let scale = scale_for_absmax(absmax);
        let v = absmax * frac; // always inside the calibrated range
        let back = dequantize_value(quantize_value(v, scale), scale);
        let bound = scale / 2.0 + absmax * 4.0 * f32::EPSILON;
        prop_assert!(
            (v - back).abs() <= bound,
            "|{v} - {back}| = {} > {bound} (scale {scale})",
            (v - back).abs()
        );
    }

    // Out-of-range values saturate to the edge of the representable
    // range instead of wrapping.
    #[test]
    fn out_of_range_saturates(
        absmax in 1e-3f32..1e3,
        excess in 1.0f32..100.0,
    ) {
        let scale = scale_for_absmax(absmax);
        let v = absmax * (1.0 + excess);
        prop_assert_eq!(quantize_value(v, scale), QMAX as i8);
        prop_assert_eq!(quantize_value(-v, scale), -(QMAX as i8));
    }

    // Per-row weight quantization: every entry of every row honors that
    // row's half-step bound (rows are quantized against their own
    // absmax, so every entry is in range by construction).
    #[test]
    fn per_row_round_trip_bounded(
        rows in 1usize..6,
        cols in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut s = seed | 1;
        let w: Vec<f32> = (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 2001) as f32 / 100.0 - 10.0
            })
            .collect();
        let q = QuantizedMatrix::quantize_symmetric_per_row(&w, rows, cols);
        let deq = q.dequantize();
        for r in 0..rows {
            let bound = q.scales[r] / 2.0 + 40.0 * f32::EPSILON;
            for c in 0..cols {
                let (orig, back) = (w[r * cols + c], deq[r * cols + c]);
                prop_assert!(
                    (orig - back).abs() <= bound,
                    "row {r} col {c}: |{orig} - {back}| > {bound}"
                );
            }
        }
    }

    // The int8 GEMM is exact integer arithmetic: it must equal the
    // naive reference bit-for-bit at every shape, including microkernel
    // tails, and at every thread budget.
    #[test]
    fn gemm_i8_matches_naive_and_is_thread_invariant(
        m in 1usize..24,
        k in 1usize..32,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let a = fill_i8(seed, m * k);
        let b = fill_i8(seed ^ 0xBEEF, k * n);
        let expect = naive_gemm_i8(&a, &b, m, k, n);
        let prev = antidote_par::current_threads();
        for threads in [1, 4] {
            antidote_par::set_threads(threads);
            let mut c = vec![0i32; m * n];
            gemm_i8(&a, &b, &mut c, m, k, n);
            antidote_par::set_threads(prev);
            prop_assert!(c == expect, "mismatch at ({m},{k},{n}) threads={threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The overflow invariant that actually holds (and that `gemm_i8`'s
    // docs now claim): single products are bounded by (−128)² = 16384,
    // not 127² — so the GEMM must be exact over the FULL i8 range,
    // −128 included, on every backend. The operand vecs are drawn
    // uniformly from −128..=127 and sliced to the generated shape.
    #[test]
    fn gemm_i8_exact_over_full_i8_range(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..24,
        a_pool in collection::vec(-128i8..=127i8, 12 * 24),
        b_pool in collection::vec(-128i8..=127i8, 24 * 24),
    ) {
        let a = &a_pool[..m * k];
        let b = &b_pool[..k * n];
        let expect = naive_gemm_i8(a, b, m, k, n);
        for be in Backend::supported() {
            let mut c = vec![0i32; m * n];
            gemm_i8_on(be, a, b, &mut c, m, k, n);
            prop_assert!(c == expect, "[{be}] mismatch at ({m},{k},{n})");
        }
    }

    // The quantization entry points, by contrast, are exactly symmetric:
    // they clamp to [−127, 127] and can never emit −128, for any input
    // (finite, infinite, or NaN-adjacent scales are exercised by the
    // wide ranges).
    #[test]
    fn quantizers_never_emit_i8_min(
        v in -1e9f32..1e9,
        absmax in 0.0f32..1e6,
    ) {
        let q = quantize_value(v, scale_for_absmax(absmax));
        prop_assert!(q >= -(QMAX as i8), "quantize_value({v}) = {q}");
        prop_assert!(q as i32 <= QMAX);
    }

    // …including per-row weight quantization of arbitrary matrices.
    #[test]
    fn per_row_quantization_never_emits_i8_min(
        rows in 1usize..5,
        cols in 1usize..10,
        pool in collection::vec(-1e6f32..1e6, 5 * 10),
    ) {
        let w = &pool[..rows * cols];
        let q = QuantizedMatrix::quantize_symmetric_per_row(w, rows, cols);
        prop_assert!(q.data.iter().all(|&v| v >= -(QMAX as i8)));
    }
}

/// Pins the documented accumulator headroom at its extreme: a
/// contraction of `k = 131 071 = i32::MAX / 16384` all-(−128) products
/// reaches `2 147 467 264` without wrapping — on every backend,
/// including the SIMD `madd` pairing (whose pairwise sums hit the
/// worst-case `32 768`).
#[test]
fn gemm_i8_survives_worst_case_accumulation() {
    let k = (i32::MAX / (128 * 128)) as usize; // 131 071
    // m = 4 and n = 8 so the SIMD kernels run their register-blocked
    // vector path (not just scalar tails).
    let (m, n) = (4, 8);
    let a = vec![-128i8; m * k];
    let b = vec![-128i8; k * n];
    for be in Backend::supported() {
        let mut c = vec![0i32; m * n];
        gemm_i8_on(be, &a, &b, &mut c, m, k, n);
        assert!(
            c.iter().all(|&v| v == k as i32 * 16384),
            "[{be}] worst-case accumulation wrapped: {:?}",
            &c[..4]
        );
    }
}

/// A fixed case large enough to clear the parallel-dispatch threshold
/// (the proptest shapes stay below it).
#[test]
fn large_gemm_i8_parallel_dispatch_is_exact() {
    let (m, k, n) = (64, 72, 196); // ≈9·10⁵ MACs > the inline threshold
    let a = fill_i8(7, m * k);
    let b = fill_i8(11, k * n);
    let expect = naive_gemm_i8(&a, &b, m, k, n);
    let prev = antidote_par::current_threads();
    antidote_par::set_threads(4);
    let mut c = vec![0i32; m * n];
    gemm_i8(&a, &b, &mut c, m, k, n);
    antidote_par::set_threads(prev);
    assert_eq!(c, expect);
}

/// The byte-traffic model behind the benchmark's `tensor.gemm_i8_bytes`.
#[test]
fn int8_moves_fewer_bytes_on_the_vgg_block_shape() {
    let (m, k, n) = (256, 2304, 784);
    assert!(quant::gemm_min_bytes(m, k, n, 1) < quant::gemm_min_bytes(m, k, n, 4));
}
