//! Property tests: every non-scalar kernel backend is **bit-exact**
//! against the scalar backend, at 1-thread and 4-thread budgets.
//!
//! This is the load-bearing claim of the backend layer (DESIGN.md §15):
//! SIMD only ever replaces per-row-block inner kernels with arithmetic
//! that produces identical bits (per-lane mul+add for f32, exact
//! integer `madd` restructuring for i8, pure copies for im2col, a fixed
//! striped-reduction tree for the attention means). The shapes below
//! deliberately straddle the places a SIMD port goes wrong: `m % MR !=
//! 0` remainder rows, `k == 0`, and `n` that is not a multiple of any
//! lane width.

use antidote_tensor::backend::Backend;
use antidote_tensor::conv::{im2col_on, ConvGeometry};
use antidote_tensor::linalg::matmul_into_on;
use antidote_tensor::quant::gemm_i8_on;
use antidote_tensor::reduce::{channel_mean_per_position_on, spatial_mean_per_channel_on};
use antidote_tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that mutate the process-global thread budget.
fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic pseudo-random operand with exact zeros sprinkled in so
/// the kernels' zero-skip paths run.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((s >> 33) as i32 % 1000) as f32 / 250.0 - 2.0;
            if v.abs() < 0.3 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// Full-range i8 operand — including `-128`, which the quantizers never
/// emit but the GEMM must survive — with zeros for the skip paths.
fn fill_i8_full(seed: u64, len: usize) -> Vec<i8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (s >> 57) & 0x7 == 0 {
                0
            } else {
                ((s >> 33) & 0xFF) as u8 as i8
            }
        })
        .collect()
}

/// Runs `kernel` per backend at 1- and 4-thread budgets and asserts
/// every output is bit-identical to the scalar backend at one thread.
fn assert_backend_parity_f32(
    out_len: usize,
    kernel: impl Fn(Backend, &mut [f32]),
    label: &str,
) -> Result<(), TestCaseError> {
    let _guard = budget_lock();
    antidote_par::set_threads(1);
    let mut reference = vec![0.0f32; out_len];
    kernel(Backend::Scalar, &mut reference);
    for be in Backend::supported() {
        for threads in [1, 4] {
            antidote_par::set_threads(threads);
            let mut c = vec![0.0f32; out_len];
            kernel(be, &mut c);
            antidote_par::set_threads(1);
            for (i, (r, v)) in reference.iter().zip(&c).enumerate() {
                prop_assert!(
                    r.to_bits() == v.to_bits(),
                    "{label} [{be}, {threads}T] diverges from scalar at flat index {i} ({r} vs {v})"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // `C += A·B` — every f32 product in the workspace. `k` starts at 0 and `m`/`n`
    // are free to be any remainder class of MR / the SIMD lane widths.
    #[test]
    fn f32_gemm_backends_bit_exact(
        m in 1usize..20,
        k in 0usize..24,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xABCD, k * n);
        assert_backend_parity_f32(
            m * n,
            |be, c| matmul_into_on(be, &a, &b, c, m, k, n),
            "matmul_into",
        )?;
    }

    // `C (i32) += A·B` over full-range i8, −128 included.
    #[test]
    fn i8_gemm_backends_bit_exact(
        m in 1usize..20,
        k in 0usize..24,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = fill_i8_full(seed, m * k);
        let b = fill_i8_full(seed ^ 0xBEEF, k * n);
        let _guard = budget_lock();
        antidote_par::set_threads(1);
        let mut reference = vec![7i32; m * n]; // seeded: kernels accumulate
        gemm_i8_on(Backend::Scalar, &a, &b, &mut reference, m, k, n);
        for be in Backend::supported() {
            for threads in [1, 4] {
                antidote_par::set_threads(threads);
                let mut c = vec![7i32; m * n];
                gemm_i8_on(be, &a, &b, &mut c, m, k, n);
                antidote_par::set_threads(1);
                prop_assert!(
                    c == reference,
                    "gemm_i8 [{be}, {threads}T] diverges from scalar at ({m},{k},{n})"
                );
            }
        }
    }

    // im2col packing: identical bytes from the per-element gather
    // (scalar) and the span-copy fast path (SIMD backends).
    #[test]
    fn im2col_backends_identical(
        c in 1usize..3,
        h in 3usize..9,
        w in 3usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let geom = ConvGeometry::new(kernel, stride, padding);
        // output_size panics when the kernel overhangs the padded input;
        // the generated ranges guarantee it fits (kernel ≤ 3 ≤ h,w).
        let (hout, wout) = geom.output_size(h, w);
        let input = fill(seed, c * h * w);
        let mut reference = vec![f32::NAN; c * kernel * kernel * hout * wout];
        im2col_on(Backend::Scalar, &input, c, h, w, geom, &mut reference);
        for be in Backend::supported() {
            let mut out = vec![f32::NAN; reference.len()];
            im2col_on(be, &input, c, h, w, geom, &mut out);
            let rb: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert!(
                rb == ob,
                "im2col [{be}] diverges at c={c} h={h} w={w} k={kernel} s={stride} p={padding}"
            );
        }
    }

    // The attention mean statistics (paper Eq. 1 and Eq. 2): identical
    // bits on every backend, so the pruning masks derived from them
    // cannot depend on the host ISA. Plane sizes cover every `len % 8`
    // class of the striped sum.
    #[test]
    fn attention_means_backends_bit_exact(
        n in 1usize..3,
        c in 1usize..6,
        h in 1usize..8,
        w in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let data = fill(seed, n * c * h * w);
        let f = Tensor::from_vec(data, &[n, c, h, w]).unwrap();
        let m_ref = spatial_mean_per_channel_on(Backend::Scalar, &f);
        let p_ref = channel_mean_per_position_on(Backend::Scalar, &f);
        for be in Backend::supported() {
            let m = spatial_mean_per_channel_on(be, &f);
            let p = channel_mean_per_position_on(be, &f);
            for (i, (r, v)) in m_ref.data().iter().zip(m.data()).enumerate() {
                prop_assert!(
                    r.to_bits() == v.to_bits(),
                    "spatial mean [{be}] diverges at {i} ({r} vs {v})"
                );
            }
            for (i, (r, v)) in p_ref.data().iter().zip(p.data()).enumerate() {
                prop_assert!(
                    r.to_bits() == v.to_bits(),
                    "channel mean [{be}] diverges at {i} ({r} vs {v})"
                );
            }
        }
    }
}

/// Fixed shapes pinning the exact edge cases called out by the issue:
/// remainder rows (`m % MR != 0`), an empty contraction (`k == 0`), and
/// `n` below / off every lane width (1, 3, 5, 7, 9).
#[test]
fn edge_shapes_bit_exact_on_every_backend() {
    for (m, k, n) in [
        (1, 5, 1),
        (2, 0, 9),
        (3, 7, 3),
        (5, 4, 5),
        (6, 3, 7),
        (7, 9, 9),
        (4, 1, 8),
        (9, 2, 33),
    ] {
        let a = fill(m as u64 * 31 + k as u64, m * k);
        let b = fill(n as u64 * 17 + 3, k * n);
        let ai = fill_i8_full(m as u64 * 7 + 1, m * k);
        let bi = fill_i8_full(n as u64 * 13 + 5, k * n);
        let _guard = budget_lock();
        antidote_par::set_threads(1);
        let mut c_ref = vec![0.0f32; m * n];
        matmul_into_on(Backend::Scalar, &a, &b, &mut c_ref, m, k, n);
        let mut ci_ref = vec![0i32; m * n];
        gemm_i8_on(Backend::Scalar, &ai, &bi, &mut ci_ref, m, k, n);
        for be in Backend::supported() {
            let mut c = vec![0.0f32; m * n];
            matmul_into_on(be, &a, &b, &mut c, m, k, n);
            let cb: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u32> = c_ref.iter().map(|v| v.to_bits()).collect();
            assert_eq!(cb, rb, "f32 gemm [{be}] diverges at ({m},{k},{n})");
            let mut ci = vec![0i32; m * n];
            gemm_i8_on(be, &ai, &bi, &mut ci, m, k, n);
            assert_eq!(ci, ci_ref, "i8 gemm [{be}] diverges at ({m},{k},{n})");
        }
    }
}

/// A VGG-block-sized case that clears the parallel-dispatch threshold,
/// so the 4-thread runs above actually fan out over the pool per
/// backend (the proptest shapes stay below `MIN_PAR_MACS`).
#[test]
fn large_gemm_parallel_dispatch_bit_exact_per_backend() {
    let (m, k, n) = (64, 72, 196); // ≈9·10⁵ MACs > the inline threshold
    let a = fill(7, m * k);
    let b = fill(11, k * n);
    assert_backend_parity_f32(
        m * n,
        |be, c| matmul_into_on(be, &a, &b, c, m, k, n),
        "large matmul_into",
    )
    .expect("bit-exact parity");

    let ai = fill_i8_full(19, m * k);
    let bi = fill_i8_full(23, k * n);
    let _guard = budget_lock();
    antidote_par::set_threads(1);
    let mut ci_ref = vec![0i32; m * n];
    gemm_i8_on(Backend::Scalar, &ai, &bi, &mut ci_ref, m, k, n);
    for be in Backend::supported() {
        antidote_par::set_threads(4);
        let mut ci = vec![0i32; m * n];
        gemm_i8_on(be, &ai, &bi, &mut ci, m, k, n);
        antidote_par::set_threads(1);
        assert_eq!(ci, ci_ref, "large i8 gemm [{be}] diverges");
    }
}
