//! Property tests: the f32 GEMM is **bit-exact** across intra-op thread
//! budgets.
//!
//! Each output row is owned by one task and row blocks are aligned to the
//! microkernel group size, so the floating-point operations performed for
//! any element are identical whether the kernel runs on one thread or
//! many (see `linalg`'s module docs). These tests pin that claim with
//! bit-level equality (`to_bits`, not `allclose`) between
//! `ANTIDOTE_THREADS=1` and a 4-thread budget, across shapes straddling
//! both the microkernel tail and the parallel-dispatch threshold.

use antidote_tensor::linalg::matmul_into;
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

/// Runs `kernel` into a fresh output at a 1-thread and a 4-thread
/// budget and asserts bit-identical results.
fn assert_budget_parity(
    out_len: usize,
    kernel: impl Fn(&mut [f32]),
    label: &str,
) -> Result<(), TestCaseError> {
    let _guard = budget_lock();
    antidote_par::set_threads(1);
    let mut c1 = vec![0.0f32; out_len];
    kernel(&mut c1);
    antidote_par::set_threads(4);
    let mut c4 = vec![0.0f32; out_len];
    kernel(&mut c4);
    antidote_par::set_threads(1);
    for (i, (a, b)) in c1.iter().zip(&c4).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "{} diverges at flat index {} ({} vs {})",
            label,
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `C += A·B` — every f32 product: forward, input and weight gradients.
    #[test]
    fn matmul_into_thread_parity(
        m in 1usize..48,
        k in 1usize..48,
        n in 64usize..192,
        seed in 0u64..1_000_000,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xABCD, k * n);
        assert_budget_parity(m * n, |c| matmul_into(&a, &b, c, m, k, n), "matmul_into")?;
    }
}

/// A fixed VGG-block-shaped case guaranteed to clear the parallel
/// dispatch threshold (the proptest shapes straddle it randomly).
#[test]
fn large_gemm_thread_parity() {
    let (m, k, n) = (64, 72, 196); // 64·72·196 ≈ 9·10⁵ MACs > MIN_PAR_MACS
    let a = fill(7, m * k);
    let b = fill(11, k * n);
    assert_budget_parity(m * n, |c| matmul_into(&a, &b, c, m, k, n), "large matmul_into")
        .expect("bit-exact parity");
}
