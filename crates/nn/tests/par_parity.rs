//! Property tests: conv forward/backward and the masked executor are
//! **bit-exact** across intra-op thread budgets.
//!
//! `Conv2d` batch items own disjoint output slices, backward reduces
//! weight/bias partials over a partition that depends only on the batch
//! size, and `masked_conv2d` items are fully independent — so
//! `ANTIDOTE_THREADS=1` and a 4-thread budget must produce identical
//! bits everywhere: outputs, gradients, and MAC counts.

use antidote_nn::masked::{masked_conv2d, FeatureMask, MacCounter};
use antidote_nn::{layers::Conv2d, Layer, Mode};
use antidote_tensor::conv::ConvGeometry;
use antidote_tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that mutate the process-global thread budget.
fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic pseudo-random tensor (exact zeros included so the
/// GEMM zero-skip paths run).
fn fill(seed: u64, shape: &[usize]) -> Tensor {
    let mut s = seed | 1;
    Tensor::from_fn(shape.to_vec(), |_| {
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
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Bit patterns of (train forward, input grad, weight grad, bias grad,
/// eval forward).
type ConvBits = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);

/// Forward (train), backward, and eval forward of one deterministic
/// conv; returns every produced buffer as bit patterns.
fn conv_pass(seed: u64, n: usize, cin: usize, cout: usize, hw: usize, k: usize) -> ConvBits {
    let w = fill(seed, &[cout, cin, k, k]);
    let b = fill(seed ^ 0xB1A5, &[cout]);
    let mut conv = Conv2d::from_parts(w, b, 1, k / 2);
    let x = fill(seed ^ 0x1234, &[n, cin, hw, hw]);
    let y = conv.forward(&x, Mode::Train);
    let go = fill(seed ^ 0x9876, &[n, cout, hw, hw]);
    let gi = conv.backward(&go);
    let y_eval = conv.forward(&x, Mode::Eval);
    (
        bits(y.data()),
        bits(gi.data()),
        bits(conv.weight().grad.data()),
        bits(conv.bias().grad.data()),
        bits(y_eval.data()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conv_forward_backward_thread_parity(
        n in 1usize..7,
        cin in 1usize..5,
        cout in 1usize..6,
        hw in 4usize..12,
        k_sel in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let k = if k_sel == 0 { 1 } else { 3 };
        let _guard = budget_lock();
        antidote_par::set_threads(1);
        let seq = conv_pass(seed, n, cin, cout, hw, k);
        antidote_par::set_threads(4);
        let par = conv_pass(seed, n, cin, cout, hw, k);
        antidote_par::set_threads(1);
        prop_assert!(seq.0 == par.0, "train forward diverges");
        prop_assert!(seq.1 == par.1, "input grad diverges");
        prop_assert!(seq.2 == par.2, "weight grad diverges");
        prop_assert!(seq.3 == par.3, "bias grad diverges");
        prop_assert!(seq.4 == par.4, "eval forward diverges");
    }

    #[test]
    fn masked_conv2d_thread_parity(
        n in 1usize..7,
        cin in 1usize..5,
        cout in 1usize..6,
        hw in 4usize..10,
        seed in 0u64..1_000_000,
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let x = fill(seed, &[n, cin, hw, hw]);
        let w = fill(seed ^ 0xFEED, &[cout, cin, 3, 3]);
        let b = fill(seed ^ 0xB1A5, &[cout]);
        // Per-item masks derived from the seed: keep ~half of channels
        // and ~three quarters of spatial columns.
        let masks: Vec<FeatureMask> = (0..n)
            .map(|ni| FeatureMask {
                channel: Some(
                    (0..cin).map(|c| (seed as usize + ni + c).is_multiple_of(2)).collect(),
                ),
                spatial: Some(
                    (0..hw * hw).map(|p| !(seed as usize + ni + p).is_multiple_of(4)).collect(),
                ),
            })
            .collect();

        let run = || {
            let mut counter = MacCounter::new();
            let y = masked_conv2d(&x, &w, Some(&b), geom, &masks, &mut counter);
            (bits(y.data()), counter.total())
        };
        let _guard = budget_lock();
        antidote_par::set_threads(1);
        let (y1, macs1) = run();
        antidote_par::set_threads(4);
        let (y4, macs4) = run();
        antidote_par::set_threads(1);
        prop_assert!(y1 == y4, "masked_conv2d output diverges");
        prop_assert!(macs1 == macs4, "MAC count diverges");
    }
}
