//! Differential oracle for the int8 masked executor.
//!
//! `quantized_masked_conv2d` runs a compacted GEMM (quantize once,
//! unfold the kept channels, `gemm_i8`, dequantize once per output). The
//! reference below is the obvious per-window definition: quantize every
//! kept in-bounds tap, accumulate in `i32`, then `bias + acc·deq`. Exact
//! integer accumulation means the two must agree **bit for bit**
//! (`to_bits`, not `allclose`) and charge the same `u64` MAC total, over
//! every geometry, mask pattern and thread budget.

use antidote_nn::masked::{FeatureMask, MacCounter};
use antidote_nn::quant::{quantized_masked_conv2d, QuantizedConv2d};
use antidote_tensor::conv::ConvGeometry;
use antidote_tensor::quant::{quantize_value, QuantizedMatrix};
use antidote_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests that mutate the process-global thread budget.
fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Never zero, and past the calibrated range now and then (so saturation
/// is exercised): `±[0.01, 1.51)`.
fn nonzero(rng: &mut SmallRng) -> f32 {
    let mag = rng.gen_range(0.01f32..1.51);
    if rng.gen_bool(0.5) {
        mag
    } else {
        -mag
    }
}

/// Keeps each entry with probability 2/3.
fn bits(rng: &mut SmallRng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.gen_bool(2.0 / 3.0)).collect()
}

/// A random int8 layer: weights in `[-127, 127]`, per-row scales, bias.
fn layer(rng: &mut SmallRng, cin: usize, cout: usize, geom: ConvGeometry) -> QuantizedConv2d {
    let cols = cin * geom.kernel * geom.kernel;
    let qweight = QuantizedMatrix {
        data: (0..cout * cols).map(|_| rng.gen_range(-127i8..=127)).collect(),
        scales: (0..cout).map(|_| rng.gen_range(1e-3f32..0.021)).collect(),
        rows: cout,
        cols,
    };
    let bias = (0..cout).map(|_| nonzero(rng)).collect();
    let act_scale = rng.gen_range(0.004f32..0.024);
    QuantizedConv2d::from_parts(Arc::new(qweight), bias, act_scale, cin, geom)
}

/// Mask of one of the five covered kinds: keep-all, channel, spatial,
/// channel + spatial, fully masked.
fn mask(rng: &mut SmallRng, kind: usize, c: usize, plane: usize) -> FeatureMask {
    match kind {
        0 => FeatureMask::keep_all(),
        1 => FeatureMask {
            channel: Some(bits(rng, c)),
            spatial: None,
        },
        2 => FeatureMask {
            channel: None,
            spatial: Some(bits(rng, plane)),
        },
        3 => FeatureMask {
            channel: Some(bits(rng, c)),
            spatial: Some(bits(rng, plane)),
        },
        _ => FeatureMask {
            channel: Some(vec![false; c]),
            spatial: None,
        },
    }
}

/// The per-window definition: quantize each kept in-bounds tap,
/// accumulate `q·w` in `i32`, then `bias + acc·(s_w·s_a)`.
fn reference(input: &Tensor, layer: &QuantizedConv2d, masks: &[FeatureMask]) -> (Vec<f32>, u64) {
    let (n, cin, h, w) = input.shape().as_nchw().unwrap();
    let geom = layer.geometry();
    let k = geom.kernel;
    let (hout, wout) = geom.output_size(h, w);
    let qw = layer.qweight();
    let (mut out, mut macs) = (Vec::new(), 0u64);
    for (ni, mask) in masks.iter().enumerate().take(n) {
        let img = &input.data()[ni * cin * h * w..(ni + 1) * cin * h * w];
        for co in 0..qw.rows {
            let deq = qw.scales[co] * layer.act_scale();
            for oy in 0..hout {
                for ox in 0..wout {
                    let mut acc = 0i32;
                    for ci in (0..cin).filter(|&c| mask.keeps_channel(c)) {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                                let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                let p = iy as usize * w + ix as usize;
                                if !mask.keeps_position(p) {
                                    continue;
                                }
                                let q = quantize_value(img[ci * h * w + p], layer.act_scale());
                                let wq = qw.data[co * qw.cols + (ci * k + ky) * k + kx];
                                acc += q as i32 * wq as i32;
                                macs += 1;
                            }
                        }
                    }
                    out.push(layer.bias()[co] + acc as f32 * deq);
                }
            }
        }
    }
    (out, macs)
}

/// Runs the executor at 1 and 4 threads; both must equal the reference
/// in every bit and in the MAC count.
fn check(input: &Tensor, layer: &QuantizedConv2d, masks: &[FeatureMask]) -> Result<(), String> {
    let (expect, expect_macs) = reference(input, layer, masks);
    let _guard = budget_lock();
    let prev = antidote_par::current_threads();
    let mut outcome = Ok(());
    for threads in [1, 4] {
        antidote_par::set_threads(threads);
        let mut counter = MacCounter::new();
        let y = quantized_masked_conv2d(input, layer, masks, &mut counter);
        if let Some(i) = (0..expect.len()).find(|&i| y.data()[i].to_bits() != expect[i].to_bits()) {
            outcome = Err(format!(
                "{threads} thread(s): output {i} is {} vs reference {}",
                y.data()[i],
                expect[i]
            ));
            break;
        }
        if y.len() != expect.len() || counter.total() != expect_macs {
            outcome = Err(format!(
                "{threads} thread(s): {} outputs / {} MACs vs reference {} / {expect_macs}",
                y.len(),
                counter.total(),
                expect.len()
            ));
            break;
        }
    }
    antidote_par::set_threads(prev);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compacted_gemm_matches_the_per_window_reference_bit_for_bit(
        kernel in 0usize..2,
        stride in 1usize..=2,
        padding in 0usize..=1,
        cin in 1usize..=4,
        cout in 1usize..=9,
        h in 1usize..=7,
        w in 1usize..=7,
        kinds in proptest::collection::vec(0usize..5, 1..=4),
        seed in 0u64..u64::MAX,
    ) {
        let k = [1, 3][kernel];
        let (h, w) = (h.max(k), w.max(k));
        let geom = ConvGeometry::new(k, stride, padding);
        let mut rng = SmallRng::seed_from_u64(seed);
        let q = layer(&mut rng, cin, cout, geom);
        let n = kinds.len();
        let data = (0..n * cin * h * w).map(|_| nonzero(&mut rng)).collect();
        let input = Tensor::from_vec(data, &[n, cin, h, w]).unwrap();
        let masks: Vec<FeatureMask> =
            kinds.iter().map(|&kind| mask(&mut rng, kind, cin, h * w)).collect();
        let result = check(&input, &q, &masks);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// A problem large enough that `gemm_i8` fans its row blocks out over
/// the pool at 4 threads, with every mask kind in one batch.
#[test]
fn pool_sized_batch_matches_the_reference_bit_for_bit() {
    let (cin, cout, h, w) = (16, 36, 18, 20);
    let geom = ConvGeometry::new(3, 1, 1);
    let mut rng = SmallRng::seed_from_u64(2024);
    let q = layer(&mut rng, cin, cout, geom);
    let data = (0..5 * cin * h * w).map(|_| nonzero(&mut rng)).collect();
    let input = Tensor::from_vec(data, &[5, cin, h, w]).unwrap();
    let masks: Vec<FeatureMask> = (0..5).map(|kind| mask(&mut rng, kind, cin, h * w)).collect();
    check(&input, &q, &masks).unwrap();
}
