//! The int8 masked executor must *count* exactly the same
//! multiply–accumulates as the fp32 masked executor for identical masks,
//! across a sweep of mask patterns and thread budgets, and its outputs
//! must stay inside the analytic quantization error bound of the fp32
//! ones.
//!
//! Counted-MAC equality is the load-bearing invariant for the paper's
//! compute-budget accounting: a serving stack that flips
//! `ANTIDOTE_SERVE_QUANT=int8` must report the same pruning savings as
//! the fp32 path, because the masks — not the arithmetic width — decide
//! what gets skipped.

use antidote_nn::layers::Conv2d;
use antidote_nn::masked::{masked_conv2d, FeatureMask, MacCounter};
use antidote_nn::quant::{quantized_masked_conv2d, QuantizedConv2d};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Deterministic input tensor with a few exact zeros so the zero-skip
/// paths in both executors run.
fn synth_input(n: usize, c: usize, s: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    let data: Vec<f32> = (0..n * c * s * s)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) as i32 % 2001) as f32 / 1000.0 - 1.0;
            if v.abs() < 0.05 {
                0.0
            } else {
                v
            }
        })
        .collect();
    Tensor::from_vec(data, &[n, c, s, s]).unwrap()
}

/// Worst-case `|int8 − fp32|` of one output: every one of the `Cin·K²`
/// taps errs by half an activation step against a worst-case weight,
/// plus the weight's own half-step against the activation range (the
/// bound `nn::quant`'s unit tests use).
fn quant_tolerance(layer: &QuantizedConv2d, cin: usize, k: usize) -> f32 {
    let taps = (cin * k * k) as f32;
    let wmax = layer
        .weight_scales()
        .iter()
        .fold(0.0f32, |m, &s| m.max(s * 127.0));
    taps * (layer.act_scale() / 2.0 * wmax + layer.act_scale() * 127.0 * wmax / 254.0)
}

/// Every mask pattern the sweep covers, for a `c`-channel, `s×s` map.
fn mask_patterns(c: usize, s: usize) -> Vec<(&'static str, Vec<FeatureMask>)> {
    let hw = s * s;
    let dense = FeatureMask::keep_all();
    let channel_only = FeatureMask {
        channel: Some((0..c).map(|i| i % 3 != 0).collect()),
        spatial: None,
    };
    let spatial_only = FeatureMask {
        channel: None,
        spatial: Some((0..hw).map(|p| p % 2 == 0).collect()),
    };
    let both = FeatureMask {
        channel: Some((0..c).map(|i| i % 2 == 0).collect()),
        spatial: Some((0..hw).map(|p| p % 3 != 1).collect()),
    };
    let fully_masked = FeatureMask {
        channel: Some(vec![false; c]),
        spatial: None,
    };
    vec![
        ("dense", vec![dense.clone(), dense]),
        ("channel-only", vec![channel_only.clone(), channel_only]),
        ("spatial-only", vec![spatial_only.clone(), spatial_only]),
        ("channel+spatial", vec![both.clone(), both]),
        (
            "mixed-per-item",
            vec![
                FeatureMask {
                    channel: Some((0..c).map(|i| i % 2 == 1).collect()),
                    spatial: Some((0..hw).map(|p| p % 4 != 0).collect()),
                },
                fully_masked,
            ],
        ),
    ]
}

#[test]
fn quantized_and_fp32_masked_executors_count_identical_macs() {
    let (n, cin, cout, s, k) = (2usize, 6usize, 8usize, 6usize, 3usize);
    let mut rng = SmallRng::seed_from_u64(42);
    let conv = Conv2d::new(&mut rng, cin, cout, k, 1, 1);
    let input = synth_input(n, cin, s, 9);
    let act_scale = antidote_tensor::quant::scale_for_absmax(1.0);
    let qconv = QuantizedConv2d::from_conv(&conv, act_scale);

    let prev = antidote_par::current_threads();
    for threads in [1usize, 4] {
        antidote_par::set_threads(threads);
        for (name, masks) in mask_patterns(cin, s) {
            let mut fp32_macs = MacCounter::new();
            let fp32_out = masked_conv2d(
                &input,
                &conv.weight().value,
                Some(&conv.bias().value),
                conv.geometry(),
                &masks,
                &mut fp32_macs,
            );
            let mut int8_macs = MacCounter::new();
            let int8_out = quantized_masked_conv2d(&input, &qconv, &masks, &mut int8_macs);

            assert_eq!(
                fp32_macs.total(),
                int8_macs.total(),
                "MAC counts diverge for pattern `{name}` at {threads} thread(s)"
            );
            assert_eq!(fp32_out.shape().dims(), int8_out.shape().dims());
            let tol = quant_tolerance(&qconv, cin, k);
            assert!(
                fp32_out.allclose(&int8_out, tol),
                "int8 outputs leave the analytic bound {tol} for pattern `{name}`"
            );
        }
    }
    antidote_par::set_threads(prev);
}

#[test]
fn quantized_masked_macs_shrink_with_the_mask() {
    // Sanity on the shared counting model: pruning strictly reduces the
    // count, and a fully-masked batch reports zero.
    // padding = 0 so the analytic `macs()` model (which counts every
    // kernel position) matches the executor's tap count exactly.
    let (n, cin, cout, s, k) = (1usize, 4usize, 5usize, 5usize, 3usize);
    let mut rng = SmallRng::seed_from_u64(7);
    let conv = Conv2d::new(&mut rng, cin, cout, k, 1, 0);
    let input = synth_input(n, cin, s, 3);
    let qconv = QuantizedConv2d::from_conv(&conv, antidote_tensor::quant::scale_for_absmax(1.0));

    let count = |masks: &[FeatureMask]| {
        let mut macs = MacCounter::new();
        quantized_masked_conv2d(&input, &qconv, masks, &mut macs);
        macs.total()
    };

    let dense = count(&[FeatureMask::keep_all()]);
    let pruned = count(&[FeatureMask {
        channel: Some(vec![true, false, true, false]),
        spatial: None,
    }]);
    let nothing = count(&[FeatureMask {
        channel: Some(vec![false; cin]),
        spatial: None,
    }]);

    assert!(dense > pruned, "pruning must reduce counted MACs");
    assert!(pruned > 0);
    assert_eq!(nothing, 0);
    assert_eq!(dense, qconv.macs(s, s));
}
