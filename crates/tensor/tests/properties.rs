//! Property-based tests for the tensor substrate.

use antidote_tensor::conv::{col2im, conv2d_reference, im2col, ConvGeometry};
use antidote_tensor::linalg::{matmul, matmul_into, transpose};
use antidote_tensor::reduce::{
    channel_mean_per_position, softmax_rows, spatial_mean_per_channel, topk_indices,
};
use antidote_tensor::Tensor;
use proptest::prelude::*;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..6
}

fn tensor_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        m in small_dim(), k in small_dim(), n in small_dim(),
        seed in 0u64..1000,
    ) {
        let f = |s: u64, i: usize| (((i as u64 + 1) * (s + 3)) % 97) as f32 * 0.1 - 4.0;
        let a = Tensor::from_fn([m, k], |i| f(seed, i));
        let b1 = Tensor::from_fn([k, n], |i| f(seed + 1, i));
        let b2 = Tensor::from_fn([k, n], |i| f(seed + 2, i));
        let lhs = matmul(&a, &(&b1 + &b2));
        let rhs = &matmul(&a, &b1) + &matmul(&a, &b2);
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn transpose_is_involution(m in small_dim(), n in small_dim(), data_seed in 0u64..100) {
        let t = Tensor::from_fn([m, n], |i| ((i as u64 * 7 + data_seed) % 13) as f32);
        prop_assert!(transpose(&transpose(&t)).allclose(&t, 0.0));
    }

    #[test]
    fn matmul_transpose_identity(
        m in small_dim(), k in small_dim(), n in small_dim(), s in 0u64..50,
    ) {
        // (AB)^T == B^T A^T
        let a = Tensor::from_fn([m, k], |i| ((i as u64 * 11 + s) % 17) as f32 * 0.3 - 2.0);
        let b = Tensor::from_fn([k, n], |i| ((i as u64 * 13 + s) % 19) as f32 * 0.2 - 1.5);
        let lhs = transpose(&matmul(&a, &b));
        let rhs = matmul(&transpose(&b), &transpose(&a));
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn reshape_preserves_sum(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let len: usize = dims.iter().product();
        let t = Tensor::from_fn(dims.clone(), |i| i as f32 * 0.5);
        let flat = t.reshape(&[len]).unwrap();
        prop_assert_eq!(t.sum(), flat.sum());
    }

    #[test]
    fn softmax_rows_are_distributions(n in small_dim(), k in small_dim(), s in 0u64..50) {
        let logits = Tensor::from_fn([n, k], |i| ((i as u64 * 31 + s) % 41) as f32 * 0.7 - 14.0);
        let p = softmax_rows(&logits);
        for i in 0..n {
            let row = &p.data()[i * k..(i + 1) * k];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn topk_returns_largest(values in proptest::collection::vec(-100.0f32..100.0, 1..20), frac in 0.0f64..1.0) {
        let k = ((values.len() as f64) * frac) as usize;
        let picked = topk_indices(&values, k);
        prop_assert_eq!(picked.len(), k);
        // Every picked value >= every unpicked value.
        let picked_set: std::collections::HashSet<usize> = picked.iter().copied().collect();
        let min_picked = picked.iter().map(|&i| values[i]).fold(f32::INFINITY, f32::min);
        for (i, &v) in values.iter().enumerate() {
            if !picked_set.contains(&i) {
                prop_assert!(v <= min_picked + 1e-6);
            }
        }
    }

    #[test]
    fn attention_reductions_agree_on_totals(
        n in 1usize..3, c in 1usize..5, h in 1usize..5, w in 1usize..5, s in 0u64..50,
    ) {
        // mean of Eq.1 over channels == mean of Eq.2 over positions == global mean
        let f = Tensor::from_fn([n, c, h, w], |i| ((i as u64 * 23 + s) % 29) as f32 * 0.4);
        let ch = spatial_mean_per_channel(&f);
        let sp = channel_mean_per_position(&f);
        prop_assert!((ch.mean() - f.mean()).abs() < 1e-4);
        prop_assert!((sp.mean() - f.mean()).abs() < 1e-4);
    }

    #[test]
    fn gemm_conv_equals_reference_conv(
        cin in 1usize..4, cout in 1usize..4, h in 3usize..8, w in 3usize..8, s in 0u64..30,
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor::from_fn([cin, h, w], |i| ((i as u64 * 37 + s) % 43) as f32 * 0.1 - 2.0);
        let weight = Tensor::from_fn([cout, cin, 3, 3], |i| ((i as u64 * 41 + s) % 47) as f32 * 0.05 - 1.0);
        let reference = conv2d_reference(&input, &weight, None, geom);

        let (hout, wout) = geom.output_size(h, w);
        let mut cols = vec![0.0; cin * 9 * hout * wout];
        im2col(input.data(), cin, h, w, geom, &mut cols);
        let mut out = vec![0.0; cout * hout * wout];
        matmul_into(weight.data(), &cols, &mut out, cout, cin * 9, hout * wout);
        let gemm = Tensor::from_vec(out, &[cout, hout, wout]).unwrap();
        prop_assert!(gemm.allclose(&reference, 1e-3));
    }

    #[test]
    fn col2im_adjoint_property(
        c in 1usize..3, h in 3usize..7, w in 3usize..7, s in 0u64..30,
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let (hout, wout) = geom.output_size(h, w);
        let cols_len = c * 9 * hout * wout;
        let x: Vec<f32> = (0..c * h * w).map(|i| ((i as u64 * 31 + s) % 23) as f32 * 0.1).collect();
        let y: Vec<f32> = (0..cols_len).map(|i| ((i as u64 * 17 + s) % 29) as f32 * 0.05).collect();
        let mut ix = vec![0.0; cols_len];
        im2col(&x, c, h, w, geom, &mut ix);
        let lhs: f32 = ix.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut cy = vec![0.0; c * h * w];
        col2im(&y, c, h, w, geom, &mut cy);
        let rhs: f32 = x.iter().zip(&cy).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn elementwise_ops_commute_with_map(len in 1usize..64, s in 0u64..50) {
        let data = ((s % 7) as f32 + 1.0) * 0.3;
        let a = Tensor::from_fn([len], |i| i as f32 * data);
        let doubled = &a + &a;
        let mapped = a.map(|x| 2.0 * x);
        prop_assert!(doubled.allclose(&mapped, 1e-5));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn from_vec_rejects_wrong_lengths(extra in 1usize..5) {
        let r = Tensor::from_vec(vec![0.0; 4 + extra], &[2, 2]);
        prop_assert!(r.is_err());
    }

    #[test]
    fn tensor_data_strategy_roundtrip(data in tensor_of(12)) {
        let t = Tensor::from_vec(data.clone(), &[3, 4]).unwrap();
        prop_assert_eq!(t.into_vec(), data);
    }
}

/// Every way a tensor can be written in place.
fn write_in_place(t: &mut Tensor, op: usize, other: &Tensor) {
    match op {
        0 => t.data_mut()[0] += 1.0,
        1 => t.set(&[0], 99.0),
        2 => t.map_in_place(|x| x - 3.0),
        3 => t.axpy(0.5, other),
        4 => t.scale(2.0),
        5 => *t += other,
        _ => *t -= other,
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn writing_a_clone_never_reaches_the_original(data in tensor_of(12), op in 0usize..7) {
        let a = Tensor::from_vec(data, &[12]).unwrap();
        let before = bits(&a);
        let ones = Tensor::ones([12]);
        let mut b = a.clone();
        prop_assert!(b.shares_storage(&a));
        write_in_place(&mut b, op, &ones);
        prop_assert!(!b.shares_storage(&a), "the write must have copied the shared buffer");
        prop_assert_eq!(bits(&a), before);
        prop_assert_ne!(bits(&b), bits(&a));
    }

    #[test]
    fn a_unique_holder_writes_in_place(data in tensor_of(12), op in 0usize..7) {
        let mut t = Tensor::from_vec(data, &[12]).unwrap();
        let ones = Tensor::ones([12]);
        let address = t.data().as_ptr();
        write_in_place(&mut t, op, &ones);
        prop_assert_eq!(t.data_mut().as_ptr(), address);
        // A clone that is dropped again leaves the tensor the only holder.
        drop(t.clone());
        prop_assert_eq!(t.data_mut().as_ptr(), address);
    }

    #[test]
    fn into_vec_of_a_shared_tensor_copies_equal_values(data in tensor_of(12)) {
        let a = Tensor::from_vec(data.clone(), &[3, 4]).unwrap();
        let b = a.clone();
        prop_assert_eq!(b.into_vec(), data.clone());
        prop_assert_eq!(a.data(), &data[..]);
    }
}
