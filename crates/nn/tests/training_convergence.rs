//! Integration tests of the nn substrate: whole-stack convergence on
//! synthetic separable problems, exercising every layer type's forward
//! and backward together.

use antidote_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu};
use antidote_nn::loss::{accuracy, softmax_cross_entropy};
use antidote_nn::optim::{CosineAnnealing, LrSchedule, Sgd};
use antidote_nn::{Layer, Mode};
use antidote_tensor::{init, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Linearly separable 2-class blobs in 8 dimensions.
fn blobs(rng: &mut SmallRng, n_per_class: usize) -> (Tensor, Vec<usize>) {
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for class in 0..2usize {
        let center = if class == 0 { -1.0 } else { 1.0 };
        for _ in 0..n_per_class {
            for _ in 0..8 {
                data.push(center + rng.gen_range(-0.5..0.5));
            }
            labels.push(class);
        }
    }
    (
        Tensor::from_vec(data, &[2 * n_per_class, 8]).unwrap(),
        labels,
    )
}

#[test]
fn linear_classifier_converges_on_blobs() {
    let mut rng = SmallRng::seed_from_u64(1);
    let (x, y) = blobs(&mut rng, 32);
    let mut fc = Linear::new(&mut rng, 8, 2);
    let mut sgd = Sgd::new(0.1).with_momentum(0.9);
    let mut last_loss = f32::INFINITY;
    for _ in 0..50 {
        let logits = fc.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&logits, &y);
        fc.zero_grad();
        fc.backward(&out.grad);
        sgd.begin_step();
        fc.visit_params_mut(&mut |p| sgd.update(p));
        last_loss = out.loss;
    }
    let logits = fc.forward(&x, Mode::Eval);
    assert!(accuracy(&logits, &y) > 0.95, "loss={last_loss}");
}

/// A spatially structured 2-class image problem: class 0 has energy in
/// the top half, class 1 in the bottom half.
fn spatial_classes(rng: &mut SmallRng, n_per_class: usize, size: usize) -> (Tensor, Vec<usize>) {
    let mut images = Tensor::zeros([2 * n_per_class, 1, size, size]);
    let mut labels = Vec::new();
    for i in 0..2 * n_per_class {
        let class = i % 2;
        labels.push(class);
        let item = &mut images.data_mut()[i * size * size..(i + 1) * size * size];
        for yy in 0..size {
            for xx in 0..size {
                let hot = if class == 0 { yy < size / 2 } else { yy >= size / 2 };
                item[yy * size + xx] = if hot {
                    1.0 + rng.gen_range(-0.3..0.3)
                } else {
                    rng.gen_range(-0.3..0.3)
                };
            }
        }
    }
    (images, labels)
}

#[test]
fn conv_stack_converges_on_spatial_classes() {
    let mut rng = SmallRng::seed_from_u64(2);
    let (x, y) = spatial_classes(&mut rng, 24, 8);
    let mut conv = Conv2d::new(&mut rng, 1, 4, 3, 1, 1);
    let mut bn = BatchNorm2d::new(4);
    let mut relu = Relu::new();
    let mut pool = MaxPool2d::new(2);
    let mut flat = Flatten::new();
    let mut fc = Linear::new(&mut rng, 4 * 4 * 4, 2);
    let mut sgd = Sgd::new(0.05).with_momentum(0.9);
    let schedule = CosineAnnealing::paper_default(40);

    for epoch in 0..40 {
        sgd.set_lr(schedule.lr_at(epoch).max(1e-3));
        let h = conv.forward(&x, Mode::Train);
        let h = bn.forward(&h, Mode::Train);
        let h = relu.forward(&h, Mode::Train);
        let h = pool.forward(&h, Mode::Train);
        let h = flat.forward(&h, Mode::Train);
        let logits = fc.forward(&h, Mode::Train);
        let out = softmax_cross_entropy(&logits, &y);
        for l in [
            &mut conv as &mut dyn Layer,
            &mut bn,
            &mut relu,
            &mut pool,
            &mut flat,
            &mut fc,
        ] {
            l.zero_grad();
        }
        let g = fc.backward(&out.grad);
        let g = flat.backward(&g);
        let g = pool.backward(&g);
        let g = relu.backward(&g);
        let g = bn.backward(&g);
        let _ = conv.backward(&g);
        sgd.begin_step();
        for l in [&mut conv as &mut dyn Layer, &mut bn, &mut fc] {
            l.visit_params_mut(&mut |p| sgd.update(p));
        }
    }
    let h = conv.forward(&x, Mode::Eval);
    let h = bn.forward(&h, Mode::Eval);
    let h = relu.forward(&h, Mode::Eval);
    let h = pool.forward(&h, Mode::Eval);
    let h = flat.forward(&h, Mode::Eval);
    let logits = fc.forward(&h, Mode::Eval);
    assert!(
        accuracy(&logits, &y) > 0.9,
        "conv stack should separate spatial classes: {}",
        accuracy(&logits, &y)
    );
}

#[test]
fn weight_decay_controls_norm_growth() {
    let mut rng = SmallRng::seed_from_u64(4);
    let (x, y) = blobs(&mut rng, 16);
    let run = |wd: f32, rng: &mut SmallRng| -> f32 {
        let mut fc = Linear::new(rng, 8, 2);
        let mut sgd = Sgd::new(0.1).with_weight_decay(wd);
        for _ in 0..60 {
            let logits = fc.forward(&x, Mode::Train);
            let out = softmax_cross_entropy(&logits, &y);
            fc.zero_grad();
            fc.backward(&out.grad);
            sgd.begin_step();
            fc.visit_params_mut(&mut |p| sgd.update(p));
        }
        fc.weight().value.norm()
    };
    let mut rng_a = SmallRng::seed_from_u64(5);
    let mut rng_b = SmallRng::seed_from_u64(5);
    let free = run(0.0, &mut rng_a);
    let decayed = run(0.1, &mut rng_b);
    assert!(
        decayed < free,
        "weight decay should shrink weights: {decayed} !< {free}"
    );
}

#[test]
fn gradient_accumulation_is_additive() {
    // Two backward passes without zero_grad must accumulate exactly.
    let mut rng = SmallRng::seed_from_u64(6);
    let mut fc = Linear::new(&mut rng, 4, 2);
    let x = init::uniform(&mut rng, &[3, 4], -1.0, 1.0);
    let y = vec![0usize, 1, 0];
    let grad_once = {
        let logits = fc.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&logits, &y);
        fc.zero_grad();
        fc.backward(&out.grad);
        fc.weight().grad.clone()
    };
    // Twice, accumulated.
    let logits = fc.forward(&x, Mode::Train);
    let out = softmax_cross_entropy(&logits, &y);
    fc.zero_grad();
    fc.backward(&out.grad);
    let logits = fc.forward(&x, Mode::Train);
    let out = softmax_cross_entropy(&logits, &y);
    fc.backward(&out.grad);
    let doubled = fc.weight().grad.clone();
    let expect = &grad_once * 2.0;
    assert!(doubled.allclose(&expect, 1e-5));
}
