//! Block sensitivity analysis (the Fig. 3 workflow): train a model, then
//! sweep per-block channel-pruning ratios one block at a time to find
//! each block's tolerable upper bound — the input to TTD's per-block
//! targets.
//!
//! Run with: `cargo run --example sensitivity_analysis --release`

use antidote_repro::core::analysis::{block_sensitivity, Axis};
use antidote_repro::core::trainer::{train, TrainConfig};
use antidote_repro::data::SynthConfig;
use antidote_repro::models::{NoopHook, Vgg, VggConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let data = SynthConfig::synth_cifar10().with_samples(24, 8).generate();
    let mut rng = SmallRng::seed_from_u64(0x5E45);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_small(32, 10, 4));
    let cfg = TrainConfig {
        epochs: 10,
        batch_size: 32,
        ..TrainConfig::default()
    };
    println!("training 5-block VGG on the CIFAR10 stand-in…");
    train(&mut net, &data, &mut NoopHook, &cfg);

    let ratios: Vec<f64> = vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.9];
    let curves = block_sensitivity(&mut net, &data.test, Axis::Channel, 5, &ratios, 32);

    println!("\naccuracy (%) when pruning ONLY the given block's channels:\n");
    print!("{:>8}", "ratio");
    for c in &curves {
        print!("{:>9}", c.label);
    }
    println!();
    for (i, r) in ratios.iter().enumerate() {
        print!("{r:>8.1}");
        for c in &curves {
            print!("{:>8.1}%", c.accuracy[i] * 100.0);
        }
        println!();
    }

    // Derive per-block upper bounds: the largest swept ratio whose
    // accuracy drop stays within 5 points — exactly how Sec. IV-B turns
    // Fig. 3 into TTD targets.
    println!("\nderived per-block upper bounds (≤5-point drop):");
    let bounds: Vec<f64> = curves
        .iter()
        .map(|c| {
            let base = c.accuracy[0];
            c.ratios
                .iter()
                .zip(&c.accuracy)
                .filter(|(_, &a)| base - a <= 0.05)
                .map(|(&r, _)| r)
                .fold(0.0, f64::max)
        })
        .collect();
    println!("  {bounds:?}");
    println!("  (paper's VGG16/CIFAR10 bounds were [0.2, 0.2, 0.6, 0.9, 0.9])");
}
