//! Quickstart: train a small VGG on a synthetic CIFAR stand-in, then
//! dynamically prune it with AntiDote's attention masks and measure the
//! real computation savings.
//!
//! Run with: `cargo run --example quickstart --release`

use antidote_repro::core::trainer::{self, TrainConfig};
use antidote_repro::core::{DynamicPruner, PruneSchedule};
use antidote_repro::data::SynthConfig;
use antidote_repro::models::{Network, NoopHook, Vgg, VggConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // 1. A synthetic 4-class dataset of 3x16x16 images (see DESIGN.md §2
    //    for why synthetic data faithfully exercises dynamic pruning).
    let data = SynthConfig::tiny(4, 16).with_samples(32, 8).generate();
    println!(
        "dataset: {} train / {} test images, {} classes",
        data.train.len(),
        data.test.len(),
        data.config.classes
    );

    // 2. A two-block VGG.
    let mut rng = SmallRng::seed_from_u64(7);
    let mut net = Vgg::new(&mut rng, VggConfig::vgg_tiny(16, 4));
    println!("model: {} ({} parameters)", net.describe(), net.param_count());

    // 3. Plain training (SGD + cosine decay, the paper's setup).
    let cfg = TrainConfig {
        epochs: 10,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let history = trainer::train(&mut net, &data, &mut NoopHook, &cfg);
    println!(
        "trained {} epochs: final train acc {:.1}%",
        history.epochs.len(),
        history.final_train_acc() * 100.0
    );
    let base_acc = trainer::evaluate_plain(&mut net, &data.test, 16);
    println!("test accuracy (dense): {:.1}%", base_acc * 100.0);

    // 4. Attention-based dynamic pruning: drop 50% of block-1 channels
    //    per input, picked by Eq. (1) channel attention. Block 1's output
    //    feeds block 2's convolutions, which then skip the dropped input
    //    channels (the last block's output feeds only the head, so
    //    pruning it saves no conv MACs).
    let mut pruner = DynamicPruner::new(PruneSchedule::new(vec![0.5, 0.0], vec![]));
    let (pruned_acc, pruned_macs) =
        trainer::evaluate_measured(&mut net, &data.test, &mut pruner, 16);
    let (_, dense_macs) = trainer::evaluate_measured(&mut net, &data.test, &mut NoopHook, 16);
    println!(
        "test accuracy (50% of block-1 channels dynamically pruned): {:.1}%",
        pruned_acc * 100.0
    );
    println!(
        "measured MACs per image: {:.3e} -> {:.3e} ({:.1}% skipped)",
        dense_macs,
        pruned_macs,
        100.0 * (1.0 - pruned_macs / dense_macs)
    );
    let last_batch = pruner.keep_fractions();
    let ck = last_batch.iter().map(|taps| taps[0].0).sum::<f64>() / last_batch.len() as f64;
    println!(
        "pruner kept on average {:.0}% of block-1 channels (last batch)",
        ck * 100.0
    );
    assert!(
        pruned_macs < dense_macs,
        "pruning block 1 must cut the measured MACs"
    );
}
