//! Regenerates **Fig. 2**: accuracy drop of attention-based vs random vs
//! inverse-attention dynamic channel pruning on the last block of a VGG
//! and a ResNet (plus the spatial-column variant the paper mentions in
//! Sec. III-C).
//!
//! Usage: `cargo run -p antidote-bench --bin fig2 --release`

use antidote_bench::{ReproWorkload, Scale};
use antidote_core::analysis::{criteria_comparison, Axis, SweepCurve};
use antidote_core::report::{ExperimentReport, ExperimentRow};
use antidote_core::settings::Workload;
use antidote_core::trainer::{train, TrainConfig};
use antidote_models::NoopHook;

fn print_curves(title: &str, curves: &[SweepCurve]) {
    println!("-- {title} --");
    print!("{:>10}", "ratio");
    for c in curves {
        print!("{:>12}", c.label);
    }
    println!();
    for (i, &r) in curves[0].ratios.iter().enumerate() {
        print!("{r:>10.2}");
        for c in curves {
            print!("{:>11.1}%", c.accuracy[i] * 100.0);
        }
        println!();
    }
    println!();
}

fn main() {
    antidote_obs::init_from_env();
    let scale = Scale::from_env();
    println!("== AntiDote reproduction: Fig. 2 (criterion comparison, scale {scale:?}) ==\n");
    let ratios: Vec<f64> = (0..=9).map(|i| i as f64 / 10.0).collect();
    let mut report = ExperimentReport::new("fig2");

    for workload in [Workload::Vgg16Cifar10, Workload::ResNet56Cifar10] {
        let rw = ReproWorkload::for_workload(workload, scale);
        let data = rw.data.generate();
        let mut net = rw.build_network(0xF16);
        let cfg = TrainConfig {
            epochs: rw.epochs,
            batch_size: rw.batch_size,
            ..TrainConfig::default()
        };
        train(net.as_mut(), &data, &mut NoopHook, &cfg);
        let last_block = rw.block_count() - 1;
        let curves = criteria_comparison(
            net.as_mut(),
            &data.test,
            Axis::Channel,
            rw.block_count(),
            last_block,
            &ratios,
            rw.batch_size,
        );
        print_curves(
            &format!("{} — channel pruning, last block", workload.name()),
            &curves,
        );
        let base = curves[0].accuracy[0] as f64 * 100.0;
        for c in &curves {
            for (i, &r) in c.ratios.iter().enumerate() {
                report.rows.push(ExperimentRow {
                    experiment: "fig2".into(),
                    workload: workload.name().into(),
                    method: format!("{} r={r:.1}", c.label),
                    baseline_acc_pct: base,
                    final_acc_pct: c.accuracy[i] as f64 * 100.0,
                    baseline_flops: f64::NAN,
                    final_flops: f64::NAN,
                    flops_reduction_pct: r * 100.0,
                    paper_reduction_pct: f64::NAN,
                    paper_accuracy_drop_pct: f64::NAN,
                });
            }
        }

        // Expected shape (paper Sec. III-C): attention >= random >=
        // inverse at moderate ratios.
        let at = |curves: &[SweepCurve], label: &str, i: usize| {
            curves
                .iter()
                .find(|c| c.label == label)
                .map(|c| c.accuracy[i])
                .unwrap_or(0.0)
        };
        let mid = ratios.len() / 2;
        println!(
            "  shape check @ratio {:.1}: attention {:.1}% | random {:.1}% | inverse {:.1}%\n",
            ratios[mid],
            at(&curves, "attention", mid) * 100.0,
            at(&curves, "random", mid) * 100.0,
            at(&curves, "inverse", mid) * 100.0,
        );

        // Spatial variant (Sec. III-C closing remark).
        let sp_curves = criteria_comparison(
            net.as_mut(),
            &data.test,
            Axis::Spatial,
            rw.block_count(),
            0, // early block: larger spatial maps, like the paper's spatial experiments
            &ratios,
            rw.batch_size,
        );
        print_curves(
            &format!("{} — spatial-column pruning, first block", workload.name()),
            &sp_curves,
        );

        // Ablation (DESIGN.md §6): mean vs max attention statistic on the
        // same block.
        let ab = antidote_core::ablation::statistic_ablation(
            net.as_mut(),
            &data.test,
            rw.block_count(),
            last_block,
            &ratios,
            rw.batch_size,
        );
        print_curves(
            &format!("{} — ablation: attention statistic (mean vs max)", workload.name()),
            &ab,
        );
    }
    antidote_bench::write_report(&report, "fig2");
    println!("report written to results/fig2.json");
}
