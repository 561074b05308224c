//! Regenerates **Fig. 4**: the channel vs spatial composition of the
//! FLOPs reduction for the three Table I configurations the paper
//! highlights (ImageNet-VGG16 is spatial-dominant, CIFAR-VGG16 is
//! channel-only, ResNet56 is balanced).
//!
//! Both the analytic paper-scale decomposition and a measured-MAC
//! decomposition on the reproduction-scale models are printed.
//!
//! Usage: `cargo run -p antidote-bench --bin fig4 --release`

use antidote_bench::{ReproWorkload, Scale};
use antidote_core::flops::decompose;
use antidote_core::report::{ExperimentReport, ExperimentRow};
use antidote_core::settings::{proposed_settings, Workload};
use antidote_core::trainer::{evaluate_measured, train, TrainConfig};
use antidote_core::{DynamicPruner, PruneSchedule};
use antidote_models::NoopHook;

fn main() {
    antidote_obs::init_from_env();
    let scale = Scale::from_env();
    println!("== AntiDote reproduction: Fig. 4 (redundancy composition, scale {scale:?}) ==\n");
    let mut report = ExperimentReport::new("fig4");
    // Paper Fig. 4 reference values (channel%, spatial%).
    let paper: &[(Workload, f64, f64)] = &[
        (Workload::Vgg16ImageNet100, 2.4, 52.1),
        (Workload::Vgg16Cifar10, 53.5, 0.0),
        (Workload::ResNet56Cifar10, 18.2, 19.2),
    ];
    let settings = proposed_settings();

    println!(
        "{:<22} {:>12} {:>12} {:>12} | paper ch/sp",
        "Workload", "channel%", "spatial%", "combined%"
    );
    for &(workload, paper_ch, paper_sp) in paper {
        let setting = settings
            .iter()
            .find(|s| s.workload == workload)
            .expect("every Fig. 4 workload has a proposed setting");
        let rw = ReproWorkload::for_workload(workload, scale);
        let comp = decompose(&rw.paper_shapes(), &setting.schedule);
        println!(
            "{:<22} {:>11.1}% {:>11.1}% {:>11.1}% | {:.1}%/{:.1}%",
            workload.name(),
            comp.channel_pct,
            comp.spatial_pct,
            comp.combined_pct,
            paper_ch,
            paper_sp
        );
        report.rows.push(ExperimentRow {
            experiment: "fig4".into(),
            workload: workload.name().into(),
            method: "analytic decomposition".into(),
            baseline_acc_pct: f64::NAN,
            final_acc_pct: f64::NAN,
            baseline_flops: comp.channel_pct,
            final_flops: comp.spatial_pct,
            flops_reduction_pct: comp.combined_pct,
            paper_reduction_pct: paper_ch + paper_sp,
            paper_accuracy_drop_pct: f64::NAN,
        });
    }

    // Measured decomposition at repro scale (one workload to keep the run
    // short: ResNet, where both dimensions contribute).
    println!("\n-- measured-MAC decomposition at repro scale (ResNet56 stand-in) --");
    let rw = ReproWorkload::for_workload(Workload::ResNet56Cifar10, scale);
    let setting = settings
        .iter()
        .find(|s| s.workload == Workload::ResNet56Cifar10)
        .expect("resnet setting");
    let data = rw.data.generate();
    let mut net = rw.build_network(0xF14);
    let cfg = TrainConfig {
        epochs: rw.epochs.min(6),
        batch_size: rw.batch_size,
        ..TrainConfig::default()
    };
    train(net.as_mut(), &data, &mut NoopHook, &cfg);
    let (_, dense) = evaluate_measured(net.as_mut(), &data.test, &mut NoopHook, rw.batch_size);
    let variants: Vec<(&str, PruneSchedule)> = vec![
        (
            "channel-only",
            PruneSchedule::channel_only(setting.schedule.channel_prune().to_vec()),
        ),
        (
            "spatial-only",
            PruneSchedule::spatial_only(setting.schedule.spatial_prune().to_vec()),
        ),
        ("combined", setting.schedule.clone()),
    ];
    for (label, schedule) in variants {
        let mut pruner = DynamicPruner::new(schedule);
        let (acc, macs) = evaluate_measured(net.as_mut(), &data.test, &mut pruner, rw.batch_size);
        println!(
            "  {label:<14} measured reduction {:>5.1}%  (acc {:.1}%)",
            100.0 * (1.0 - macs / dense),
            acc * 100.0
        );
        report.notes.push(format!(
            "measured {label}: {:.1}% reduction at repro scale",
            100.0 * (1.0 - macs / dense)
        ));
    }
    antidote_bench::write_report(&report, "fig4");
    println!("\nreport written to results/fig4.json");
}
