//! Regenerates **Fig. 3**: block sensitivity analysis — accuracy vs
//! per-block channel pruning ratio, one curve per block, for VGG and
//! ResNet. The per-block TTD upper bounds are read off these curves
//! (Sec. IV-B).
//!
//! Usage: `cargo run -p antidote-bench --bin fig3 --release`

use antidote_bench::{ReproWorkload, Scale};
use antidote_core::analysis::{block_sensitivity, Axis};
use antidote_core::report::{ExperimentReport, ExperimentRow};
use antidote_core::settings::Workload;
use antidote_core::trainer::{train, TrainConfig};
use antidote_models::NoopHook;

fn main() {
    antidote_obs::init_from_env();
    let scale = Scale::from_env();
    println!("== AntiDote reproduction: Fig. 3 (block sensitivity, scale {scale:?}) ==\n");
    let ratios: Vec<f64> = vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let mut report = ExperimentReport::new("fig3");

    for workload in [Workload::Vgg16Cifar10, Workload::ResNet56Cifar10] {
        let rw = ReproWorkload::for_workload(workload, scale);
        let data = rw.data.generate();
        let mut net = rw.build_network(0xF13);
        let cfg = TrainConfig {
            epochs: rw.epochs,
            batch_size: rw.batch_size,
            ..TrainConfig::default()
        };
        train(net.as_mut(), &data, &mut NoopHook, &cfg);

        let curves = block_sensitivity(
            net.as_mut(),
            &data.test,
            Axis::Channel,
            rw.block_count(),
            &ratios,
            rw.batch_size,
        );
        println!("-- {} — channel-pruning sensitivity per block --", workload.name());
        print!("{:>10}", "ratio");
        for c in &curves {
            print!("{:>10}", c.label);
        }
        println!();
        for (i, &r) in ratios.iter().enumerate() {
            print!("{r:>10.2}");
            for c in &curves {
                print!("{:>9.1}%", c.accuracy[i] * 100.0);
            }
            println!();
        }
        // Shape check: the deepest block should tolerate pruning at least
        // as well as the first block at high ratios (paper: later VGG
        // blocks carry more redundancy).
        let hi = ratios.len() - 2;
        println!(
            "  shape check @ratio {:.1}: first block {:.1}% vs last block {:.1}%\n",
            ratios[hi],
            curves.first().unwrap().accuracy[hi] * 100.0,
            curves.last().unwrap().accuracy[hi] * 100.0,
        );
        let base = curves[0].accuracy[0] as f64 * 100.0;
        for c in &curves {
            for (i, &r) in c.ratios.iter().enumerate() {
                report.rows.push(ExperimentRow {
                    experiment: "fig3".into(),
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

        // ResNet: the paper sets *spatial* ratios per group too.
        if workload == Workload::ResNet56Cifar10 {
            let sp = block_sensitivity(
                net.as_mut(),
                &data.test,
                Axis::Spatial,
                rw.block_count(),
                &ratios,
                rw.batch_size,
            );
            println!("-- {} — spatial-pruning sensitivity per group --", workload.name());
            for (i, &r) in ratios.iter().enumerate() {
                print!("{r:>10.2}");
                for c in &sp {
                    print!("{:>9.1}%", c.accuracy[i] * 100.0);
                }
                println!();
            }
            println!();
        }
    }
    antidote_bench::write_report(&report, "fig3");
    println!("report written to results/fig3.json");
}
