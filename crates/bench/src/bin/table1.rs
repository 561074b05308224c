//! Regenerates **Table I** of the AntiDote paper: FLOPs reduction and
//! accuracy for the four static baselines and the proposed dynamic
//! method, on all four model/dataset sections.
//!
//! Usage: `cargo run -p antidote-bench --bin table1 --release`
//! (`ANTIDOTE_SCALE=full` for the larger configuration).
//!
//! Each workload runs isolated: a failure (training divergence beyond
//! the retry budget, or a panic anywhere in the section) is recorded as
//! a typed failure row in the report and the remaining workloads still
//! run. Fault-tolerance knobs (`ANTIDOTE_MAX_RETRIES`,
//! `ANTIDOTE_LR_BACKOFF`, `ANTIDOTE_GRAD_CLIP`, `ANTIDOTE_INJECT_FAULT`,
//! `ANTIDOTE_INJECT_WORKLOAD`) are read from the environment; see
//! `WorkloadRunOptions::from_env`.

use antidote_bench::{run_table1_workload, ReproWorkload, Scale, WorkloadRunOptions};
use antidote_core::report::{ExperimentReport, FailureRecord};
use antidote_core::settings::{proposed_settings, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn main() {
    antidote_obs::init_from_env();
    let scale = Scale::from_env();
    println!("== AntiDote reproduction: Table I (scale {scale:?}) ==\n");
    println!(
        "{:<22} {:<22} {:>9} {:>9} {:>7} | {:>14} {:>14} {:>8} | paper",
        "Model (dataset)",
        "Method",
        "base%",
        "final%",
        "drop%",
        "base FLOPs",
        "final FLOPs",
        "red.%"
    );
    let all_settings = proposed_settings();
    let mut report = ExperimentReport::new("table1");
    report.notes.push(
        "Datasets are procedural synthetic stand-ins (DESIGN.md §2); accuracies are repro-scale, \
         FLOPs columns are analytic at the paper's full scale; measured-MAC cross-checks in notes."
            .into(),
    );
    // Optional filter: ANTIDOTE_WORKLOAD=vgg16_cifar10 | resnet56_cifar10
    //                   | vgg16_cifar100 | vgg16_imagenet100
    let filter = std::env::var("ANTIDOTE_WORKLOAD").ok();
    let run_opts = WorkloadRunOptions::from_env();
    for workload in Workload::all() {
        if let Some(f) = &filter {
            if !workload.matches(f) {
                continue;
            }
        }
        let rw = ReproWorkload::for_workload(workload, scale);
        let settings: Vec<_> = all_settings
            .iter()
            .filter(|s| s.workload == workload)
            .cloned()
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_table1_workload(&rw, &settings, 0xAB1E, &run_opts)
        }));
        let result = match outcome {
            Ok(Ok(result)) => result,
            Ok(Err(e)) => {
                let record = FailureRecord {
                    workload: workload.name().into(),
                    stage: e.stage().into(),
                    error: e.to_string(),
                };
                println!("{}\n", record.to_table_line());
                report.failures.push(record);
                continue;
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let record = FailureRecord {
                    workload: workload.name().into(),
                    stage: "panic".into(),
                    error: msg,
                };
                println!("{}\n", record.to_table_line());
                report.failures.push(record);
                continue;
            }
        };
        for row in &result.rows {
            println!(
                "{:<22} {:<22} {:>8.2} {:>8.2} {:>+7.2} | {:>14.3e} {:>14.3e} {:>7.1}% | -{:.1}% drop {:+.1}%",
                row.workload,
                row.method,
                row.baseline_acc_pct,
                row.final_acc_pct,
                row.accuracy_drop_pct(),
                row.baseline_flops,
                row.final_flops,
                row.flops_reduction_pct,
                row.paper_reduction_pct,
                row.paper_accuracy_drop_pct,
            );
        }
        println!();
        for note in &result.notes {
            println!("  note: {note}");
        }
        println!();
        report.rows.extend(result.rows);
        report.notes.extend(result.notes);
    }
    if !report.failures.is_empty() {
        println!(
            "{} workload(s) failed and were isolated:",
            report.failures.len()
        );
        for record in &report.failures {
            println!("  {}", record.to_table_line());
        }
        println!();
    }
    antidote_bench::write_report(&report, "table1");
    println!("report written to results/table1.json");
    if report.rows.is_empty() && !report.failures.is_empty() {
        std::process::exit(1);
    }
}
