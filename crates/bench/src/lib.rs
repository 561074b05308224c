//! # antidote-bench
//!
//! The experiment harness of the AntiDote reproduction. Each artifact of
//! the paper's evaluation has a regenerating binary:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table I (all four sections) | `cargo run -p antidote-bench --bin table1 --release` |
//! | Fig. 2 (attention vs random vs inverse) | `… --bin fig2 --release` |
//! | Fig. 3 (block sensitivity) | `… --bin fig3 --release` |
//! | Fig. 4 (redundancy composition) | `… --bin fig4 --release` |
//! | Sec. IV-B ratio ascent behaviour | `… --bin ttd_ascent --release` |
//!
//! Runtime performance is measured by the end-to-end benchmark package
//! (`benchmark/`, declared in `BENCHMARK.json`), not here.
//!
//! Set `ANTIDOTE_SCALE=full` for larger datasets/epochs (defaults to a
//! minutes-level `quick` scale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod workloads;

pub use harness::{
    evaluate_measured_timed, run_table1_workload, static_schedule_for, write_report, MeasuredEval, WorkloadError, WorkloadResult,
    WorkloadRunOptions,
};
pub use workloads::{ModelKind, ReproWorkload, Scale};
