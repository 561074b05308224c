//! One end-to-end benchmark for the served AntiDote path.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints one JSON result as the last line
//! of standard output: the end-to-end metrics with tracing off, the
//! per-layer metrics of a shorter traced run with tracing on.
//!
//! Without `--trace`, every workload (or the one `--workload` names) runs
//! in a fresh child process, untraced and then traced; every metric is
//! printed by name and unit and `out/<run>/{metrics.json,trace.json}` are
//! written. `--check-repeat` does that twice and fails unless the two
//! sets agree; `--quick` runs a tenth of the length, untraced only. See
//! README.md.

mod client;
mod layers;
mod load;
mod models;
mod spans;
mod spec;
mod stats;
mod verify;
mod workloads;

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{HttpKind, Outcome, RunOpts};

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Seconds per run in `--quick` mode: a tenth of the default.
const QUICK_SECONDS: f64 = spec::RUN_SECONDS as f64 / 10.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// Given: run one workload in this process. Absent: run children.
    trace: Option<bool>,
    quick: bool,
    check_repeat: bool,
    spec: bool,
    /// Run directory name under `out/` (children get their parent's).
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => args.trace = Some(value()? == "1"),
            "--out" => args.out = Some(value()?),
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// The benchmark's output root, next to its manifest.
fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What numbers may be compared across: they compare only at an equal
/// fingerprint.
fn fingerprint() -> Value {
    Value::Object(vec![
        ("nproc".into(), Value::U64(antidote_par::available() as u64)),
        (
            "thread_budget".into(),
            Value::U64(antidote_par::current_threads() as u64),
        ),
        (
            "load_clients".into(),
            Value::U64(workloads::clients() as u64),
        ),
        (
            "kernel_backend".into(),
            Value::Str(antidote_tensor::backend::active().name().to_string()),
        ),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "git_sha".into(),
            Value::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
    ])
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn write_json(path: &Path, value: &Value) {
    let text = serde_json::to_string(value).expect("a Value tree serializes");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn run_workload(name: &str, opts: &RunOpts, scratch: &models::Scratch) -> Option<Outcome> {
    Some(match name {
        "http_tiny_closed" => workloads::http(HttpKind::TinyClosed, opts, scratch),
        "http_vgg_mixed" => workloads::http(HttpKind::VggMixed, opts, scratch),
        "engine_vgg16_table1" => workloads::engine_vgg16_table1(opts, scratch),
        "engine_open_ladder" => workloads::engine_open_ladder(opts, scratch),
        "train_ttd" => workloads::train_ttd(opts, scratch),
        _ => return None,
    })
}

/// The result object the contract asks for: exactly the metrics of the
/// run's kind, each with its unit.
fn result_json(outcome: &Outcome, trace: bool) -> Value {
    let listed = spec::names_and_units(trace);
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| listed.iter().all(|m| m.0 != **k))
    {
        panic!("workload reported `{stray}`, which this kind of run does not list");
    }
    let metrics = listed
        .into_iter()
        .map(|(name, unit)| {
            // A layer that is not on the workload's path reads 0.
            let value = outcome
                .metrics
                .get(&name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            let entry = Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.to_string())),
            ]);
            (name, entry)
        })
        .collect();
    let failed = (outcome.failures.len() as u64).min(outcome.attempted);
    Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.passed())),
        ("attempted".into(), Value::U64(outcome.attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// One workload, in this process.
fn single(args: &Args, workload: &str, trace: bool) -> ExitCode {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec::RUN_SECONDS as f64),
        trace,
    };
    let run_dir = out_root().join(args.out.as_deref().unwrap_or("single"));
    std::fs::create_dir_all(&run_dir).expect("the benchmark's out/ is writable");
    let scratch = models::Scratch::new(&out_root()).expect("the benchmark's out/ is writable");
    let Some(mut outcome) = run_workload(workload, &opts, &scratch) else {
        eprintln!(
            "unknown workload `{workload}`; known: {:?}",
            spec::WORKLOADS.map(|w| w.0)
        );
        return ExitCode::from(2);
    };
    drop(scratch);
    if !opts.trace {
        outcome
            .metrics
            .insert("peak_rss_mb".to_string(), peak_rss_mb());
    }
    for failure in outcome.failures.iter().take(10) {
        eprintln!("VIOLATION: {failure}");
    }
    let result = result_json(&outcome, opts.trace);
    let kind = if opts.trace { "traced" } else { "untraced" };
    let record = Value::Object(vec![
        ("workload".into(), Value::Str(workload.to_string())),
        ("seed".into(), Value::U64(opts.seed)),
        ("seconds".into(), Value::F64(opts.seconds)),
        ("host".into(), fingerprint()),
        ("result".into(), result.clone()),
    ]);
    write_json(&run_dir.join(format!("{workload}.{kind}.json")), &record);
    if opts.trace {
        write_json(
            &run_dir.join(format!("{workload}.trace.json")),
            &spans::trace_document(workload, opts.seed, &outcome.spans),
        );
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("a Value tree serializes")
    );
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run; returns its result object.
fn child(run: &str, workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--out", run])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed no result"))?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload} result: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed verification: {last}",
            u8::from(trace)
        ));
    }
    Ok(result)
}

fn metric_values(result: &Value) -> Vec<(String, f64, String)> {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[]);
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            (
                name.clone(),
                value,
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs every workload (or the one named) untraced then traced, each in
/// a fresh child process, printing every metric.
fn full_set(
    args: &Args,
    run: &str,
    reverse: bool,
) -> Result<BTreeMap<String, (Value, Value)>, String> {
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        spec::RUN_SECONDS as f64
    });
    let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    names.retain(|name| args.workload.as_deref().is_none_or(|only| only == *name));
    if reverse {
        names.reverse();
    }
    let mut results = BTreeMap::new();
    for workload in names {
        let untraced = child(run, workload, args.seed, seconds, false)?;
        // Quick mode stops at the end-to-end numbers: the traced run's
        // fixed costs (paper-width artifacts, layer probes) do not shrink.
        let traced = if args.quick {
            Value::Null
        } else {
            child(run, workload, args.seed, seconds, true)?
        };
        for (kind, result) in [("end-to-end", &untraced), ("per-layer", &traced)] {
            for (name, value, unit) in metric_values(result) {
                println!("{workload:<20} {kind:<10} {name:<34} {value:>16.6} {unit}");
            }
        }
        results.insert(workload.to_string(), (untraced, traced));
    }
    Ok(results)
}

/// Assembles `metrics.json` and `trace.json` from the children's files.
fn write_run(args: &Args, run: &str, host: &Value, results: &BTreeMap<String, (Value, Value)>) {
    let dir = out_root().join(run);
    let workloads = results
        .iter()
        .map(|(w, (untraced, traced))| {
            (
                w.clone(),
                Value::Object(vec![
                    ("untraced".into(), untraced.clone()),
                    ("traced".into(), traced.clone()),
                ]),
            )
        })
        .collect();
    let mode = if args.quick {
        "quick: a tenth of the run length, untraced only; never compare with full runs"
    } else {
        "full"
    };
    let metrics = Value::Object(vec![
        ("mode".into(), Value::Str(mode.to_string())),
        ("seed".into(), Value::U64(args.seed)),
        ("host".into(), host.clone()),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    write_json(&dir.join("metrics.json"), &metrics);
    // The children's trace files are already JSON: join them as text.
    let mut trace = String::from("{");
    for (i, workload) in results.keys().enumerate() {
        let part = dir.join(format!("{workload}.trace.json"));
        let text = std::fs::read_to_string(&part).unwrap_or_else(|_| "null".to_string());
        trace.push_str(&format!(
            "{}\"{workload}\":{text}",
            if i > 0 { "," } else { "" }
        ));
        let _ = std::fs::remove_file(part);
    }
    trace.push('}');
    std::fs::write(dir.join("trace.json"), trace).expect("the run directory is writable");
    println!("wrote {}/{{metrics.json,trace.json}}", dir.display());
}

/// Disagreements between two sets: an end-to-end metric apart by more
/// than its bound, or a `*_macs` count that differs at all.
fn disagreements(
    a: &BTreeMap<String, (Value, Value)>,
    b: &BTreeMap<String, (Value, Value)>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, (untraced_a, traced_a)) in a {
        let (untraced_b, traced_b) = &b[workload];
        let second: BTreeMap<String, f64> = metric_values(untraced_b)
            .into_iter()
            .chain(metric_values(traced_b))
            .map(|m| (m.0, m.1))
            .collect();
        for (name, first, _) in metric_values(untraced_a) {
            let bound = spec::END_TO_END
                .iter()
                .find(|m| m.0 == name)
                .map_or(0.0, |m| m.3);
            let apart = (first - second[&name]).abs()
                / first.abs().min(second[&name].abs()).max(f64::MIN_POSITIVE);
            if apart > bound {
                out.push(format!(
                    "{workload} {name}: {first} vs {} ({apart:.3} apart, bound {bound})",
                    second[&name]
                ));
            }
        }
        for (name, first, _) in metric_values(traced_a) {
            if name.ends_with("_macs") && first != second[&name] {
                out.push(format!(
                    "{workload} {name}: {first} vs {} (counts must be identical)",
                    second[&name]
                ));
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec::benchmark_json()).expect("a Value tree serializes")
        );
        return ExitCode::SUCCESS;
    }
    // Serving configuration is pinned in code; a stray knob would make
    // the numbers incomparable without saying so.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ANTIDOTE_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("refusing to run with ANTIDOTE_* variables set: {knobs:?}");
        return ExitCode::from(2);
    }
    if let Some(trace) = args.trace {
        let Some(workload) = &args.workload else {
            eprintln!("--trace runs one workload in this process: name it with --workload");
            return ExitCode::from(2);
        };
        return single(&args, workload, trace);
    }
    if let Some(unknown) = args
        .workload
        .as_deref()
        .filter(|w| spec::WORKLOADS.iter().all(|k| k.0 != *w))
    {
        eprintln!(
            "unknown workload `{unknown}`; known: {:?}",
            spec::WORKLOADS.map(|w| w.0)
        );
        return ExitCode::from(2);
    }
    match all(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload in child processes: one set, or two with
/// `--check-repeat` (the second in reverse workload order).
fn all(args: &Args) -> Result<(), String> {
    let run = args
        .out
        .clone()
        .unwrap_or_else(|| format!("run-seed{}-{}", args.seed, std::process::id()));
    if args.quick {
        println!(
            "QUICK MODE: a tenth of the run length, untraced only; never compare with full runs"
        );
    }
    let host = fingerprint();
    println!(
        "host: {}",
        serde_json::to_string(&host).expect("a Value tree serializes")
    );
    let first = full_set(args, &run, false)?;
    write_run(args, &run, &host, &first);
    if args.check_repeat {
        let repeat = format!("{run}-repeat");
        let second = full_set(args, &repeat, true)?;
        write_run(args, &repeat, &host, &second);
        let apart = disagreements(&first, &second);
        if !apart.is_empty() {
            return Err(format!("REPEAT MISMATCH:\n{}", apart.join("\n")));
        }
        println!("check-repeat: both sets agree within every bound; *_macs counts identical");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(failures: &[&str]) -> Outcome {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.failures = failures.iter().map(|s| s.to_string()).collect();
        outcome.metrics.insert("throughput_rps".to_string(), 12.5);
        outcome
    }

    #[test]
    fn result_lists_exactly_the_runs_metrics_with_units() {
        let result = result_json(&outcome(&[]), false);
        let names: Vec<String> = metric_values(&result).into_iter().map(|m| m.0).collect();
        assert_eq!(names, spec::END_TO_END.map(|m| m.0.to_string()));
        assert_eq!(
            metric_values(&result)[0],
            ("throughput_rps".to_string(), 12.5, "1/s".to_string())
        );
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        let traced = result_json(
            &Outcome {
                attempted: 1,
                ..Outcome::default()
            },
            true,
        );
        assert_eq!(metric_values(&traced).len(), spec::per_layer().len());
    }

    #[test]
    fn violations_make_the_result_incorrect() {
        let result = result_json(&outcome(&["logits differ"]), false);
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(result.get("failed"), Some(&Value::U64(1)));
    }

    #[test]
    fn repeat_check_flags_bounds_and_mac_counts() {
        let set = |rps: f64, macs: f64| {
            let mut untraced = outcome(&[]);
            untraced.metrics.insert("throughput_rps".to_string(), rps);
            let mut traced = Outcome {
                attempted: 1,
                ..Outcome::default()
            };
            traced
                .metrics
                .insert("models.vgg16.table1_macs".to_string(), macs);
            BTreeMap::from([(
                "w".to_string(),
                (result_json(&untraced, false), result_json(&traced, true)),
            )])
        };
        assert!(disagreements(&set(100.0, 5.0), &set(105.0, 5.0)).is_empty());
        assert_eq!(disagreements(&set(100.0, 5.0), &set(130.0, 5.0)).len(), 1);
        assert_eq!(disagreements(&set(100.0, 5.0), &set(100.0, 6.0)).len(), 1);
    }
}
