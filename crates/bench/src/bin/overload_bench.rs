//! Overload-survival harness for the `antidote-serve` engine (ISSUE 6
//! acceptance bar).
//!
//! Replays seeded **open-loop** arrival traces — requests land on
//! schedule whether or not the engine keeps up — through five load
//! shapes (steady, ramp-through-saturation, square-wave bursts, diurnal
//! swing, heavy-tailed gaps) on one engine, then a chaos phase on a
//! fresh engine with replicas killed mid-burst. Rates are expressed as
//! multiples of the engine's *measured* capacity, so the same phases
//! overload any host identically.
//!
//! Gates (exit non-zero on violation):
//!
//! 1. **Typed everywhere**: every submitted request reaches a typed
//!    terminal state; `Disconnected` (the only untyped failure) never
//!    occurs, even with replicas dying mid-batch.
//! 2. **Degrade before shed**: in the ramp phase the first degraded
//!    completion precedes the first `Overloaded` rejection — pressure
//!    responses escalate in the documented order.
//! 3. **Chaos survival**: at least one replica kill fires, every kill
//!    is accounted (`chaos_kills == worker_panics`), the engine keeps
//!    completing work, and the completed-request p99 stays within the
//!    deadline-derived bound.
//!
//! Results go to `results/overload.json` + `results/overload.txt`
//! (atomic tmp-sibling + rename). `--smoke` shrinks every phase for CI.
//!
//! Knobs: the standard `ANTIDOTE_SERVE_*` engine overrides (the trace
//! and chaos seed is fixed). Setting the
//! `ANTIDOTE_CHAOS_*` knobs replaces the chaos phase's built-in kill
//! schedule; the main phases always run kill-free.

use antidote_bench::trace::{
    generate, mean_service_ms, replay, ArrivalProcess, ClassMix, PhaseSpec, ReplayOutcome,
    RequestClass,
};
use antidote_core::PruneSchedule;
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{
    percentile, ChaosConfig, ModelFactory, Priority, ServeConfig, ServeEngine, ServeError,
    ServeMetrics,
};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const IMAGE_SIZE: usize = 64;
const CLASSES: usize = 4;

/// Calibration sample size (sequential dense requests).
const CALIB_REQUESTS: usize = 6;

fn factory(seed: u64) -> ModelFactory {
    Arc::new(move |_worker| {
        let mut rng = SmallRng::seed_from_u64(seed);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(IMAGE_SIZE, CLASSES)))
    })
}

fn input(i: usize) -> Tensor {
    Tensor::from_fn([3, IMAGE_SIZE, IMAGE_SIZE], move |j| {
        ((i * 131 + j) % 17) as f32 * 0.05 - 0.4
    })
}

fn engine_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_capacity: 48,
        base_schedule: PruneSchedule::channel_only(vec![0.5, 0.5]),
        ..ServeConfig::default()
    }
    .with_env_overrides()
}

/// The mixed SLO population every phase draws from: latency-sensitive
/// dense traffic, budgeted standard traffic, and cheap batch work with
/// a loose deadline (the first to be displaced or shed).
fn mix(deadline_ms: u64) -> ClassMix {
    ClassMix::new(vec![
        (
            RequestClass {
                name: "interactive",
                priority: Priority::Interactive,
                budget_frac: None,
                deadline_ms,
            },
            2.0,
        ),
        (
            RequestClass {
                name: "standard",
                priority: Priority::Standard,
                budget_frac: Some(0.5),
                deadline_ms: deadline_ms * 2,
            },
            5.0,
        ),
        (
            RequestClass {
                name: "batch",
                priority: Priority::Batch,
                budget_frac: Some(0.1),
                deadline_ms: deadline_ms * 4,
            },
            3.0,
        ),
    ])
}

/// Installs a process-wide panic hook that swallows only the expected
/// chaos-kill panics so the chaos phase does not spray backtraces.
fn silence_chaos_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if !msg.contains("chaos-induced") {
            prev(info);
        }
    }));
}

#[derive(Serialize)]
struct Calibration {
    service_ms: f64,
    capacity_rps: f64,
    workers: usize,
}

/// Per-phase outcome tallies from the replayed trace. `overloaded`
/// covers both shed-at-admission and displaced-from-queue outcomes
/// (the engine-level split lives in the embedded `ServeMetrics`).
#[derive(Serialize, Default)]
struct PhaseStats {
    name: String,
    duration_s: f64,
    offered: u64,
    completed: u64,
    goodput_rps: f64,
    degraded: u64,
    degrade_rate: f64,
    overloaded: u64,
    shed_rate: f64,
    deadline_exceeded: u64,
    rejected_full: u64,
    panicked: u64,
    untyped: u64,
    p50_ms: f64,
    p99_ms: f64,
}

fn phase_stats(name: &str, duration: Duration, outcomes: &[&ReplayOutcome]) -> PhaseStats {
    let mut s = PhaseStats {
        name: name.to_string(),
        duration_s: duration.as_secs_f64(),
        offered: outcomes.len() as u64,
        ..PhaseStats::default()
    };
    let mut latencies = Vec::new();
    for o in outcomes {
        match &o.result {
            Ok(resp) => {
                s.completed += 1;
                if resp.degraded {
                    s.degraded += 1;
                }
                latencies.push(resp.latency.as_secs_f64() * 1e3);
            }
            Err(ServeError::Overloaded { .. }) => s.overloaded += 1,
            Err(ServeError::DeadlineExceeded { .. }) => s.deadline_exceeded += 1,
            Err(ServeError::QueueFull { .. }) => s.rejected_full += 1,
            Err(ServeError::WorkerPanicked { .. }) => s.panicked += 1,
            Err(_) => s.untyped += 1,
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    s.goodput_rps = s.completed as f64 / s.duration_s.max(1e-9);
    s.degrade_rate = s.degraded as f64 / (s.offered as f64).max(1.0);
    s.shed_rate = s.overloaded as f64 / (s.offered as f64).max(1.0);
    s.p50_ms = percentile(&latencies, 50.0);
    s.p99_ms = percentile(&latencies, 99.0);
    s
}

#[derive(Serialize)]
struct GateResult {
    name: String,
    passed: bool,
    detail: String,
}

fn gate(gates: &mut Vec<GateResult>, name: &str, passed: bool, detail: String) {
    if !passed {
        eprintln!("GATE FAIL [{name}]: {detail}");
    }
    gates.push(GateResult {
        name: name.to_string(),
        passed,
        detail,
    });
}

#[derive(Serialize)]
struct ChaosStats {
    kills: u64,
    worker_panics: u64,
    offered: u64,
    completed: u64,
    panicked: u64,
    untyped: u64,
    p99_ms: f64,
    p99_bound_ms: f64,
}

#[derive(Serialize)]
struct OverloadReport {
    smoke: bool,
    seed: u64,
    calibration: Calibration,
    phases: Vec<PhaseStats>,
    chaos: ChaosStats,
    gates: Vec<GateResult>,
    main_metrics: ServeMetrics,
    chaos_metrics: ServeMetrics,
}

fn write_results(report: &OverloadReport) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let json = serde_json::to_string_pretty(report).expect("report serialization cannot fail");
    antidote_bench::atomic_write(&dir, "overload.json", &json);

    let mut txt = String::new();
    txt.push_str(&format!(
        "overload_bench (smoke={}, seed={})\ncalibration: service {:.2}ms, capacity {:.1} req/s on {} workers\n\n",
        report.smoke,
        report.seed,
        report.calibration.service_ms,
        report.calibration.capacity_rps,
        report.calibration.workers,
    ));
    txt.push_str(
        "phase        offered complete goodput  degr%  shed%  expired  full  panic  p50ms  p99ms\n",
    );
    for p in &report.phases {
        txt.push_str(&format!(
            "{:<12} {:>7} {:>8} {:>7.1} {:>6.1} {:>6.1} {:>8} {:>5} {:>6} {:>6.1} {:>6.1}\n",
            p.name,
            p.offered,
            p.completed,
            p.goodput_rps,
            p.degrade_rate * 100.0,
            p.shed_rate * 100.0,
            p.deadline_exceeded,
            p.rejected_full,
            p.panicked,
            p.p50_ms,
            p.p99_ms,
        ));
    }
    txt.push_str(&format!(
        "\nchaos: {} kills, {} worker panics, {}/{} completed, p99 {:.1}ms (bound {:.1}ms)\n",
        report.chaos.kills,
        report.chaos.worker_panics,
        report.chaos.completed,
        report.chaos.offered,
        report.chaos.p99_ms,
        report.chaos.p99_bound_ms,
    ));
    for g in &report.gates {
        txt.push_str(&format!(
            "gate {:<24} {}  ({})\n",
            g.name,
            if g.passed { "PASS" } else { "FAIL" },
            g.detail
        ));
    }
    antidote_bench::atomic_write(&dir, "overload.txt", &txt);
    println!("\n{txt}");
}

fn main() -> ExitCode {
    antidote_obs::init_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = 0x00DD_10AD;
    // Phase lengths: seconds in full mode, sub-second in smoke.
    let secs = |full: f64| Duration::from_secs_f64(if smoke { full * 0.3 } else { full });

    // --- calibration -----------------------------------------------------
    let mut cfg = engine_config();
    // Env-armed chaos (ANTIDOTE_CHAOS_*) parameterizes the dedicated
    // chaos phase below; the main phases run kill-free (their gates
    // assume pressure, not panics, drives the failure modes).
    let env_chaos = cfg.chaos.take();
    let engine = ServeEngine::start(cfg.clone(), factory(seed)).expect("engine start");
    let handle = engine.handle();
    let service_ms = mean_service_ms(&handle, &input(0), CALIB_REQUESTS);
    let cap = cfg.workers as f64 * 1e3 / service_ms.max(1e-3);
    println!("calibrated: service {service_ms:.2}ms -> capacity {cap:.1} req/s");

    // Deadlines scale with measured service time so the SLO pressure is
    // comparable across hosts: interactive gets ~12 service times.
    let deadline_ms = ((service_ms * 12.0) as u64).max(40);
    let mix = mix(deadline_ms);

    // --- main phases (one engine, replayed back-to-back) -----------------
    let phases = vec![
        PhaseSpec {
            name: "steady",
            process: ArrivalProcess::Steady { rps: 0.5 * cap },
            duration: secs(2.5),
            mix: mix.clone(),
        },
        PhaseSpec {
            name: "ramp",
            process: ArrivalProcess::Ramp {
                start_rps: 0.2 * cap,
                end_rps: 3.0 * cap,
            },
            duration: secs(4.0),
            mix: mix.clone(),
        },
        PhaseSpec {
            name: "burst",
            process: ArrivalProcess::Burst {
                base_rps: 0.4 * cap,
                burst_rps: 2.5 * cap,
                period: Duration::from_millis(600),
                duty: 0.3,
            },
            duration: secs(3.0),
            mix: mix.clone(),
        },
        PhaseSpec {
            name: "diurnal",
            process: ArrivalProcess::Diurnal {
                low_rps: 0.3 * cap,
                high_rps: 1.8 * cap,
                period: Duration::from_secs(2),
            },
            duration: secs(4.0),
            mix: mix.clone(),
        },
        PhaseSpec {
            name: "heavy_tail",
            process: ArrivalProcess::HeavyTail {
                rps: 1.2 * cap,
                alpha: 1.3,
            },
            duration: secs(3.0),
            mix: mix.clone(),
        },
    ];
    let events = generate(&phases, seed);
    println!(
        "replaying {} arrivals across {} phases...",
        events.len(),
        phases.len()
    );
    let outcomes = replay(&handle, &events, input);
    let main_metrics = engine.shutdown();

    let mut stats = Vec::new();
    for (idx, spec) in phases.iter().enumerate() {
        let of_phase: Vec<&ReplayOutcome> =
            outcomes.iter().filter(|o| o.phase == idx).collect();
        stats.push(phase_stats(spec.name, spec.duration, &of_phase));
    }

    let mut gates = Vec::new();

    // Gate 1: typed terminal states everywhere in the main phases.
    let untyped: u64 = stats.iter().map(|p| p.untyped).sum();
    gate(
        &mut gates,
        "typed-everywhere",
        untyped == 0,
        format!("{untyped} untyped failures across {} arrivals", outcomes.len()),
    );

    // Gate 2: degrade-before-shed ordering on the ramp phase.
    let ramp: Vec<&ReplayOutcome> = outcomes.iter().filter(|o| o.phase == 1).collect();
    let first_degraded = ramp
        .iter()
        .position(|o| matches!(&o.result, Ok(r) if r.degraded));
    let first_overloaded = ramp
        .iter()
        .position(|o| matches!(&o.result, Err(ServeError::Overloaded { .. })));
    let ordered = match (first_degraded, first_overloaded) {
        (Some(d), Some(s)) => d < s,
        (Some(_), None) => true,
        (None, _) => false,
    };
    gate(
        &mut gates,
        "degrade-before-shed",
        ordered,
        format!(
            "ramp first degraded at index {first_degraded:?}, first overloaded at {first_overloaded:?}"
        ),
    );

    // --- chaos phase (fresh engine, replicas killed mid-burst) -----------
    silence_chaos_panics();
    let chaos_cfg = ServeConfig {
        chaos: Some(env_chaos.unwrap_or(ChaosConfig {
            kill_every: Duration::from_millis(if smoke { 25 } else { 60 }),
            max_kills: if smoke { 2 } else { 5 },
            seed,
        })),
        ..cfg.clone()
    };
    let chaos_engine = ServeEngine::start(chaos_cfg, factory(seed)).expect("chaos engine start");
    let chaos_handle = chaos_engine.handle();
    let chaos_phase = vec![PhaseSpec {
        name: "chaos",
        process: ArrivalProcess::Steady { rps: 0.8 * cap },
        duration: secs(2.5),
        mix: mix.clone(),
    }];
    let chaos_events = generate(&chaos_phase, seed.wrapping_add(1));
    println!("chaos phase: replaying {} arrivals with replica kills...", chaos_events.len());
    let chaos_outcomes = replay(&chaos_handle, &chaos_events, input);
    let chaos_metrics = chaos_engine.shutdown();

    let chaos_refs: Vec<&ReplayOutcome> = chaos_outcomes.iter().collect();
    let cstats = phase_stats("chaos", chaos_phase[0].duration, &chaos_refs);
    // Completed requests are bounded by the loosest class deadline plus
    // queue-drain slack; anything beyond that means expiry-at-dequeue or
    // the shed policy failed to protect latency.
    let p99_bound_ms = (deadline_ms * 4) as f64 + 12.0 * service_ms + 100.0;
    let chaos_stats = ChaosStats {
        kills: chaos_metrics.chaos_kills,
        worker_panics: chaos_metrics.worker_panics,
        offered: cstats.offered,
        completed: cstats.completed,
        panicked: cstats.panicked,
        untyped: cstats.untyped,
        p99_ms: cstats.p99_ms,
        p99_bound_ms,
    };

    gate(
        &mut gates,
        "chaos-typed-everywhere",
        cstats.untyped == 0,
        format!("{} untyped failures under chaos", cstats.untyped),
    );
    gate(
        &mut gates,
        "chaos-kills-fire",
        chaos_metrics.chaos_kills >= 1,
        format!("{} replica kills", chaos_metrics.chaos_kills),
    );
    gate(
        &mut gates,
        "chaos-kills-accounted",
        chaos_metrics.chaos_kills == chaos_metrics.worker_panics,
        format!(
            "{} kills vs {} worker panics",
            chaos_metrics.chaos_kills, chaos_metrics.worker_panics
        ),
    );
    gate(
        &mut gates,
        "chaos-keeps-completing",
        cstats.completed > 0,
        format!("{} completions between kills", cstats.completed),
    );
    gate(
        &mut gates,
        "chaos-p99-bounded",
        cstats.p99_ms <= p99_bound_ms,
        format!("p99 {:.1}ms vs bound {p99_bound_ms:.1}ms", cstats.p99_ms),
    );

    let failed = gates.iter().any(|g| !g.passed);
    let report = OverloadReport {
        smoke,
        seed,
        calibration: Calibration {
            service_ms,
            capacity_rps: cap,
            workers: cfg.workers,
        },
        phases: stats,
        chaos: chaos_stats,
        gates,
        main_metrics,
        chaos_metrics,
    };
    write_results(&report);
    if failed {
        eprintln!("overload_bench: gate failures (see above)");
        return ExitCode::FAILURE;
    }
    println!("overload_bench ok: all gates passed");
    ExitCode::SUCCESS
}
