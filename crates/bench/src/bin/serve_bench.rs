//! Open-loop load generator for the `antidote-serve` engine.
//!
//! Replays a seeded steady arrival trace (`antidote_bench::trace`, the
//! same generator `overload_bench` uses) against an untrained
//! `vgg_tiny` replica pool. Requests cycle through four budget tiers —
//! unbudgeted, loose, medium, and near the schedule floor — so every
//! batch the micro-batcher forms is heterogeneous. The arrival rate is
//! calibrated to a fraction of the engine's measured capacity, so the
//! run exercises batching and budget planning without tipping into the
//! overload regimes covered by `overload_bench`.
//!
//! Output: a human-readable summary plus the full
//! [`antidote_serve::ServeMetrics`] JSON on stdout.
//!
//! Knobs (all `warn-and-ignore` on parse failure):
//!
//! - engine: `ANTIDOTE_SERVE_WORKERS`, `ANTIDOTE_SERVE_MAX_BATCH`,
//!   `ANTIDOTE_SERVE_MAX_WAIT_MS`, `ANTIDOTE_SERVE_QUEUE_CAP`,
//!   `ANTIDOTE_SERVE_DEADLINE_MS`, `ANTIDOTE_SERVE_QUANT`
//!   (`off`/`int8` — int8-quantized replicas; see
//!   `ServeConfig::from_env`).
//!
//! The load is fixed: 96 trace arrivals (24 with `--smoke`), seed 42.
//!
//! `--smoke` runs a small deterministic workload and exits non-zero if
//! any request fails or any budget is exceeded — CI uses it as the
//! serving-path regression gate. Without `--smoke` the same trace is
//! replayed on 1 worker and on the configured worker count, and the
//! goodput/latency comparison is reported.

use antidote_bench::trace::{
    generate, mean_service_ms, replay, ArrivalProcess, ClassMix, PhaseSpec, RequestClass,
};
use antidote_core::quant::{calibrate, CalibrationMethod};
use antidote_core::PruneSchedule;
use antidote_data::Split;
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{
    percentile, ModelFactory, Priority, QuantMode, ServeConfig, ServeEngine, ServeMetrics,
};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Synthetic model served by the benchmark: a deterministic, untrained
/// `vgg_tiny` — serving cost and mask behaviour are what matter here,
/// not accuracy. 64x64 inputs make one forward pass cost a meaningful
/// fraction of the batch window, so worker-count effects are visible.
const IMAGE_SIZE: usize = 64;
const CLASSES: usize = 4;

/// Every request carries a generous deadline: this benchmark measures
/// the happy path, not SLO enforcement.
const DEADLINE_MS: u64 = 5000;

fn fresh_vgg(seed: u64) -> Vgg {
    let mut rng = SmallRng::seed_from_u64(seed);
    Vgg::new(&mut rng, VggConfig::vgg_tiny(IMAGE_SIZE, CLASSES))
}

/// Replica factory honoring `ANTIDOTE_SERVE_QUANT`: fp32 replicas by
/// default, int8-quantized `Vgg` replicas when the mode says so. Int8
/// calibration runs once up front on a deterministic synthetic split
/// matching the load generator's input distribution, so every worker
/// quantizes against identical scales (replicas must stay identical).
fn factory(seed: u64, quant: QuantMode) -> ModelFactory {
    match quant {
        QuantMode::Off => Arc::new(move |_worker| Box::new(fresh_vgg(seed))),
        QuantMode::Int8 => {
            let calib_split = Split {
                images: Tensor::from_fn([8, 3, IMAGE_SIZE, IMAGE_SIZE], |i| {
                    (i as f32 * 0.379).sin() * 0.5
                }),
                labels: vec![0; 8],
            };
            let calib = calibrate(
                &mut fresh_vgg(seed),
                &calib_split,
                4,
                2,
                CalibrationMethod::MinMax,
            );
            Arc::new(move |_worker| {
                Box::new(fresh_vgg(seed).quantize(calib.input_scale, &calib.tap_scales))
            })
        }
    }
}

/// The four budget tiers, expressed as floor→dense fractions and
/// equally weighted in the mix — every batch window sees a spread of
/// schedule scales.
fn tier_mix() -> ClassMix {
    let tier = |name: &'static str, budget_frac: Option<f64>| RequestClass {
        name,
        priority: Priority::Standard,
        budget_frac,
        deadline_ms: DEADLINE_MS,
    };
    ClassMix::new(vec![
        (tier("dense", None), 1.0),
        (tier("loose", Some(0.9)), 1.0),
        (tier("medium", Some(0.5)), 1.0),
        (tier("near-floor", Some(0.05)), 1.0),
    ])
}

fn input(i: usize) -> Tensor {
    Tensor::from_fn([3, IMAGE_SIZE, IMAGE_SIZE], move |j| {
        ((i * 193 + j * 7) % 23) as f32 * 0.04 - 0.44
    })
}

struct LoadOutcome {
    metrics: ServeMetrics,
    /// Wall-clock completion rate over the trace duration.
    goodput_rps: f64,
    p99_ms: f64,
    /// (budget, achieved) pairs for every budgeted completion.
    budget_pairs: Vec<(f64, f64)>,
    offered: usize,
    errors: Vec<String>,
}

/// Replays the phase list's trace on a fresh engine.
fn run_load(cfg: ServeConfig, seed: u64, phases: &[PhaseSpec]) -> LoadOutcome {
    let quant = cfg.quant;
    let engine = ServeEngine::start(cfg, factory(seed, quant)).expect("engine start");
    let handle = engine.handle();
    let trace = generate(phases, seed);
    let start = std::time::Instant::now();
    let outcomes = replay(&handle, &trace, input);
    let elapsed = start.elapsed();
    let metrics = engine.shutdown();

    let mut budget_pairs = Vec::new();
    let mut errors = Vec::new();
    let mut latencies = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        match &o.result {
            Ok(resp) => {
                if let Some(b) = resp.budget {
                    budget_pairs.push((b, resp.achieved_macs));
                }
                latencies.push(resp.latency.as_secs_f64() * 1e3);
            }
            Err(e) => errors.push(format!("request {i} ({}): {e}", o.class.name)),
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    LoadOutcome {
        goodput_rps: metrics.completed as f64 / elapsed.as_secs_f64().max(1e-9),
        p99_ms: percentile(&latencies, 99.0),
        metrics,
        budget_pairs,
        offered: outcomes.len(),
        errors,
    }
}

fn print_summary(label: &str, out: &LoadOutcome) {
    println!("--- {label} ---");
    println!("offered {} | goodput {:.1} req/s", out.offered, out.goodput_rps);
    // The per-snapshot shape is shared with http_bench and /metrics
    // consumers via `ServeMetrics::summary_line`.
    println!("{}", out.metrics.summary_line());
}

fn main() {
    antidote_obs::init_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests: usize = if smoke { 24 } else { 96 };
    let seed = 42u64;
    let mut cfg = ServeConfig {
        workers: 4,
        max_batch: 8,
        max_wait: Duration::from_millis(4),
        // The trace rate is calibrated below capacity, so the queue
        // only needs headroom for batching jitter.
        queue_capacity: 64,
        base_schedule: PruneSchedule::channel_only(vec![0.6, 0.6]),
        ..ServeConfig::default()
    }
    .with_env_overrides();
    // Replica kills belong to overload_bench's chaos phase; this
    // benchmark gates the happy path.
    cfg.chaos = None;

    // Calibrate the arrival rate to the pool's measured capacity so the
    // trace loads the batcher without tipping into overload.
    let calib_engine =
        ServeEngine::start(cfg.clone(), factory(seed, cfg.quant)).expect("engine start");
    let service_ms = mean_service_ms(&calib_engine.handle(), &input(0), 4);
    calib_engine.shutdown();
    let capacity_rps = cfg.workers as f64 * 1e3 / service_ms.max(1e-3);
    let rps = 0.6 * capacity_rps;
    let duration = Duration::from_secs_f64((requests as f64 / rps).max(0.05));
    println!(
        "calibrated: service {service_ms:.2}ms, capacity {capacity_rps:.1} req/s -> steady {rps:.1} req/s for {:.2}s",
        duration.as_secs_f64()
    );
    let phases = vec![PhaseSpec {
        name: "steady",
        process: ArrivalProcess::Steady { rps },
        duration,
        mix: tier_mix(),
    }];

    if smoke {
        let out = run_load(cfg, seed, &phases);
        print_summary("smoke", &out);
        println!("{}", out.metrics.to_json());
        let mut failed = false;
        if out.metrics.completed == 0 || out.metrics.completed as usize != out.offered {
            eprintln!(
                "SMOKE FAIL: completed {} of {} offered requests",
                out.metrics.completed, out.offered
            );
            failed = true;
        }
        if !out.errors.is_empty() {
            for e in &out.errors {
                eprintln!("SMOKE FAIL: unexpected error: {e}");
            }
            failed = true;
        }
        for (budget, achieved) in &out.budget_pairs {
            if achieved > budget {
                eprintln!("SMOKE FAIL: achieved MACs {achieved} exceeds budget {budget}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "smoke ok: {} completions, 0 unexpected errors",
            out.metrics.completed
        );
        return;
    }

    // Full mode: the same seeded trace on 1 worker vs the configured
    // pool. The single worker saturates (typed sheds/expiries are
    // expected and acceptable there); the pool should absorb the load.
    let single = run_load(
        ServeConfig {
            workers: 1,
            ..cfg.clone()
        },
        seed,
        &phases,
    );
    print_summary("1 worker", &single);
    let pooled = run_load(cfg.clone(), seed, &phases);
    print_summary(&format!("{} workers", cfg.workers), &pooled);
    println!(
        "goodput: {:.2}x ({:.1} -> {:.1} req/s) | p99 {:.1}ms -> {:.1}ms",
        pooled.goodput_rps / single.goodput_rps.max(1e-9),
        single.goodput_rps,
        pooled.goodput_rps,
        single.p99_ms,
        pooled.p99_ms,
    );
    println!("{}", pooled.metrics.to_json());
}
