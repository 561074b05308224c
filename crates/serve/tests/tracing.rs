//! End-to-end flight-recorder coverage: a traced request leaves a
//! reconstructible record — queue wait, admission decision, batch
//! id/occupancy, per-layer forward spans and MAC counters — and failed
//! requests land in the errored set with the outcome kinds the HTTP
//! layer maps to status codes.
//!
//! These tests toggle the process-global observability flag and read
//! the global flight recorder, so they live in one `#[test]` body run
//! sequentially rather than racing each other.

use antidote_core::mask::topk_count;
use antidote_core::PruneSchedule;
use antidote_models::{Network, Vgg, VggConfig};
use antidote_obs::TraceId;
use antidote_serve::{
    Fault, InferRequest, ModelFactory, ServeConfig, ServeEngine, ServeError,
};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard};

/// Both tests read the process-global enabled flag; serialize them.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_factory(seed: u64) -> ModelFactory {
    Arc::new(move |_worker| {
        let mut rng = SmallRng::seed_from_u64(seed);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3)))
    })
}

fn base_schedule() -> PruneSchedule {
    PruneSchedule::channel_only(vec![0.8, 0.8])
}

fn input() -> Tensor {
    Tensor::from_fn([3, 8, 8], |i| (i % 7) as f32 * 0.1)
}

#[test]
fn traced_requests_reach_the_flight_recorder_with_spans_and_outcomes() {
    let _guard = obs_lock();
    antidote_obs::reset();
    antidote_obs::clear_recorder();
    antidote_obs::set_enabled(true);

    let cfg = ServeConfig {
        workers: 1,
        max_batch: 2,
        queue_capacity: 8,
        base_schedule: base_schedule(),
        label: "vgg-tiny".to_string(),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(cfg, tiny_factory(11)).unwrap();
    let handle = engine.handle();

    // A caller-supplied trace id is honored verbatim and echoed back.
    let tid = TraceId::parse("deadbeef").unwrap();
    let budget = handle.dense_macs() * 0.8;
    let resp = handle
        .submit(InferRequest::new(input()).with_budget(budget).with_trace(tid))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.trace, Some(tid), "engine echoes the submitted id");

    // The served batch's keep rates reach obs at every tap the plan
    // masks, as they do for any other pruned forward pass.
    let schedule = base_schedule().scaled(resp.schedule_scale);
    let net = Vgg::new(&mut SmallRng::seed_from_u64(11), VggConfig::vgg_tiny(8, 3));
    let masked: Vec<_> = net
        .taps()
        .into_iter()
        .filter(|t| topk_count(schedule.channel_keep(t.block), t.channels).0 < t.channels)
        .collect();
    assert!(!masked.is_empty(), "a 0.8·dense budget masks some tap");
    let snap = antidote_obs::snapshot();
    for t in masked {
        let key = format!("pruner.tap{:02}.channel_keep", t.id.0);
        let samples = snap.hist(&key).map_or(0, |h| h.count);
        assert!(samples >= 1, "{key} has no served sample");
    }

    // With observability on, an untraced request gets a minted id.
    let resp2 = handle.submit(InferRequest::new(input())).unwrap().wait().unwrap();
    let minted = resp2.trace.expect("engine mints ids while obs is on");
    assert_ne!(minted, tid);

    // A panicked batch yields an errored record with partial context.
    let panic_tid = TraceId::parse("0badc0de").unwrap();
    let err = handle
        .submit(InferRequest {
            fault: Some(Fault::Panic),
            ..InferRequest::new(input()).with_trace(panic_tid)
        })
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServeError::WorkerPanicked { .. }));

    drop(handle);
    engine.shutdown();
    antidote_obs::set_enabled(false);

    let js = antidote_obs::traces_json();
    // The ok record carries the full execution context.
    assert!(js.contains(&tid.to_hex()), "submitted id retained: {js}");
    assert!(js.contains(&minted.to_hex()), "minted id retained: {js}");
    assert!(js.contains("\"model\":\"vgg-tiny\""), "{js}");
    assert!(js.contains("\"shed\":\"admit\""), "{js}");
    assert!(js.contains("queue.wait"), "synthetic queue span present: {js}");
    assert!(js.contains("fwd.layer"), "per-layer forward spans stitched in: {js}");
    assert!(js.contains("fwd.layer00.macs"), "per-layer MAC counters attached: {js}");
    // The panicked request is in the errored set with the HTTP error kind.
    assert!(js.contains(&panic_tid.to_hex()), "{js}");
    assert!(js.contains("\"outcome\":\"worker_panicked\""), "{js}");

    antidote_obs::clear_recorder();
    antidote_obs::reset();
}

#[test]
fn disabled_observability_keeps_requests_untraced_and_recorder_empty() {
    let _guard = obs_lock();
    // No global toggles here: enabled() is false by default and the
    // engine must neither mint ids nor record anything.
    let cfg = ServeConfig {
        workers: 1,
        base_schedule: PruneSchedule::channel_only(vec![0.8, 0.8]),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(cfg, tiny_factory(12)).unwrap();
    let resp = engine
        .handle()
        .submit(InferRequest::new(input()))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.trace, None, "no minting while observability is off");
    engine.shutdown();
}
