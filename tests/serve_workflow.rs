//! End-to-end serving workflow: concurrent clients with mixed compute
//! budgets against the `antidote-serve` engine.
//!
//! Asserts the PR's serving guarantees:
//!
//! 1. every submitted request ends in a response or a *typed* rejection
//!    — nothing is silently dropped;
//! 2. a budgeted response never spends more analytic MACs than its
//!    budget;
//! 3. worker count and batch composition are invisible to results:
//!    identical seeds give identical aggregate accuracy on 1 worker and
//!    on 4;
//! 4. on the same seeded workload, 4 workers achieve strictly higher
//!    throughput than 1 — concurrent clients' requests run on separate
//!    replicas at once instead of queueing for one.

use antidote_core::PruneSchedule;
use antidote_data::{Split, SynthConfig};
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{InferRequest, ModelFactory, ServeConfig, ServeEngine, ServeError};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLASSES: usize = 3;
const CLIENTS: usize = 3;

fn factory(seed: u64, image_size: usize) -> ModelFactory {
    Arc::new(move |_worker| {
        let mut rng = SmallRng::seed_from_u64(seed);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(image_size, CLASSES)))
    })
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 8,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(10),
        base_schedule: PruneSchedule::channel_only(vec![0.6, 0.6]),
        ..ServeConfig::default()
    }
}

/// 3 classes x 8 test images per class = 24 images.
fn test_split(image_size: usize) -> Split {
    SynthConfig::tiny(CLASSES, image_size)
        .with_samples(1, 8)
        .generate()
        .test
}

/// Deterministic per-request budget tier, independent of which worker
/// or batch ends up carrying the request.
fn budget_for(index: usize, floor: f64, dense: f64) -> Option<f64> {
    let lerp = |f: f64| floor + f * (dense - floor);
    match index % 4 {
        0 => None,
        1 => Some(lerp(0.9)),
        2 => Some(lerp(0.4)),
        _ => Some(lerp(0.02)),
    }
}

/// The request slice client `c` owns: every `CLIENTS`-th image.
fn client_items(split: &Split, c: usize) -> Vec<(usize, Tensor, usize)> {
    (0..split.labels.len())
        .filter(|i| i % CLIENTS == c)
        .map(|i| (i, split.images.batch_item(i), split.labels[i]))
        .collect()
}

/// Serves every test image through `workers` replicas from concurrent
/// clients; returns (aggregate accuracy, elapsed, served count).
fn serve_split(
    workers: usize,
    seed: u64,
    image_size: usize,
    split: &Split,
) -> (f64, Duration, usize) {
    let engine = ServeEngine::start(config(workers), factory(seed, image_size))
        .expect("engine start");
    let handle = engine.handle();
    let floor = handle.floor_macs();
    let dense = handle.dense_macs();
    let n = split.labels.len();
    let start = Instant::now();
    let joins: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let items = client_items(split, c);
            std::thread::spawn(move || {
                let mut hits = 0usize;
                let mut served = 0usize;
                for (i, image, label) in items {
                    let mut req = InferRequest::new(image);
                    if let Some(b) = budget_for(i, floor, dense) {
                        req = req.with_budget(b);
                    }
                    let resp = handle
                        .submit(req)
                        .and_then(|p| p.wait())
                        .expect("in-budget request must be served");
                    if let Some(b) = budget_for(i, floor, dense) {
                        assert!(
                            resp.achieved_macs <= b,
                            "achieved {} exceeds budget {b}",
                            resp.achieved_macs
                        );
                    }
                    served += 1;
                    hits += usize::from(resp.class == label);
                }
                (hits, served)
            })
        })
        .collect();
    let mut hits = 0;
    let mut served = 0;
    for j in joins {
        let (h, s) = j.join().expect("client thread");
        hits += h;
        served += s;
    }
    let elapsed = start.elapsed();
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed as usize, served);
    (hits as f64 / n as f64, elapsed, served)
}

#[test]
fn mixed_budget_clients_are_served_or_typed_rejected() {
    let split = test_split(8);
    let engine = ServeEngine::start(config(2), factory(11, 8))
        .expect("engine start");
    let handle = engine.handle();
    let floor = handle.floor_macs();
    let dense = handle.dense_macs();
    let n = split.labels.len();
    let joins: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let items = client_items(&split, c);
            std::thread::spawn(move || {
                let mut served = 0usize;
                let mut typed_rejections = 0usize;
                for (i, image, _) in items {
                    // Every 5th request asks for an impossible budget to
                    // exercise the typed-rejection path concurrently.
                    let infeasible = i % 5 == 4;
                    let mut req = InferRequest::new(image);
                    req = if infeasible {
                        req.with_budget(floor * 0.5)
                    } else if let Some(b) = budget_for(i, floor, dense) {
                        req.with_budget(b)
                    } else {
                        req
                    };
                    match handle.submit(req).and_then(|p| p.wait()) {
                        Ok(resp) => {
                            assert!(!infeasible, "infeasible budget must not be served");
                            if let Some(b) = budget_for(i, floor, dense) {
                                assert!(resp.achieved_macs <= b);
                            }
                            served += 1;
                        }
                        Err(ServeError::Budget(_)) if infeasible => typed_rejections += 1,
                        Err(other) => panic!("untyped/unexpected failure: {other:?}"),
                    }
                }
                (served, typed_rejections)
            })
        })
        .collect();
    let mut served = 0;
    let mut rejected = 0;
    for j in joins {
        let (s, r) = j.join().expect("client thread");
        served += s;
        rejected += r;
    }
    let metrics = engine.shutdown();
    // Every request reached a terminal state: served or typed-rejected.
    assert_eq!(served + rejected, n);
    assert_eq!(metrics.completed as usize, served);
    assert_eq!(metrics.infeasible as usize, rejected);
    assert!(rejected > 0, "workload must exercise the rejection path");
}

#[test]
fn worker_count_is_invisible_to_accuracy() {
    let split = test_split(8);
    let (acc1, _, served1) = serve_split(1, 33, 8, &split);
    let (acc4, _, served4) = serve_split(4, 33, 8, &split);
    assert_eq!(served1, split.labels.len());
    assert_eq!(served4, split.labels.len());
    // Identical seeds and per-item masks: batching and worker count must
    // not change any prediction, so aggregate accuracy matches exactly.
    assert_eq!(acc1, acc4);
}

#[test]
fn four_workers_outrun_one_worker_on_the_same_workload() {
    // 64x64 inputs make per-item compute (~1ms) dominate each request.
    // The conv executors run batch items one after another, so with 1
    // worker the three clients' requests run in turn on one replica,
    // and the replica idles while each client hands its next request
    // over; with 4 workers they run on separate replicas at once, so
    // one replica's compute overlaps another's, and the clients'
    // hand-offs. Scheduler noise on loaded machines can still blur one
    // measurement, so take the best of 3 attempts before judging.
    let split = test_split(64);
    let mut best_speedup = 0.0f64;
    for attempt in 0..3 {
        let (acc1, t1, _) = serve_split(1, 91, 64, &split);
        let (acc4, t4, _) = serve_split(4, 91, 64, &split);
        assert_eq!(acc1, acc4);
        let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-9);
        best_speedup = best_speedup.max(speedup);
        if best_speedup > 1.0 {
            return;
        }
        eprintln!("attempt {attempt}: speedup {speedup:.3} (1w {t1:?}, 4w {t4:?})");
    }
    panic!("4 workers never beat 1 worker; best speedup {best_speedup:.3}");
}
