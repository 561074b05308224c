//! Engine failure-path coverage: every way a request can end without a
//! normal response must be a *typed* outcome, and none of them may
//! poison the engine for later requests.

use antidote_core::PruneSchedule;
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{
    Fault, InferRequest, ModelFactory, PendingResponse, Priority, ServeConfig, ServeConfigError,
    ServeEngine, ServeError, ServeHandle,
};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn tiny_factory(seed: u64) -> ModelFactory {
    Arc::new(move |_worker| {
        let mut rng = SmallRng::seed_from_u64(seed);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3)))
    })
}

fn input() -> Tensor {
    Tensor::from_fn([3, 8, 8], |i| (i % 7) as f32 * 0.1)
}

/// Submits a request that stalls the engine's one worker for `ms` and
/// returns once the worker has launched it as a batch of its own, so
/// whatever is submitted next queues behind it.
fn park(handle: &ServeHandle, ms: u64) -> PendingResponse {
    let batches = || handle.metrics().snapshot.counter("batches").unwrap_or(0);
    let before = batches();
    let parked = handle
        .submit(InferRequest {
            fault: Some(Fault::SleepMs(ms)),
            ..InferRequest::new(input())
        })
        .unwrap();
    while batches() == before {
        std::thread::sleep(Duration::from_millis(1));
    }
    parked
}

fn base_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 4,
        queue_capacity: 4,
        default_deadline: Duration::from_secs(5),
        base_schedule: PruneSchedule::channel_only(vec![0.8, 0.8]),
        ..ServeConfig::default()
    }
}

#[test]
fn zero_sized_configs_are_rejected() {
    for cfg in [
        ServeConfig { workers: 0, ..base_config() },
        ServeConfig { max_batch: 0, ..base_config() },
        ServeConfig { queue_capacity: 0, ..base_config() },
    ] {
        let err = ServeEngine::start(cfg, tiny_factory(1)).err();
        assert!(matches!(
            err,
            Some(
                ServeConfigError::ZeroWorkers
                    | ServeConfigError::ZeroBatch
                    | ServeConfigError::ZeroCapacity
            )
        ));
    }
}

#[test]
fn deadline_expiry_while_queued_is_typed_and_never_consumes_batch_slots() {
    // Regression for the queue deadline semantics: one worker stalled by
    // a sleep fault; everything queued behind it with a tiny deadline
    // must expire while queued and be rejected with a typed
    // `DeadlineExceeded` *at dequeue* — never forwarded into a batch, so
    // no batch slot (and no zero-live batch) is ever spent on them.
    let engine = ServeEngine::start(base_config(), tiny_factory(2)).unwrap();
    let handle = engine.handle();
    // The next requests sit in the queue for the stalled batch's sleep.
    let slow = park(&handle, 150);
    let doomed: Vec<_> = (0..2)
        .map(|_| {
            handle
                .submit(
                    InferRequest::new(input()).with_deadline(Duration::from_millis(10)),
                )
                .unwrap()
        })
        .collect();
    assert!(slow.wait().is_ok(), "stalled request itself must complete");
    for pending in doomed {
        match pending.wait() {
            Err(ServeError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_millis(10));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    // Engine is still healthy after sweeping the expired requests.
    let ok = handle.submit(InferRequest::new(input())).unwrap().wait().unwrap();
    assert_eq!(
        ok.batch_size, 1,
        "expired requests must not share (or pad) a live batch"
    );
    let metrics = engine.shutdown();
    assert_eq!(metrics.expired, 2);
    assert_eq!(metrics.completed, 2);
    assert_eq!(
        metrics.batch_histogram[0], 0,
        "eager expiry must reject stale requests at dequeue, not launch empty batches"
    );
    let batched: u64 = metrics
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(k, &n)| k as u64 * n)
        .sum();
    assert_eq!(
        batched, metrics.completed,
        "only live (eventually completed) requests may occupy batch slots"
    );
}

#[test]
fn full_queue_rejects_with_backpressure() {
    let cfg = ServeConfig {
        queue_capacity: 2,
        ..base_config()
    };
    let engine = ServeEngine::start(cfg, tiny_factory(3)).unwrap();
    let handle = engine.handle();
    // Stall the worker so subsequent submissions stack up in the queue.
    let stalled = park(&handle, 200);
    // Fill the queue with interactive (never-shed) requests so admission
    // reaches the queue itself rather than the shed policy.
    let q1 = handle
        .submit(InferRequest::new(input()).with_priority(Priority::Interactive))
        .unwrap();
    let q2 = handle
        .submit(InferRequest::new(input()).with_priority(Priority::Interactive))
        .unwrap();
    // A standard-priority arrival at a saturated queue is shed with a
    // typed Overloaded (degrade-before-shed policy)...
    match handle.submit(InferRequest::new(input())) {
        Err(ServeError::Overloaded { pressure, priority }) => {
            assert!(pressure >= 0.9);
            assert_eq!(priority, Priority::Standard);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // ...while an interactive arrival — which is never shed and finds no
    // lower-priority victim to displace — sees plain backpressure.
    let rejected = handle.submit(InferRequest::new(input()).with_priority(Priority::Interactive));
    match rejected {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    for p in [stalled, q1, q2] {
        assert!(p.wait().is_ok());
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.rejected_full, 1);
    assert_eq!(metrics.shed, 1);
    assert_eq!(metrics.completed, 3);
    // The engine registry counts the shed per lane.
    let shed = ["shed.interactive", "shed.standard", "shed.batch"]
        .map(|name| metrics.snapshot.counter(name));
    assert_eq!(shed, [Some(0), Some(1), Some(0)]);
}

#[test]
fn budget_below_schedule_floor_is_typed_infeasible() {
    let engine = ServeEngine::start(base_config(), tiny_factory(4)).unwrap();
    let handle = engine.handle();
    let floor = handle.floor_macs();
    assert!(floor > 0.0);
    let err = handle
        .submit(InferRequest::new(input()).with_budget(floor * 0.5))
        .unwrap_err();
    match &err {
        ServeError::Budget(_) => {
            assert_eq!(err.stage(), "admission-budget");
            let record = err.failure_record("edge-case");
            assert!(record.error.contains("below the schedule floor"));
        }
        other => panic!("expected Budget error, got {other:?}"),
    }
    // A feasible request right after is unaffected.
    let ok = handle
        .submit(InferRequest::new(input()).with_budget(handle.dense_macs()))
        .unwrap();
    assert!(ok.wait().is_ok());
    let metrics = engine.shutdown();
    assert_eq!(metrics.infeasible, 1);
}

#[test]
fn worker_panic_returns_typed_error_and_engine_survives() {
    let engine = ServeEngine::start(base_config(), tiny_factory(5)).unwrap();
    let handle = engine.handle();
    // Quiet the panic backtrace for the injected fault.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let poisoned = handle
        .submit(InferRequest {
            fault: Some(Fault::Panic),
            ..InferRequest::new(input())
        })
        .unwrap();
    let outcome = poisoned.wait();
    std::panic::set_hook(prev_hook);
    match outcome {
        Err(err @ ServeError::WorkerPanicked { worker }) => {
            assert_eq!(worker, 0);
            // Mirrors FailureRecord rows, like the training harness does.
            let record = err.failure_record("edge-case");
            assert_eq!(record.stage, "worker-panic");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // The worker rebuilt its replica; the engine still serves correctly
    // and deterministically.
    let a = handle.submit(InferRequest::new(input())).unwrap().wait().unwrap();
    let b = handle.submit(InferRequest::new(input())).unwrap().wait().unwrap();
    assert_eq!(a.logits, b.logits, "replacement replica must be identical");
    let metrics = engine.shutdown();
    assert_eq!(metrics.worker_panics, 1);
    assert_eq!(metrics.panicked, 1);
    assert_eq!(metrics.completed, 2);
    assert_eq!(metrics.resolved(), 3, "every request reached a terminal state");
}

#[test]
fn shutdown_drains_queued_requests() {
    let engine = ServeEngine::start(base_config(), tiny_factory(6)).unwrap();
    let handle = engine.handle();
    let pendings: Vec<_> = (0..3)
        .map(|_| handle.submit(InferRequest::new(input())).unwrap())
        .collect();
    let metrics = engine.shutdown();
    for p in pendings {
        assert!(p.wait().is_ok(), "queued requests are served before exit");
    }
    assert_eq!(metrics.completed, 3);
    // After shutdown, admission fails with a typed error.
    match handle.submit(InferRequest::new(input())) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn bad_input_shapes_are_rejected_at_admission_without_failing_their_batch() {
    // Everything admitted while the worker is parked shares its next
    // batch, so an admitted offender would be coalesced with the
    // innocent request behind it.
    let cfg = ServeConfig {
        max_batch: 2,
        ..base_config()
    };
    let engine = ServeEngine::start(cfg, tiny_factory(7)).unwrap();
    let handle = engine.handle();
    let parked = park(&handle, 100);
    // Rank is fine and the shape is self-consistent; it is just not the
    // model's (3, 8, 8).
    for dims in [vec![1, 8, 8], vec![2, 3, 8, 8], vec![3, 8, 4]] {
        let err = handle
            .submit(InferRequest::new(Tensor::zeros(dims.as_slice())))
            .unwrap_err();
        assert_eq!(err, ServeError::BadInput { dims });
    }
    let innocent = handle.submit(InferRequest::new(input())).unwrap();
    let filler = handle.submit(InferRequest::new(input())).unwrap();
    assert!(parked.try_wait().is_none(), "both were queued while the worker was parked");
    assert!(parked.wait().is_ok());
    let innocent = innocent
        .wait()
        .expect("a neighbour's bad input must not fail this request");
    assert_eq!(innocent.batch_size, 2, "the two requests share one batch");
    assert!(filler.wait().is_ok());
    let metrics = engine.shutdown();
    assert_eq!(metrics.worker_panics, 0);
    assert_eq!(metrics.completed, 3);
}

#[test]
fn non_finite_inputs_are_rejected_at_admission() {
    let engine = ServeEngine::start(base_config(), tiny_factory(8)).unwrap();
    let handle = engine.handle();
    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut x = input();
        x.data_mut()[17] = v;
        let err = handle.submit(InferRequest::new(x)).unwrap_err();
        assert_eq!(err, ServeError::NonFiniteInput { index: 17 });
        assert_eq!(err.stage(), "admission-input");
    }
    let ok = handle.submit(InferRequest::new(input())).unwrap().wait().unwrap();
    assert!(ok.logits.iter().all(|v| v.is_finite()));
    assert_eq!(engine.shutdown().completed, 1);
}

#[test]
fn a_parked_worker_drains_the_queue_in_full_batches() {
    // The worker takes what is queued, up to max_batch, and never waits
    // for a batch to fill: max_batch + 2 queued requests launch as one
    // full batch and then a batch of the two left.
    let cfg = ServeConfig {
        queue_capacity: 16,
        ..base_config()
    };
    let max_batch = cfg.max_batch;
    let engine = ServeEngine::start(cfg, tiny_factory(9)).unwrap();
    let handle = engine.handle();
    let parked = park(&handle, 200);
    let pending: Vec<_> = (0..max_batch + 2)
        .map(|_| handle.submit(InferRequest::new(input())).unwrap())
        .collect();
    assert!(parked.try_wait().is_none(), "all were queued while the worker was parked");
    assert!(parked.wait().is_ok());
    let sizes: Vec<usize> = pending
        .into_iter()
        .map(|p| p.wait().unwrap().batch_size)
        .collect();
    let mut want = vec![max_batch; max_batch];
    want.extend([2, 2]);
    assert_eq!(sizes, want);
    let metrics = engine.shutdown();
    assert_eq!(metrics.batch_histogram, [0, 1, 1, 0, 1], "parked, then 4, then 2");
}
