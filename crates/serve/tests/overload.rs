//! Overload-policy coverage on a live engine: queue pressure degrades
//! admitted requests to cheaper schedules before anything is shed, and
//! a full queue displaces low-priority work for interactive arrivals
//! instead of rejecting them.

use antidote_core::PruneSchedule;
use antidote_models::{Vgg, VggConfig};
use antidote_serve::{
    Fault, InferRequest, ModelFactory, Priority, ServeConfig, ServeEngine, ServeError, ShedConfig,
};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn factory(seed: u64) -> ModelFactory {
    Arc::new(move |_worker| {
        let mut rng = SmallRng::seed_from_u64(seed);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3)))
    })
}

fn input() -> Tensor {
    Tensor::from_fn([3, 8, 8], |i| (i % 11) as f32 * 0.09)
}

#[test]
fn queue_pressure_degrades_requests_before_shedding() {
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 2,
        queue_capacity: 8,
        default_deadline: Duration::from_secs(10),
        base_schedule: PruneSchedule::channel_only(vec![0.5, 0.5]),
        shed: ShedConfig {
            degrade_watermark: 0.25,
            shed_watermark: 0.75,
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(cfg, factory(21)).unwrap();
    let handle = engine.handle();
    let dense = handle.dense_macs();

    // Stall the single worker so queued work piles up deterministically.
    let stalled = handle
        .submit(InferRequest {
            fault: Some(Fault::SleepMs(150)),
            ..InferRequest::new(input())
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));

    // Pressures 0, 1/8, 2/8: at or below the degrade watermark — the
    // ramp scale is still zero there, so these are admitted dense.
    let clean: Vec<_> = (0..3)
        .map(|_| handle.submit(InferRequest::new(input())).unwrap())
        .collect();
    // Pressures 3/8 … 5/8: inside the degrade band — admitted at a
    // forced cheaper scale even though the requests asked for dense.
    let degraded: Vec<_> = (0..3)
        .map(|_| handle.submit(InferRequest::new(input())).unwrap())
        .collect();

    assert!(stalled.wait().is_ok());
    for p in clean {
        let resp = p.wait().expect("clean request served");
        assert!(!resp.degraded);
        assert_eq!(resp.schedule_scale, 0.0);
        assert_eq!(resp.achieved_macs, dense);
    }
    let mut saw_cheaper = false;
    for p in degraded {
        let resp = p.wait().expect("degraded request still served — not dropped");
        assert!(resp.degraded, "pressure in the band must set the degraded flag");
        assert!(resp.schedule_scale > 0.0);
        saw_cheaper |= resp.achieved_macs < dense;
    }
    assert!(
        saw_cheaper,
        "degrading must actually reduce spent MACs below dense"
    );
    let metrics = engine.shutdown();
    assert_eq!(metrics.degraded, 3);
    assert_eq!(metrics.shed, 0, "nothing sheds below the shed watermark");
    assert_eq!(metrics.completed, 7);
    assert!(metrics.degrade_rate() > 0.0);
    assert_eq!(metrics.shed_rate(), 0.0);
    // One latency sample per completion; the stalled request is the max.
    let latency = metrics.snapshot.hist("latency_ms").expect("engine latency histogram");
    assert_eq!(latency.count, 7);
    assert!(latency.max >= 150.0 && latency.mean() < latency.max, "{latency:?}");
}

#[test]
fn interactive_arrivals_displace_batch_work_at_full_queue() {
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 2,
        queue_capacity: 4,
        default_deadline: Duration::from_secs(10),
        base_schedule: PruneSchedule::channel_only(vec![0.5, 0.5]),
        // Watermarks at 1.0 disable shedding so the test isolates the
        // queue's displacement path.
        shed: ShedConfig {
            degrade_watermark: 1.0,
            shed_watermark: 1.0,
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(cfg, factory(22)).unwrap();
    let handle = engine.handle();

    let stalled = handle
        .submit(InferRequest {
            fault: Some(Fault::SleepMs(150)),
            ..InferRequest::new(input())
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));

    // Fill the queue with batch-priority work; distinct deadlines make
    // the eviction victim (latest deadline) deterministic.
    let fillers: Vec<_> = (0..4)
        .map(|i| {
            handle
                .submit(
                    InferRequest::new(input())
                        .with_priority(Priority::Batch)
                        .with_deadline(Duration::from_secs(5 + i)),
                )
                .unwrap()
        })
        .collect();

    // The interactive arrival is admitted by displacing the
    // latest-deadline batch entry — never rejected.
    let urgent = handle
        .submit(InferRequest::new(input()).with_priority(Priority::Interactive))
        .unwrap();

    assert!(stalled.wait().is_ok());
    let mut served = 0usize;
    let mut displaced = 0usize;
    for (i, p) in fillers.into_iter().enumerate() {
        match p.wait() {
            Ok(_) => served += 1,
            Err(ServeError::Overloaded { pressure, priority }) => {
                assert_eq!(i, 3, "the latest-deadline filler is the victim");
                assert_eq!(pressure, 1.0);
                assert_eq!(priority, Priority::Batch);
                displaced += 1;
            }
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
    }
    assert_eq!(served, 3);
    assert_eq!(displaced, 1);
    let resp = urgent.wait().expect("interactive request must be served");
    assert_eq!(resp.priority, Priority::Interactive);
    let metrics = engine.shutdown();
    assert_eq!(metrics.evicted, 1);
    assert_eq!(metrics.rejected_full, 0);
    assert_eq!(metrics.completed, 5);
    // The engine registry counts admissions per lane.
    let admitted = ["admitted.interactive", "admitted.standard", "admitted.batch"]
        .map(|name| metrics.snapshot.counter(name));
    assert_eq!(admitted, [Some(1), Some(1), Some(4)]);
    assert_eq!(
        metrics.resolved(),
        6,
        "displaced work still reached a typed terminal state"
    );
}
