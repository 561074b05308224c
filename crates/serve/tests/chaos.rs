//! Chaos-mode coverage: replicas killed repeatedly under concurrent
//! load. The engine's guarantees under chaos:
//!
//! 1. no request is lost without a typed terminal response;
//! 2. surviving (completed) responses are bit-identical to a clean
//!    engine's — a rebuilt replica serves exactly like the original;
//! 3. the kill counter reports the injected faults.

use antidote_core::checkpoint::Checkpoint;
use antidote_core::PruneSchedule;
use antidote_models::{ConvShape, FeatureHook, Network, TapInfo, Vgg, VggConfig};
use antidote_nn::layers::Conv2d;
use antidote_nn::masked::MacCounter;
use antidote_nn::{Mode, Parameter};
use antidote_serve::{
    ChaosConfig, InferRequest, ModelFactory, ServeConfig, ServeEngine, ServeError,
};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 12;

fn factory(seed: u64) -> ModelFactory {
    Arc::new(move |_worker| {
        let mut rng = SmallRng::seed_from_u64(seed);
        Box::new(Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3)))
    })
}

fn input(i: usize) -> Tensor {
    Tensor::from_fn([3, 8, 8], move |j| ((i * 31 + j) % 13) as f32 * 0.07)
}

fn config(workers: usize, chaos: Option<ChaosConfig>) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
        base_schedule: PruneSchedule::channel_only(vec![0.7, 0.7]),
        chaos,
        ..ServeConfig::default()
    }
}

/// Installs a process-wide panic hook that swallows only the expected
/// chaos-kill panics and forwards everything else to the default hook.
/// Installed once and never restored: tests in this binary run on
/// parallel threads, so a per-test take/set/restore dance would race.
fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
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
    });
}

/// Serves every request on a clean (chaos-free) engine to establish the
/// reference logits.
fn reference_logits() -> Vec<Vec<f32>> {
    let engine = ServeEngine::start(config(2, None), factory(42)).unwrap();
    let handle = engine.handle();
    let logits: Vec<Vec<f32>> = (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|i| {
            handle
                .submit(InferRequest::new(input(i)))
                .unwrap()
                .wait()
                .expect("clean engine serves everything")
                .logits
        })
        .collect();
    engine.shutdown();
    logits
}

#[test]
fn replicas_killed_mid_load_lose_no_request_and_keep_accuracy() {
    let reference = reference_logits();

    // Aggressive chaos: a kill every 5ms while 4 clients keep 48
    // requests in flight — several batches die mid-run.
    let chaos = ChaosConfig {
        kill_every: Duration::from_millis(5),
        max_kills: 6,
        seed: 0xDEAD,
    };
    let engine = ServeEngine::start(config(2, Some(chaos)), factory(42)).unwrap();
    let handle = engine.handle();
    silence_chaos_panics();

    let joins: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = c * REQUESTS_PER_CLIENT + r;
                    let result = handle
                        .submit(InferRequest::new(input(i)))
                        .and_then(|p| p.wait());
                    outcomes.push((i, result));
                    // Spread submissions so kills land across many batches.
                    std::thread::sleep(Duration::from_millis(2));
                }
                outcomes
            })
        })
        .collect();

    let mut completed = 0usize;
    let mut panicked = 0usize;
    for j in joins {
        for (i, outcome) in j.join().expect("client thread") {
            match outcome {
                Ok(resp) => {
                    completed += 1;
                    assert_eq!(
                        resp.logits, reference[i],
                        "request {i}: a rebuilt replica must serve identically"
                    );
                }
                // The only acceptable failure here: the batch died with
                // the killed replica, typed and attributed.
                Err(ServeError::WorkerPanicked { .. }) => panicked += 1,
                Err(other) => panic!("untyped/unexpected failure for {i}: {other:?}"),
            }
        }
    }

    let metrics = engine.shutdown();
    assert_eq!(
        completed + panicked,
        CLIENTS * REQUESTS_PER_CLIENT,
        "every request must reach a typed terminal state"
    );
    assert!(metrics.chaos_kills >= 1, "chaos must actually fire");
    assert_eq!(metrics.chaos_kills, metrics.worker_panics);
    assert_eq!(metrics.completed as usize, completed);
    assert_eq!(metrics.panicked as usize, panicked);
    assert!(
        completed > 0,
        "the engine must keep completing work between kills"
    );
}

#[test]
fn chaos_kill_cap_limits_disruption() {
    // max_kills = 1 on a single worker (so the victim draw is always the
    // worker that polls): exactly one batch dies; afterwards the engine
    // serves indefinitely without further panics.
    let chaos = ChaosConfig {
        kill_every: Duration::from_millis(1),
        max_kills: 1,
        seed: 7,
    };
    let engine = ServeEngine::start(config(1, Some(chaos)), factory(9)).unwrap();
    let handle = engine.handle();
    silence_chaos_panics();
    let mut panicked = 0usize;
    for i in 0..24 {
        std::thread::sleep(Duration::from_millis(2));
        match handle.submit(InferRequest::new(input(i))).unwrap().wait() {
            Ok(_) => {}
            Err(ServeError::WorkerPanicked { .. }) => panicked += 1,
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.chaos_kills, 1, "the kill cap must hold");
    assert_eq!(panicked, 1);
    assert_eq!(metrics.completed, 23);
}

/// A replica cloned from `prototype` that reports, when the engine
/// drops it, whether every parameter still shares the prototype's
/// buffer — i.e. that it was built by sharing and that nothing on the
/// served path wrote to a weight (which would silently copy it).
#[derive(Debug)]
struct SharingSpy {
    replica: Vgg,
    prototype: Arc<Vec<Tensor>>,
    /// One entry per dropped replica: did it still share everything?
    dropped: Arc<Mutex<Vec<bool>>>,
}

impl Drop for SharingSpy {
    fn drop(&mut self) {
        let mut held = self.prototype.iter();
        let mut shares = true;
        self.replica.visit_params_mut(&mut |p| {
            shares &= held.next().is_some_and(|h| p.value.shares_storage(h));
        });
        self.dropped
            .lock()
            .expect("no panic while the spy log is held")
            .push(shares && held.next().is_none());
    }
}

impl Network for SharingSpy {
    fn forward_hooked(&mut self, x: &Tensor, mode: Mode, hook: &mut dyn FeatureHook) -> Tensor {
        self.replica.forward_hooked(x, mode, hook)
    }
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.replica.backward(grad)
    }
    fn forward_measured(
        &mut self,
        x: &Tensor,
        hook: &mut dyn FeatureHook,
        counter: &mut MacCounter,
    ) -> Tensor {
        self.replica.forward_measured(x, hook, counter)
    }
    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.replica.visit_params_mut(visitor)
    }
    fn taps(&self) -> Vec<TapInfo> {
        self.replica.taps()
    }
    fn visit_tap_convs(&self, visitor: &mut dyn FnMut(usize, &Conv2d)) {
        self.replica.visit_tap_convs(visitor)
    }
    fn conv_shapes(&self) -> Vec<ConvShape> {
        self.replica.conv_shapes()
    }
    fn describe(&self) -> String {
        self.replica.describe()
    }
}

#[test]
fn replicas_rebuilt_after_a_kill_still_share_the_prototypes_weights() {
    let mut prototype = Vgg::new(&mut SmallRng::seed_from_u64(9), VggConfig::vgg_tiny(8, 3));
    let held = Arc::new(Checkpoint::capture(&mut prototype).params);
    let dropped = Arc::new(Mutex::new(Vec::new()));
    let factory: ModelFactory = {
        let (held, dropped) = (Arc::clone(&held), Arc::clone(&dropped));
        Arc::new(move |_worker| {
            Box::new(SharingSpy {
                replica: prototype.clone(),
                prototype: Arc::clone(&held),
                dropped: Arc::clone(&dropped),
            })
        })
    };

    // One worker, one kill: the original replica serves and dies, the
    // rebuilt one serves the rest.
    let chaos = ChaosConfig {
        kill_every: Duration::from_millis(1),
        max_kills: 1,
        seed: 7,
    };
    let engine = ServeEngine::start(config(1, Some(chaos)), factory).unwrap();
    let handle = engine.handle();
    silence_chaos_panics();
    for i in 0..12 {
        std::thread::sleep(Duration::from_millis(2));
        let _ = handle.submit(InferRequest::new(input(i))).unwrap().wait();
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.chaos_kills, 1);
    assert!(
        metrics.completed >= 1,
        "the rebuilt replica must have served"
    );

    let dropped = dropped.lock().unwrap();
    assert_eq!(dropped.len(), 2, "the killed replica and its replacement");
    assert!(
        dropped.iter().all(|&shares| shares),
        "a replica copied its weights: {dropped:?}"
    );
}
