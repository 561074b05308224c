//! Golden bit patterns of the served path: one mixed-budget batch
//! through a seeded `vgg_small` fp32 engine and its int8 twin.
//!
//! Four requests with budgets `{none, floor, mid, 0.9·dense}` are
//! queued behind a one-worker engine's stalled batch; the engine takes
//! what is queued up to `max_batch` 4, so they share one forward pass
//! with four different per-item schedules. The checksum is FNV-1a over
//! each response's logit bits and the bits of its `achieved_macs`,
//! `scheduled_macs` and `schedule_scale`, in submission order: it moves
//! if the masks, the item-to-schedule pairing, or the MAC charge move.
//! The same constants must come out at thread budgets 1 and 4 and on
//! the scalar kernel backend.

use antidote_core::checkpoint::{fnv1a, fnv1a_extend};
use antidote_core::quant::{quantize_vgg, CalibrationMethod};
use antidote_core::PruneSchedule;
use antidote_data::SynthConfig;
use antidote_models::{Network, Vgg, VggConfig};
use antidote_nn::Mode;
use antidote_serve::{Fault, InferRequest, ModelFactory, ServeConfig, ServeEngine};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const IMAGE: usize = 32;

/// The fp32 network and its int8 twin, built as `golden_bits.rs` builds
/// them: a seeded net, one training-mode pass to move the batch-norm
/// running statistics, then min-max post-training quantization.
fn networks() -> (Vgg, Vgg) {
    let config = VggConfig::vgg_small(IMAGE, 10, 8).with_batchnorm();
    let mut fp32 = Vgg::new(&mut SmallRng::seed_from_u64(41), config);
    let warm = Tensor::from_fn([4, 3, IMAGE, IMAGE], |i| (i as f32 * 0.013).sin());
    let _ = fp32.forward(&warm, Mode::Train);
    let data = SynthConfig::tiny(10, IMAGE).with_samples(8, 8).generate();
    let int8 = quantize_vgg(&mut fp32, &data.test, 4, 2, CalibrationMethod::MinMax);
    (fp32, int8)
}

/// Serves one batch of four mixed-budget requests and hashes the
/// responses.
fn served_checksum(net: Vgg) -> u64 {
    let factory: ModelFactory = Arc::new(move |_worker| Box::new(net.clone()));
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 4,
        queue_capacity: 8,
        base_schedule: PruneSchedule::new(
            vec![0.2, 0.2, 0.6, 0.9, 0.9],
            vec![0.0, 0.3, 0.3, 0.5, 0.5],
        ),
        label: "served-bits".to_string(),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(cfg, factory).expect("engine starts");
    let handle = engine.handle();
    let (floor, dense) = (handle.floor_macs(), handle.dense_macs());
    // Park the worker inside a stalled batch of its own, so the four
    // requests are all queued when it next pops.
    let parker = handle
        .submit(InferRequest {
            fault: Some(Fault::SleepMs(300)),
            ..InferRequest::new(Tensor::zeros([3, IMAGE, IMAGE]))
        })
        .expect("queue has room");
    while handle.metrics().snapshot.counter("batches") != Some(1) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let budgets = [
        None,
        Some(floor),
        Some(0.5 * (floor + dense)),
        Some(0.9 * dense),
    ];
    let pending: Vec<_> = budgets
        .iter()
        .enumerate()
        .map(|(i, &budget)| {
            let input = Tensor::from_fn([3, IMAGE, IMAGE], |j| {
                ((j * 7 + i * 131) % 97) as f32 * 0.021 - 1.0
            });
            let mut req = InferRequest::new(input);
            req.budget = budget;
            handle.submit(req).expect("queue has room")
        })
        .collect();
    assert!(parker.try_wait().is_none(), "the four were queued while the worker was parked");
    parker.wait().expect("the stalled request is served");
    let mut hash = fnv1a(&[]);
    let mut scales = Vec::new();
    for p in pending {
        let resp = p.wait().expect("every budget is feasible");
        assert_eq!(resp.batch_size, 4, "the four requests must share one batch");
        scales.push(resp.schedule_scale);
        for v in &resp.logits {
            hash = fnv1a_extend(hash, &v.to_bits().to_le_bytes());
        }
        for v in [resp.achieved_macs, resp.scheduled_macs, resp.schedule_scale] {
            hash = fnv1a_extend(hash, &v.to_bits().to_le_bytes());
        }
    }
    // Four distinct operating points, so the batch really is mixed.
    assert!(
        scales[0] == 0.0 && scales[3] > 0.0 && scales[2] > scales[3] && scales[1] > scales[2],
        "scales {scales:?}"
    );
    drop(handle);
    engine.shutdown();
    hash
}

#[test]
fn mixed_budget_batch_keeps_its_bits() {
    let (fp32, int8) = networks();
    let got = [served_checksum(fp32), served_checksum(int8)];
    assert_eq!(
        got,
        [0xb2f8_740d_9687_d8c0, 0x1016_feba_2e2d_7148],
        "served fp32/int8 mixed-batch bits moved"
    );
}
