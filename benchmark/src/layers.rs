//! Every direct call into a layer's public functions lives in this file,
//! so a refactor of a layer edits the benchmark in one place.
//!
//! The probes time each layer from outside, on fixed shapes, and record a
//! span around every call (µs-scale calls are timed and spanned in
//! batches). They name no type an open ROADMAP item plans to delete: the
//! int8 networks come from `ModelArtifact::quantize(..).build_network()`
//! and the masked executors are reached only through `forward_measured`.

use crate::models::{
    fp32_artifact, int8_twin, start_registry, table1_schedule, Pool, Scratch, IMAGE,
};
use crate::spans::Recorder;
use crate::spec::VGG16_LAYERS;
use crate::stats;
use crate::Metrics;
use antidote_core::trainer::{train, TrainConfig};
use antidote_core::{train_ttd, DynamicPruner, PruneSchedule, TtdConfig};
use antidote_data::{Augmentation, SynthConfig, SynthDataset};
use antidote_http::http1::read_request;
use antidote_http::{InferApiRequest, InferApiResponse};
use antidote_modelfile::ModelArtifact;
use antidote_models::{
    ConvShape, FeatureHook, Network, NoopHook, ResNet, ResNetConfig, TapId, TapInfo, Vgg, VggBlock,
    VggConfig,
};
use antidote_nn::layers::Conv2d;
use antidote_nn::masked::{FeatureMask, MacCounter};
use antidote_nn::{Layer, Mode, Parameter};
use antidote_serve::{BudgetMapper, InferRequest, ServeConfig};
use antidote_tensor::conv::{im2col, ConvGeometry};
use antidote_tensor::linalg::matmul_into;
use antidote_tensor::quant::{gemm_i8, gemm_min_bytes};
use antidote_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Dense reference logits (as bit patterns) for every pool image, from a
/// private replica built from the same `.adm` the server loads, through
/// the same measured forward the engine runs.
pub fn reference_logits(adm: &Path, pool: &Pool) -> Vec<Vec<u32>> {
    let mut replica = ModelArtifact::load(adm)
        .expect("artifact just written loads")
        .build_network();
    pool.tensors
        .iter()
        .map(|image| {
            let input = image
                .reshape(&[1, 3, IMAGE, IMAGE])
                .expect("pool image shape");
            let logits = replica.forward_measured(&input, &mut NoopHook, &mut MacCounter::new());
            logits.data().iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

/// The `train_ttd` workload's dataset: `--seed` drives the samples.
pub fn train_dataset(seed: u64) -> SynthDataset {
    SynthConfig::synth_cifar10()
        .with_samples(24, 8)
        .with_seed(seed)
        .generate()
}

/// What one timed `train_ttd` call produced.
#[derive(Debug)]
pub struct TrainRun {
    pub losses: Vec<f32>,
    /// Divergence rollbacks the supervisor performed (each hides a
    /// non-finite epoch).
    pub recoveries: usize,
    pub final_accuracy: f32,
    pub images_per_epoch: usize,
    pub epoch_s: Vec<f64>,
    /// Wall time from one minibatch's forward to the next one's.
    pub step_ms: Vec<f64>,
}

/// A `Network` that notes when each training forward starts and passes
/// everything through, so `train_ttd` is timed per step from outside.
#[derive(Debug)]
struct StepTimer<'a> {
    inner: &'a mut dyn Network,
    starts: Vec<Instant>,
}

impl Network for StepTimer<'_> {
    fn forward_hooked(&mut self, input: &Tensor, mode: Mode, hook: &mut dyn FeatureHook) -> Tensor {
        if mode.is_train() {
            self.starts.push(Instant::now());
        }
        self.inner.forward_hooked(input, mode, hook)
    }
    fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        self.inner.backward(grad_logits)
    }
    fn forward_measured(
        &mut self,
        input: &Tensor,
        hook: &mut dyn FeatureHook,
        counter: &mut MacCounter,
    ) -> Tensor {
        self.inner.forward_measured(input, hook, counter)
    }
    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.inner.visit_params_mut(visitor);
    }
    fn taps(&self) -> Vec<TapInfo> {
        self.inner.taps()
    }
    fn visit_tap_convs(&self, visitor: &mut dyn FnMut(usize, &Conv2d)) {
        self.inner.visit_tap_convs(visitor);
    }
    fn conv_shapes(&self) -> Vec<ConvShape> {
        self.inner.conv_shapes()
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// `train_ttd` toward the Table I schedule on `vgg_small(32,10,16)` with
/// batch norm, timed per step and per epoch. With a recorder, every
/// epoch is a root span whose children are its steps.
pub fn train_ttd_timed(data: &SynthDataset, epochs: usize, rec: Option<&Recorder>) -> TrainRun {
    let mut net = Vgg::new(
        &mut SmallRng::seed_from_u64(5),
        VggConfig::vgg_small(IMAGE, 10, 16).with_batchnorm(),
    );
    let cfg = TtdConfig::new(table1_schedule(), epochs);
    let mut timer = StepTimer {
        inner: &mut net,
        starts: Vec::new(),
    };
    let outcome = train_ttd(&mut timer, data, &cfg);
    let mut marks = timer.starts;
    marks.push(Instant::now());
    let steps_per_epoch = data.train.len().div_ceil(cfg.train.batch_size);
    let secs = |from: Instant, to: Instant| (to - from).as_secs_f64();
    let epoch_marks: Vec<Instant> = marks.iter().copied().step_by(steps_per_epoch).collect();
    if let Some(rec) = rec {
        for (e, pair) in epoch_marks.windows(2).enumerate() {
            let root = rec.record(
                0,
                e as u64 + 1,
                "train.epoch",
                rec.at(pair[0]),
                rec.at(pair[1]),
            );
            let first = e * steps_per_epoch;
            for step in marks[first..=(first + steps_per_epoch).min(marks.len() - 1)].windows(2) {
                rec.record(
                    root,
                    e as u64 + 1,
                    "train.step",
                    rec.at(step[0]),
                    rec.at(step[1]),
                );
            }
        }
    }
    TrainRun {
        losses: outcome
            .history
            .epochs
            .iter()
            .map(|e| e.train_loss)
            .collect(),
        recoveries: outcome.history.recoveries.len(),
        final_accuracy: outcome.history.final_train_acc(),
        images_per_epoch: data.train.len(),
        epoch_s: epoch_marks.windows(2).map(|p| secs(p[0], p[1])).collect(),
        step_ms: marks.windows(2).map(|p| secs(p[0], p[1]) * 1e3).collect(),
    }
}

/// Keeps the first `keep` share of the channels of every tap, for every
/// item: a fixed mask, so the executor's cost is all that varies.
#[derive(Debug)]
struct KeepFirst(f64);

impl FeatureHook for KeepFirst {
    fn on_feature(
        &mut self,
        tap: TapInfo,
        feature: &Tensor,
        _mode: Mode,
    ) -> Option<Vec<FeatureMask>> {
        if self.0 >= 1.0 {
            return None;
        }
        let kept = (tap.channels as f64 * self.0).round() as usize;
        let channel = (0..tap.channels).map(|c| c < kept).collect();
        let mask = FeatureMask {
            channel: Some(channel),
            spatial: None,
        };
        Some(vec![mask; feature.dims()[0]])
    }
}

/// Deterministic, seed-independent filler in `[-0.5, 0.5)`.
fn filler(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 193 + 7) % 1021) as f32 / 1021.0 - 0.5)
        .collect()
}

fn image(batch: usize) -> Tensor {
    Tensor::from_vec(filler(batch * 3 * IMAGE * IMAGE), &[batch, 3, IMAGE, IMAGE])
        .expect("image shape")
}

struct Probes<'a> {
    rec: &'a Recorder,
    /// Share of the full iteration counts to run (`--seconds` over the
    /// default run length).
    scale: f64,
    out: Metrics,
}

impl Probes<'_> {
    fn iters(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(1)
    }

    /// Median milliseconds of `full` spanned calls of `f`.
    fn ms(&self, span: &str, full: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..self.iters(full))
            .map(|_| self.rec.time(span, &mut f).1 * 1e3)
            .collect();
        stats::median(&samples)
    }

    /// Median microseconds per call over `full` spanned batches of
    /// `per_batch` calls.
    fn us(&self, span: &str, full: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..self.iters(full))
            .map(|_| {
                self.rec.time(span, || (0..per_batch).for_each(|_| f())).1 * 1e6 / per_batch as f64
            })
            .collect();
        stats::median(&samples)
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.out.insert(name.into(), value);
    }

    fn tensor(&mut self) {
        // The VGG block-3 conv at 28×28 as a GEMM: Cout × Cin·K·K × H·W.
        let (m, k, n) = (256, 2304, 784);
        let (a, b) = (filler(m * k), filler(k * n));
        let mut c = vec![0f32; m * n];
        let v = self.ms("tensor.gemm_f32", 7, || {
            matmul_into(black_box(&a), black_box(&b), &mut c, m, k, n)
        });
        self.set("tensor.gemm_f32_ms", v);
        let to_i8 = |v: &[f32]| v.iter().map(|x| (x * 254.0) as i8).collect::<Vec<i8>>();
        let (a8, b8) = (to_i8(&a), to_i8(&b));
        let mut c32 = vec![0i32; m * n];
        let v = self.ms("tensor.gemm_i8", 7, || {
            gemm_i8(black_box(&a8), black_box(&b8), &mut c32, m, k, n)
        });
        self.set("tensor.gemm_i8_ms", v);
        self.set("tensor.gemm_i8_bytes", gemm_min_bytes(m, k, n, 1) as f64);
        let input = filler(256 * 28 * 28);
        let mut cols = vec![0f32; k * n];
        let geom = ConvGeometry::new(3, 1, 1);
        let v = self.ms("tensor.im2col", 7, || {
            im2col(black_box(&input), 256, 28, 28, geom, &mut cols)
        });
        self.set("tensor.im2col_ms", v);
        black_box((&c, &c32, &cols));
    }

    fn par(&mut self) {
        let width = antidote_par::current_threads();
        let v = self.us("par.fanout", 7, 500, || {
            antidote_par::run_scoped(
                (0..width)
                    .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
                    .collect(),
            );
        });
        self.set("par.fanout_us", v);
    }

    fn nn(&mut self) {
        // One block whose second conv is 256→256 on 8×8 (37.7 MMACs); the
        // 3→256 stem in front of it is 1 % of that.
        let config = VggConfig {
            blocks: vec![VggBlock {
                layers: 2,
                channels: 256,
            }],
            input_channels: 3,
            input_size: 8,
            classes: 10,
            batchnorm: false,
        };
        let fp32 = fp32_artifact(config);
        let input = Tensor::from_vec(filler(3 * 8 * 8), &[1, 3, 8, 8]).expect("block input shape");
        let mut ms = [[0.0; 3]; 2];
        for (d, (prefix, mut net)) in [
            ("block256", fp32.build_network()),
            ("qblock256", int8_twin(&fp32).build_network()),
        ]
        .into_iter()
        .enumerate()
        {
            for (k, keep) in [100usize, 50, 10].into_iter().enumerate() {
                let span = format!("nn.{prefix}_keep{keep}");
                ms[d][k] = self.ms(&span, 9, || {
                    let mut hook = KeepFirst(keep as f64 / 100.0);
                    black_box(net.forward_measured(&input, &mut hook, &mut MacCounter::new()));
                });
                self.set(format!("{span}_ms"), ms[d][k]);
            }
        }
        self.set("nn.skip_efficiency", ms[0][0] / ms[0][1] / 2.0);

        let mut conv = Conv2d::new(&mut SmallRng::seed_from_u64(3), 256, 256, 3, 1, 1);
        let x =
            Tensor::from_vec(filler(8 * 256 * 8 * 8), &[8, 256, 8, 8]).expect("conv input shape");
        let grad =
            Tensor::from_vec(filler(8 * 256 * 8 * 8), &[8, 256, 8, 8]).expect("conv grad shape");
        // backward consumes what forward(Train) cached, so they alternate.
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        for _ in 0..self.iters(9) {
            fwd.push(
                self.rec
                    .time("nn.conv2d_fwd", || black_box(conv.forward(&x, Mode::Train)))
                    .1
                    * 1e3,
            );
            bwd.push(
                self.rec
                    .time("nn.conv2d_bwd", || black_box(conv.backward(&grad)))
                    .1
                    * 1e3,
            );
        }
        self.set("nn.conv2d_fwd_ms", stats::median(&fwd));
        self.set("nn.conv2d_bwd_ms", stats::median(&bwd));
    }

    fn core(&mut self) {
        let tap = TapInfo {
            id: TapId(0),
            block: 0,
            channels: 256,
            spatial: 8,
        };
        let feature = Tensor::from_vec(filler(256 * 8 * 8), &[1, 256, 8, 8]).expect("tap shape");
        let mut pruner = DynamicPruner::new(PruneSchedule::channel_only(vec![0.5]));
        let mut kept = Vec::new();
        let v = self.us("core.pruner_tap", 7, 50, || {
            let masks = pruner
                .on_feature(tap, &feature, Mode::Eval)
                .expect("a 0.5 schedule masks");
            kept.push(masks[0].channel_keep_fraction());
        });
        self.set("core.pruner_tap_us", v);
        self.set("core.keep_frac_mean", stats::mean(&kept));

        // One epoch of targeted-dropout training over one plain epoch,
        // same data, fresh networks.
        let data = SynthConfig::synth_cifar10().with_samples(4, 1).generate();
        let fresh = || {
            Vgg::new(
                &mut SmallRng::seed_from_u64(5),
                VggConfig::vgg_small(IMAGE, 10, 16).with_batchnorm(),
            )
        };
        let ttd = self.ms("core.ttd_epoch", 3, || {
            let cfg = TtdConfig::new(table1_schedule(), 1).without_ascent();
            black_box(train_ttd(&mut fresh(), &data, &cfg));
        });
        let plain = self.ms("core.plain_epoch", 3, || {
            let cfg = TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            };
            black_box(train(&mut fresh(), &data, &mut NoopHook, &cfg));
        });
        self.set("core.ttd_overhead_ratio", ttd / plain);
    }

    fn gemm_dense(&mut self, name: &str, net: &mut dyn Network, iters: usize) -> f64 {
        let input = image(1);
        let v = self.ms(&format!("models.{name}.gemm_dense"), iters, || {
            black_box(net.forward(&input, Mode::Eval));
        });
        self.set(format!("models.{name}.gemm_dense_ms"), v);
        v
    }

    fn measured_dense(&mut self, name: &str, net: &mut dyn Network, iters: usize) {
        let input = image(1);
        let v = self.ms(&format!("models.{name}.measured_dense"), iters, || {
            black_box(net.forward_measured(&input, &mut NoopHook, &mut MacCounter::new()));
        });
        self.set(format!("models.{name}.measured_dense_ms"), v);
    }

    fn measured_table1(
        &mut self,
        name: &str,
        net: &mut dyn Network,
        schedule: &PruneSchedule,
        iters: usize,
    ) -> f64 {
        let input = image(1);
        let mut macs = 0;
        let v = self.ms(&format!("models.{name}.measured_table1"), iters, || {
            let mut counter = MacCounter::new();
            let mut pruner = DynamicPruner::new(schedule.clone());
            black_box(net.forward_measured(&input, &mut pruner, &mut counter));
            macs = counter.total();
        });
        self.set(format!("models.{name}.measured_table1_ms"), v);
        self.set(format!("models.{name}.table1_macs"), macs as f64);
        v
    }

    fn modelfile_and_models(&mut self, dir: &Path) {
        let path = dir.join("vgg16.adm");
        fp32_artifact(VggConfig::vgg16(IMAGE, 10))
            .save(&path)
            .expect("scratch directory is writable");
        let bytes = std::fs::metadata(&path)
            .expect("artifact just written")
            .len() as f64;
        let mut artifact = None;
        let load_ms = self.ms("modelfile.load", 3, || {
            artifact = Some(ModelArtifact::load(&path).expect("artifact just written loads"));
        });
        let artifact = artifact.expect("at least one load ran");
        let mut vgg16 = None;
        let build_ms = self.ms("modelfile.build_network", 3, || {
            vgg16 = Some(artifact.build_network())
        });
        let mut vgg16 = vgg16.expect("at least one build ran");
        drop(artifact);
        self.set("modelfile.load_ms", load_ms);
        self.set("modelfile.load_mb_per_s", bytes / 1e6 / (load_ms / 1e3));
        self.set("modelfile.build_network_ms", build_ms);
        self.set("modelfile.file_bytes", bytes);

        let table1 = table1_schedule();
        let gemm_dense = self.gemm_dense("vgg16", vgg16.as_mut(), 3);
        self.measured_dense("vgg16", vgg16.as_mut(), 3);
        // The per-layer split is read from the program's own `fwd.layerNN`
        // spans, so only the Table I forwards run between reset and
        // snapshot. A span the program no longer emits leaves its metric
        // at 0.
        antidote_obs::reset();
        let table1_ms = self.measured_table1("vgg16", vgg16.as_mut(), &table1, 3);
        let snapshot = antidote_obs::snapshot();
        drop(vgg16);
        self.set("models.vgg16.pruning_payoff", gemm_dense / table1_ms);
        for layer in 0..VGG16_LAYERS {
            if let Some(span) = snapshot.span(&format!("fwd.layer{layer:02}")) {
                let mean_ms = span.total_ns as f64 / span.count.max(1) as f64 / 1e6;
                self.set(format!("models.vgg16.layer{:02}_ms", layer + 1), mean_ms);
            }
        }

        let small = fp32_artifact(VggConfig::vgg_small(IMAGE, 10, 16));
        let mut net = small.build_network();
        self.gemm_dense("vgg_small", net.as_mut(), 15);
        self.measured_dense("vgg_small", net.as_mut(), 15);
        self.measured_table1("vgg_small", net.as_mut(), &table1, 15);
        let mut net = int8_twin(&small).build_network();
        self.measured_dense("qvgg_small", net.as_mut(), 15);
        self.measured_table1("qvgg_small", net.as_mut(), &table1, 15);
        let mut resnet = ResNet::new(
            &mut SmallRng::seed_from_u64(11),
            ResNetConfig::resnet56(IMAGE, 10),
        );
        let resnet_table1 = PruneSchedule::new(vec![0.3, 0.3, 0.6], vec![0.6, 0.6, 0.6]);
        self.gemm_dense("resnet56", &mut resnet, 3);
        self.measured_dense("resnet56", &mut resnet, 3);
        self.measured_table1("resnet56", &mut resnet, &resnet_table1, 3);
    }

    fn serve(&mut self, dir: &Path, pool: &Pool) {
        let small = Vgg::new(
            &mut SmallRng::seed_from_u64(5),
            VggConfig::vgg_small(IMAGE, 10, 16),
        );
        let mapper = BudgetMapper::new(small.conv_shapes(), small.taps(), table1_schedule());
        let budget = (mapper.floor_macs() + mapper.dense_macs()) / 2.0;
        let v = self.us("serve.plan", 7, 100, || {
            black_box(
                mapper
                    .plan(Some(black_box(budget)))
                    .expect("a mid-range budget is feasible"),
            );
        });
        self.set("serve.plan_us", v);

        // Admission alone: the submit call is timed, the wait is not.
        fp32_artifact(VggConfig::vgg_tiny(IMAGE, 4))
            .save(dir.join("tiny.adm"))
            .expect("scratch directory is writable");
        let registry = start_registry(dir, |pinned| ServeConfig {
            max_batch: 1,
            ..pinned.clone()
        });
        let handle = registry
            .route(Some("tiny"))
            .expect("tiny.adm registers as `tiny`")
            .handle()
            .clone();
        let mut samples = Vec::new();
        for i in 0..self.iters(300) {
            let request = InferRequest::new(pool.tensors[i % pool.tensors.len()].clone());
            let (pending, s) = self.rec.time("serve.submit", || handle.submit(request));
            samples.push(s * 1e6);
            pending
                .expect("an idle engine admits")
                .wait()
                .expect("an idle engine answers");
        }
        self.set("serve.submit_us", stats::median(&samples));
        registry.drain();
    }

    fn http(&mut self, pool: &Pool) {
        let body = format!(
            "{{\"model\":\"tiny\",\"input\":{},\"shape\":[3,{IMAGE},{IMAGE}]}}",
            pool.json[0]
        );
        let request = format!(
            "POST /v1/infer HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        // A loopback pair; the whole request fits the socket buffer, so
        // it is written before the timed read starts.
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
        let mut client = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("loopback connects");
        let (server, _) = listener.accept().expect("loopback accepts");
        let mut samples = Vec::new();
        for _ in 0..self.iters(200) {
            client
                .write_all(request.as_bytes())
                .expect("loopback write");
            let deadline = Instant::now() + Duration::from_secs(5);
            let (parsed, s) = self.rec.time("http.read_request", || {
                read_request(&server, deadline, 4 << 20)
            });
            assert_eq!(
                parsed.expect("a well-formed request parses").body.len(),
                body.len()
            );
            samples.push(s * 1e6);
        }
        self.set("http.read_request_us", stats::median(&samples));

        let v = self.us("http.json_decode", 7, 20, || {
            black_box(
                serde_json::from_str::<InferApiRequest>(black_box(&body))
                    .expect("request body decodes"),
            );
        });
        self.set("http.json_decode_us", v);
        let response = InferApiResponse {
            model: "vgg-small-fp32".to_string(),
            class: 3,
            logits: filler(10),
            budget_macs: Some(1.5e6),
            achieved_macs: 1.4e6,
            schedule_scale: 0.5,
            degraded: false,
            priority: "standard".to_string(),
            batch_size: 4,
            queue_wait_ms: 1.25,
            latency_ms: 4.5,
            trace_id: None,
        };
        let v = self.us("http.json_encode", 7, 200, || {
            black_box(serde_json::to_string(black_box(&response)).expect("response encodes"));
        });
        self.set("http.json_encode_us", v);
    }

    fn data(&mut self) {
        let config = SynthConfig::synth_cifar10().with_samples(24, 8);
        let mut dataset = None;
        let v = self.ms("data.synth_generate", 5, || {
            dataset = Some(config.generate())
        });
        self.set("data.synth_generate_ms", v);
        let batch = image(32);
        let mut augment = Augmentation::paper_default(IMAGE, 1);
        let v = self.us("data.augment", 7, 4, || {
            black_box(augment.apply(&batch));
        });
        self.set("data.augment_us_per_image", v / 32.0);
        black_box(dataset);
    }
}

/// Runs every layer probe; `scale` is the share of the full iteration
/// counts (1.0 at the default run length).
pub fn run_probes(rec: &Recorder, scale: f64, scratch: &Scratch, pool: &Pool) -> Metrics {
    let mut probes = Probes {
        rec,
        scale,
        out: Metrics::new(),
    };
    probes.tensor();
    probes.par();
    probes.nn();
    probes.core();
    probes.modelfile_and_models(&scratch.dir("probe-vgg16"));
    probes.serve(&scratch.dir("probe-tiny"), pool);
    probes.http(pool);
    probes.data();
    probes.out
}
