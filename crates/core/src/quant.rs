//! Post-training int8 calibration (ISSUE 5 tentpole).
//!
//! Quantizing a trained network needs one number per activation tensor:
//! the absmax the int8 range `[-127·s, 127·s]` should cover. This
//! module runs a few held-out batches through the *fp32* network, hooks
//! every feature tap, records the observed activation ranges, and turns
//! them into the [`Calibration`] scales that
//! [`antidote_models::Vgg::quantize`] — the `Vgg → Vgg` int8 transform —
//! consumes.
//!
//! Two range estimators are offered:
//!
//! - [`CalibrationMethod::MinMax`] — the plain absmax over everything
//!   seen. Robust default; a single outlier activation widens the range
//!   (and the quantization step) for everyone.
//! - [`CalibrationMethod::Percentile`] — the q-th percentile of the
//!   absolute values, via the workspace-shared
//!   [`antidote_obs::percentile`] (nearest-rank) over a bounded sample
//!   window. Values beyond the chosen percentile saturate, trading rare
//!   clipping for a finer step on the bulk of the distribution.
//!
//! With observability enabled, each tap's per-batch absmax also lands
//! in an obs histogram `quant.calib.tapNN.absmax`, so an obs snapshot
//! shows how stable the calibration was.

use antidote_data::{BatchIter, Split};
use antidote_models::{FeatureHook, Network, TapInfo, Vgg};
use antidote_nn::masked::FeatureMask;
use antidote_nn::Mode;
use antidote_tensor::quant::scale_for_absmax;
use antidote_tensor::Tensor;

/// Cap on retained |activation| samples per tap for the percentile
/// estimator, mirroring the obs histogram window (`HIST_CAP`).
const SAMPLE_CAP: usize = 16_384;

/// How activation ranges are estimated from calibration batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibrationMethod {
    /// Absolute max over all observed activations.
    MinMax,
    /// Nearest-rank percentile (in percent, e.g. `99.9`) of the
    /// absolute activation values; the tail beyond it saturates.
    Percentile(f64),
}

/// Calibrated per-tensor activation scales for int8 quantization.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Int8 scale of the network input tensor.
    pub input_scale: f32,
    /// Int8 scale of each tap's output (post-BN+ReLU map), tap order.
    pub tap_scales: Vec<f32>,
}

/// Per-tap range recorder; a [`FeatureHook`] that never prunes.
#[derive(Debug)]
struct RangeRecorder {
    method: CalibrationMethod,
    /// Per-tap running absmax (MinMax) — indexed by `TapId`.
    absmax: Vec<f32>,
    /// Per-tap bounded |value| sample window (Percentile).
    samples: Vec<Vec<f64>>,
}

impl RangeRecorder {
    fn new(taps: usize, method: CalibrationMethod) -> Self {
        Self {
            method,
            absmax: vec![0.0; taps],
            samples: vec![Vec::new(); taps],
        }
    }

    fn observe(&mut self, idx: usize, data: &[f32]) {
        let mut batch_absmax = 0.0f32;
        for &v in data {
            batch_absmax = batch_absmax.max(v.abs());
        }
        self.absmax[idx] = self.absmax[idx].max(batch_absmax);
        if let CalibrationMethod::Percentile(_) = self.method {
            let window = &mut self.samples[idx];
            // Keep-first sampling: calibration batches are i.i.d., so
            // the first SAMPLE_CAP values are as representative as any.
            let room = SAMPLE_CAP.saturating_sub(window.len());
            window.extend(data.iter().take(room).map(|&v| v.abs() as f64));
        }
        if antidote_obs::enabled() {
            antidote_obs::hist_record(
                &format!("quant.calib.tap{idx:02}.absmax"),
                f64::from(batch_absmax),
            );
        }
    }

    /// Collapses a tap's recorded range to a single absmax estimate.
    fn estimate(&self, idx: usize) -> f32 {
        match self.method {
            CalibrationMethod::MinMax => self.absmax[idx],
            CalibrationMethod::Percentile(q) => {
                let mut sorted = self.samples[idx].clone();
                sorted.sort_by(f64::total_cmp);
                antidote_obs::percentile(&sorted, q) as f32
            }
        }
    }
}

impl FeatureHook for RangeRecorder {
    fn on_feature(
        &mut self,
        tap: TapInfo,
        feature: &Tensor,
        _mode: Mode,
    ) -> Option<Vec<FeatureMask>> {
        self.observe(tap.id.0, feature.data());
        None
    }
}

/// Runs up to `max_batches` of `split` through the fp32 network in eval
/// mode (no pruning) and returns calibrated activation scales.
///
/// # Panics
///
/// Panics if `max_batches == 0`, `batch_size == 0`, or the split is
/// empty — calibration needs at least one batch of data.
pub fn calibrate(
    net: &mut dyn Network,
    split: &Split,
    batch_size: usize,
    max_batches: usize,
    method: CalibrationMethod,
) -> Calibration {
    assert!(max_batches > 0, "need at least one calibration batch");
    assert!(batch_size > 0, "batch_size must be positive");
    let taps = net.taps().len();
    let mut recorder = RangeRecorder::new(taps, method);
    // The input tensor is "tap -1": record it through the same machinery
    // by reserving one extra slot at the end.
    let mut input_recorder = RangeRecorder::new(1, method);
    let mut batches = 0usize;
    for (images, _labels) in BatchIter::new(split, batch_size, None) {
        input_recorder.observe(0, images.data());
        let _ = net.forward_hooked(&images, Mode::Eval, &mut recorder);
        batches += 1;
        if batches >= max_batches {
            break;
        }
    }
    assert!(batches > 0, "calibration split is empty");
    Calibration {
        input_scale: scale_for_absmax(input_recorder.estimate(0)),
        tap_scales: (0..taps)
            .map(|i| scale_for_absmax(recorder.estimate(i)))
            .collect(),
    }
}

/// Convenience: calibrate `vgg` on `split` and return it transformed to
/// int8 (an eval-only [`Vgg`] with quantized convs).
pub fn quantize_vgg(
    vgg: &mut Vgg,
    split: &Split,
    batch_size: usize,
    max_batches: usize,
    method: CalibrationMethod,
) -> Vgg {
    let calib = calibrate(vgg, split, batch_size, max_batches, method);
    vgg.quantize(calib.input_scale, &calib.tap_scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer;
    use antidote_data::SynthConfig;
    use antidote_models::VggConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_setup() -> (Vgg, antidote_data::SynthDataset) {
        let mut rng = SmallRng::seed_from_u64(11);
        let vgg = Vgg::new(&mut rng, VggConfig::vgg_tiny(8, 3));
        let data = SynthConfig::tiny(3, 8).with_samples(8, 8).generate();
        (vgg, data)
    }

    #[test]
    fn minmax_calibration_produces_positive_scales() {
        let (mut vgg, data) = tiny_setup();
        let calib = calibrate(&mut vgg, &data.test, 4, 2, CalibrationMethod::MinMax);
        assert!(calib.input_scale > 0.0);
        assert_eq!(calib.tap_scales.len(), 2);
        assert!(calib.tap_scales.iter().all(|&s| s > 0.0 && s.is_finite()));
    }

    #[test]
    fn percentile_range_is_at_most_minmax_range() {
        let (mut vgg, data) = tiny_setup();
        let minmax = calibrate(&mut vgg, &data.test, 4, 2, CalibrationMethod::MinMax);
        let pct = calibrate(
            &mut vgg,
            &data.test,
            4,
            2,
            CalibrationMethod::Percentile(99.0),
        );
        for (p, m) in pct.tap_scales.iter().zip(&minmax.tap_scales) {
            assert!(
                p <= m,
                "percentile scale {p} must not exceed minmax scale {m}"
            );
        }
    }

    /// The int8 accuracy contract on a *trained* network: through the
    /// measured (masked-executor) path, int8 top-1 stays within 1 point of
    /// fp32 at dense, channel-only and channel+spatial dynamic-pruning
    /// schedules, and both domains count the same MACs.
    ///
    /// Dense and channel-only schedules keep a fixed number of taps
    /// whatever the features, so their counts must be equal. A spatial
    /// mask's cost depends on *which* positions it keeps (border windows
    /// hold fewer taps), and the int8 features it is computed from may
    /// flip a near-tie ranking, so that schedule gets a 1 % band;
    /// identical masks count identical MACs (`nn/tests/quant_equivalence.rs`).
    #[test]
    fn quantize_vgg_round_trip_keeps_accuracy_close() {
        use crate::{DynamicPruner, PruneSchedule};
        let data = SynthConfig::tiny(3, 8).with_samples(40, 100).generate();
        let mut vgg = Vgg::new(&mut SmallRng::seed_from_u64(5), VggConfig::vgg_tiny(8, 3));
        let cfg = trainer::TrainConfig::fast_test();
        trainer::train(&mut vgg, &data, &mut antidote_models::NoopHook, &cfg);
        let mut q = quantize_vgg(&mut vgg, &data.test, 16, 4, CalibrationMethod::MinMax);

        for (name, schedule, mac_tol) in [
            ("dense", PruneSchedule::none(), 0.0),
            (
                "channel-0.3",
                PruneSchedule::channel_only(vec![0.3, 0.3]),
                0.0,
            ),
            (
                "channel-0.5+spatial-0.4",
                PruneSchedule::new(vec![0.5, 0.5], vec![0.4, 0.4]),
                0.01,
            ),
        ] {
            let eval = |net: &mut Vgg| {
                let mut pruner = DynamicPruner::new(schedule.clone());
                trainer::evaluate_measured(net, &data.test, &mut pruner, 16)
            };
            let (fp32_acc, fp32_macs) = eval(&mut vgg);
            let (int8_acc, int8_macs) = eval(&mut q);
            assert!(
                fp32_acc > 0.7,
                "{name}: fp32 net did not train ({fp32_acc})"
            );
            // Compared in whole images, so the 1-point bound is exact.
            let n = data.test.len();
            let flipped = ((fp32_acc - int8_acc).abs() * n as f32).round() as usize;
            assert!(
                flipped * 100 <= n,
                "{name}: int8 acc {int8_acc} strays {flipped}/{n} images from fp32 acc {fp32_acc}"
            );
            assert!(
                (fp32_macs - int8_macs).abs() <= mac_tol * fp32_macs,
                "{name}: measured MACs differ: fp32 {fp32_macs}, int8 {int8_macs}"
            );
        }
    }

    #[test]
    fn measured_macs_match_between_domains() {
        let (mut vgg, data) = tiny_setup();
        let mut q = quantize_vgg(&mut vgg, &data.test, 4, 2, CalibrationMethod::MinMax);
        let (_, fp32_macs) = trainer::evaluate_measured(
            &mut vgg,
            &data.test,
            &mut antidote_models::NoopHook,
            8,
        );
        let (_, int8_macs) =
            trainer::evaluate_measured(&mut q, &data.test, &mut antidote_models::NoopHook, 8);
        assert!((fp32_macs - int8_macs).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one calibration batch")]
    fn zero_batches_panics() {
        let (mut vgg, data) = tiny_setup();
        let _ = calibrate(&mut vgg, &data.test, 4, 0, CalibrationMethod::MinMax);
    }
}
