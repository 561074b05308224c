//! Per-request compute budgets → per-input pruning schedules.
//!
//! A serving request may carry a FLOPs (MAC) budget. The engine maps it
//! to the *least aggressive* scaling of a base [`PruneSchedule`] whose
//! analytic cost fits the budget — maximizing retained accuracy subject
//! to the compute constraint. The cost is the one MAC charge of
//! [`antidote_core::flops::layer_macs`] (what
//! [`antidote_core::flops::analytic_flops`] runs), fed the keep fractions
//! the pruner's masks will actually realize rather than the schedule's:
//!
//! 1. **Quantization.** The top-k binarization keeps `k = round(p·n)`
//!    components (Eq. 3/4), so the effective keep fraction at a tap with
//!    `n` components is `round(p·n)/n`, not `p`
//!    ([`antidote_core::mask::topk_count`]).
//! 2. **Per-tap evaluation.** Fractions are resolved per tap (from
//!    [`TapInfo::channels`]/[`TapInfo::spatial`]), then charged to the
//!    next conv layer.
//!
//! After the forward pass, the same charge over the fractions the
//! pruner recorded is each response's achieved cost.
//!
//! Budgets below the cost floor of the fully applied base schedule are a
//! typed [`BudgetError::Infeasible`] — the engine rejects such requests
//! at admission instead of silently over-spending.

use antidote_core::flops::layer_macs;
use antidote_core::mask::topk_count;
use antidote_core::PruneSchedule;
use antidote_models::{ConvShape, TapInfo};

/// Why a request's budget could not be planned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetError {
    /// The budget is NaN, infinite, or non-positive.
    Invalid {
        /// The offending budget value (MACs).
        budget: f64,
    },
    /// The budget is below the cheapest operating point the base
    /// schedule allows.
    Infeasible {
        /// The requested budget (MACs).
        budget: f64,
        /// The minimum achievable cost under the base schedule (MACs).
        floor: f64,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Invalid { budget } => {
                write!(f, "budget {budget} MACs is not a positive finite number")
            }
            BudgetError::Infeasible { budget, floor } => write!(
                f,
                "budget {budget:.3e} MACs is below the schedule floor {floor:.3e} MACs"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// The resolved operating point for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPlan {
    /// The schedule the pruner will apply for this request.
    pub schedule: PruneSchedule,
    /// Predicted cost of that schedule under the quantized analytic
    /// model (MACs per image). Equals the achieved cost of the emitted
    /// masks, because top-k keeps exactly `round(p·n)` components.
    pub predicted_macs: f64,
    /// The scale factor applied to the base schedule's prune ratios
    /// (0.0 = dense, 1.0 = full base schedule).
    pub scale: f64,
}

/// Maps FLOPs budgets to schedules for one model architecture.
#[derive(Debug, Clone)]
pub struct BudgetMapper {
    shapes: Vec<ConvShape>,
    taps: Vec<TapInfo>,
    base: PruneSchedule,
    dense_macs: f64,
    floor_macs: f64,
}

impl BudgetMapper {
    /// Builds a mapper from a model's conv shapes and taps plus the most
    /// aggressive schedule the operator allows.
    ///
    /// # Panics
    ///
    /// Panics if `taps` does not line up with the prunable outputs in
    /// `shapes` (count or channel mismatch) — that indicates the caller
    /// paired shapes and taps from different models.
    pub fn new(shapes: Vec<ConvShape>, taps: Vec<TapInfo>, base: PruneSchedule) -> Self {
        let prunable = shapes.iter().filter(|s| s.prunable_output);
        assert_eq!(
            prunable.clone().count(),
            taps.len(),
            "model's prunable conv outputs and taps disagree in number"
        );
        for (t, (shape, tap)) in prunable.zip(&taps).enumerate() {
            assert_eq!(
                tap.channels, shape.out_channels,
                "tap {t} channel count disagrees with its conv layer"
            );
        }
        let mut mapper = Self {
            shapes,
            taps,
            base,
            dense_macs: 0.0,
            floor_macs: 0.0,
        };
        mapper.dense_macs = mapper.macs_at_scale(0.0);
        mapper.floor_macs = mapper.macs_at_scale(1.0);
        mapper
    }

    /// Cost of running one image dense (no pruning), MACs.
    pub fn dense_macs(&self) -> f64 {
        self.dense_macs
    }

    /// Cheapest operating point under the base schedule, MACs.
    pub fn floor_macs(&self) -> f64 {
        self.floor_macs
    }

    /// The most aggressive schedule this mapper will scale within.
    pub fn base_schedule(&self) -> &PruneSchedule {
        &self.base
    }

    /// MACs per image when tap `t` keeps `keep(t)`: the [`layer_macs`]
    /// charge, summed in layer order.
    fn charge(&self, mut keep: impl FnMut(usize) -> (f64, f64)) -> f64 {
        layer_macs(&self.shapes, |t, _| keep(t)).fold(0.0, |total, m| total + m)
    }

    /// Analytic MACs per image given the keep fractions realized per tap
    /// (indexed by tap order, as [`DynamicPruner::keep_fractions`]
    /// records them; a missing tap counts as dense).
    ///
    /// [`DynamicPruner::keep_fractions`]: antidote_core::DynamicPruner::keep_fractions
    pub fn macs_from_fractions(&self, per_tap: &[(f64, f64)]) -> f64 {
        self.charge(|t| per_tap.get(t).copied().unwrap_or((1.0, 1.0)))
    }

    /// MACs per image under `base` scaled by `scale`, at the keep
    /// fractions top-k realizes: `round(p·n)/n` per tap. The keep
    /// fraction is [`PruneSchedule::scaled`]'s arithmetic read per tap,
    /// so the bisection in [`BudgetMapper::plan`] allocates nothing.
    fn macs_at_scale(&self, scale: f64) -> f64 {
        let keep = |ratios: &[f64], block: usize| {
            1.0 - ratios.get(block).map_or(0.0, |&r| (r * scale).clamp(0.0, 1.0))
        };
        self.charge(|t| {
            let tap = &self.taps[t];
            let plane = tap.spatial * tap.spatial;
            (
                topk_count(keep(self.base.channel_prune(), tap.block), tap.channels).1,
                topk_count(keep(self.base.spatial_prune(), tap.block), plane).1,
            )
        })
    }

    /// The operating point at an explicit prune-ratio scale, bypassing
    /// budget search. Used by the load shedder: under queue pressure the
    /// engine degrades admitted requests to at least this scale (cheaper
    /// MACs) instead of rejecting them. `scale` is clamped to `[0, 1]`.
    pub fn plan_at_scale(&self, scale: f64) -> BudgetPlan {
        let scale = if scale.is_finite() { scale.clamp(0.0, 1.0) } else { 1.0 };
        BudgetPlan {
            schedule: self.base.scaled(scale),
            predicted_macs: self.macs_at_scale(scale),
            scale,
        }
    }

    /// Resolves a budget to an operating point.
    ///
    /// `None` means "no budget": the request runs dense. A finite budget
    /// binary-searches the smallest prune-ratio scale whose quantized
    /// analytic cost fits, so the returned plan never exceeds the budget
    /// and prunes no more than necessary.
    ///
    /// # Errors
    ///
    /// [`BudgetError::Invalid`] for non-positive/non-finite budgets;
    /// [`BudgetError::Infeasible`] for budgets below
    /// [`BudgetMapper::floor_macs`].
    pub fn plan(&self, budget: Option<f64>) -> Result<BudgetPlan, BudgetError> {
        let Some(budget) = budget else {
            return Ok(BudgetPlan {
                schedule: PruneSchedule::none(),
                predicted_macs: self.dense_macs,
                scale: 0.0,
            });
        };
        if !budget.is_finite() || budget <= 0.0 {
            return Err(BudgetError::Invalid { budget });
        }
        if budget >= self.dense_macs {
            return Ok(BudgetPlan {
                schedule: PruneSchedule::none(),
                predicted_macs: self.dense_macs,
                scale: 0.0,
            });
        }
        if budget < self.floor_macs {
            return Err(BudgetError::Infeasible {
                budget,
                floor: self.floor_macs,
            });
        }
        // macs_at_scale is non-increasing in the scale, so bisect for the
        // smallest feasible scale. `hi` is feasible throughout (the floor
        // check above seeds the invariant).
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if self.macs_at_scale(mid) <= budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let schedule = self.base.scaled(hi);
        let predicted_macs = self.macs_at_scale(hi);
        debug_assert!(predicted_macs <= budget);
        Ok(BudgetPlan {
            schedule,
            predicted_macs,
            scale: hi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_models::{Network, Vgg, VggConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mapper(base: PruneSchedule) -> BudgetMapper {
        let cfg = VggConfig::vgg_tiny(16, 4);
        let net = Vgg::new(&mut SmallRng::seed_from_u64(0), cfg.clone());
        BudgetMapper::new(cfg.conv_shapes(), net.taps(), base)
    }

    #[test]
    fn no_budget_runs_dense() {
        let m = mapper(PruneSchedule::channel_only(vec![0.9, 0.9]));
        let plan = m.plan(None).unwrap();
        assert!(plan.schedule.is_noop());
        assert_eq!(plan.predicted_macs, m.dense_macs());
        assert_eq!(plan.scale, 0.0);
    }

    #[test]
    fn generous_budget_runs_dense() {
        let m = mapper(PruneSchedule::channel_only(vec![0.9, 0.9]));
        let plan = m.plan(Some(m.dense_macs() * 2.0)).unwrap();
        assert!(plan.schedule.is_noop());
    }

    #[test]
    fn invalid_budgets_are_typed() {
        let m = mapper(PruneSchedule::channel_only(vec![0.9, 0.9]));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                m.plan(Some(bad)),
                Err(BudgetError::Invalid { .. })
            ));
        }
    }

    #[test]
    fn budget_below_floor_is_infeasible() {
        let m = mapper(PruneSchedule::channel_only(vec![0.5, 0.5]));
        assert!(m.floor_macs() > 0.0);
        let err = m.plan(Some(m.floor_macs() * 0.5)).unwrap_err();
        match err {
            BudgetError::Infeasible { floor, .. } => {
                assert!((floor - m.floor_macs()).abs() < 1e-6);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        assert!(err.to_string().contains("below the schedule floor"));
    }

    #[test]
    fn plans_fit_budget_and_prune_minimally() {
        let m = mapper(PruneSchedule::new(vec![0.9, 0.9], vec![0.5, 0.5]));
        let mut last_scale = -0.1;
        for frac in [0.95, 0.8, 0.6, 0.2] {
            // Interpolate strictly between the schedule floor and dense so
            // every budget is feasible regardless of model proportions.
            let budget = m.floor_macs() + frac * (m.dense_macs() - m.floor_macs());
            let plan = m.plan(Some(budget)).unwrap();
            assert!(
                plan.predicted_macs <= budget,
                "predicted {} exceeds budget {budget}",
                plan.predicted_macs
            );
            assert!(
                plan.scale >= last_scale - 1e-9,
                "tighter budgets must prune at least as aggressively"
            );
            last_scale = plan.scale;
        }
    }

    #[test]
    fn prediction_matches_quantized_fractions() {
        let m = mapper(PruneSchedule::channel_only(vec![0.7, 0.7]));
        let budget = m.floor_macs() + 0.5 * (m.dense_macs() - m.floor_macs());
        let plan = m.plan(Some(budget)).unwrap();
        // The fractions top-k realizes are whole counts over each tap...
        let fr: Vec<(f64, f64)> = m
            .taps
            .iter()
            .map(|tap| {
                let (k, ck) = topk_count(plan.schedule.channel_keep(tap.block), tap.channels);
                assert_eq!(ck, k as f64 / tap.channels as f64);
                (ck, 1.0)
            })
            .collect();
        // ...and charged, they give the plan's prediction bit for bit.
        assert_eq!(m.macs_from_fractions(&fr), plan.predicted_macs);
    }

    #[test]
    fn plan_at_scale_clamps_and_matches_endpoints() {
        let m = mapper(PruneSchedule::channel_only(vec![0.5, 0.5]));
        assert_eq!(m.plan_at_scale(0.0).predicted_macs, m.dense_macs());
        assert_eq!(m.plan_at_scale(1.0).predicted_macs, m.floor_macs());
        // Out-of-range and non-finite scales clamp to the floor end.
        assert_eq!(m.plan_at_scale(7.0).scale, 1.0);
        assert_eq!(m.plan_at_scale(-3.0).scale, 0.0);
        assert_eq!(m.plan_at_scale(f64::NAN).scale, 1.0);
        let mid = m.plan_at_scale(0.5);
        assert!(mid.predicted_macs <= m.dense_macs());
        assert!(mid.predicted_macs >= m.floor_macs());
    }

    #[test]
    fn monotone_cost_in_scale() {
        let m = mapper(PruneSchedule::new(vec![0.8, 0.8], vec![0.6, 0.6]));
        let mut prev = f64::INFINITY;
        for i in 0..=20 {
            let macs = m.macs_at_scale(i as f64 / 20.0);
            assert!(macs <= prev + 1e-9, "cost must not increase with scale");
            prev = macs;
        }
        assert!((m.macs_at_scale(0.0) - m.dense_macs()).abs() < 1e-9);
        assert!((m.macs_at_scale(1.0) - m.floor_macs()).abs() < 1e-9);
    }
}
