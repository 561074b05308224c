//! Degrade-before-shed admission policy.
//!
//! AntiDote's premise is that compute is a runtime knob: the same model
//! serves at a fraction of its dense MACs under a scaled
//! [`antidote_core::PruneSchedule`]. Under overload the right failure
//! mode is therefore *not* an immediate rejection — it is a cheaper
//! schedule. This module encodes that policy as a pure function of
//! queue pressure (depth / capacity, the signal already exported as the
//! engine's `queue_depth` gauge):
//!
//! 1. below `degrade_watermark`: admit unchanged;
//! 2. between the watermarks: admit, but raise the request's schedule
//!    scale toward the floor (ramping linearly with pressure), so the
//!    engine sheds *MACs* before it sheds *requests*;
//! 3. above `shed_watermark`: shed the lowest-priority lanes with a
//!    typed [`crate::ServeError::Overloaded`]. Higher lanes shed at
//!    progressively higher pressure; [`Priority::Interactive`] is never
//!    shed at admission — at a genuinely full queue it displaces queued
//!    lower-priority work instead (see [`crate::queue::SloQueue`]).
//!
//! The watermarks are fractions of queue capacity, set through
//! [`crate::ServeConfig::shed`].

/// Request priority lane. Lower lanes are scheduled first and shed
/// last; within a lane the queue serves earliest deadline first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic. Never shed at admission; a full queue
    /// admits it by displacing lower-priority work.
    Interactive,
    /// The default lane.
    #[default]
    Standard,
    /// Best-effort traffic. First to degrade usefully, first to shed.
    Batch,
}

impl Priority {
    /// Number of lanes, for sizing per-lane structures.
    pub const COUNT: usize = 3;

    /// Queue lane index (0 = most urgent).
    pub fn lane(self) -> usize {
        self as usize
    }

    /// Stable lowercase label for logs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Priority {
    type Err = String;

    /// Parses the lane labels [`Priority::as_str`] emits,
    /// case-insensitively — the HTTP API and config files speak these.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "interactive" => Ok(Priority::Interactive),
            "standard" => Ok(Priority::Standard),
            "batch" => Ok(Priority::Batch),
            other => Err(format!(
                "unknown priority `{other}` (expected interactive|standard|batch)"
            )),
        }
    }
}

/// Watermarks (fractions of queue capacity) driving the
/// degrade-before-shed policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// Pressure at which admission starts degrading requests to cheaper
    /// schedule scales.
    pub degrade_watermark: f64,
    /// Pressure at which the lowest-priority lane starts shedding.
    pub shed_watermark: f64,
}

impl Default for ShedConfig {
    fn default() -> Self {
        Self {
            degrade_watermark: 0.5,
            shed_watermark: 0.85,
        }
    }
}

/// What admission should do with one request at the current pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedDecision {
    /// Admit with the request's own budget plan.
    Admit,
    /// Admit, but enforce at least this schedule scale (0 = dense,
    /// 1 = the base schedule's floor). Requests already pruning harder
    /// than the floor scale are admitted unchanged.
    Degrade(f64),
    /// Reject with a typed `Overloaded` error.
    Shed,
}

impl ShedConfig {
    /// `true` when both watermarks are usable: finite, in `(0, 1]`, and
    /// degrade ≤ shed.
    pub fn is_valid(&self) -> bool {
        let in_range = |v: f64| v.is_finite() && v > 0.0 && v <= 1.0;
        in_range(self.degrade_watermark)
            && in_range(self.shed_watermark)
            && self.degrade_watermark <= self.shed_watermark
    }

    /// Pressure above which `priority` is shed at admission. Lanes shed
    /// from the bottom up: `Batch` at the shed watermark, `Standard`
    /// halfway between it and a full queue, `Interactive` never
    /// (infinity — a full queue handles it by displacement).
    pub fn shed_threshold(&self, priority: Priority) -> f64 {
        let s = self.shed_watermark;
        match priority {
            Priority::Batch => s,
            Priority::Standard => s + 0.5 * (1.0 - s),
            Priority::Interactive => f64::INFINITY,
        }
    }

    /// Resolves the admission decision for one request.
    ///
    /// The degrade scale ramps linearly across the
    /// `[degrade_watermark, shed_watermark]` band and saturates at 1.0
    /// (the base schedule's floor) beyond it.
    pub fn decision(&self, pressure: f64, priority: Priority) -> ShedDecision {
        if pressure >= self.shed_threshold(priority) {
            return ShedDecision::Shed;
        }
        if pressure >= self.degrade_watermark {
            let band = self.shed_watermark - self.degrade_watermark;
            let scale = if band <= f64::EPSILON {
                1.0
            } else {
                ((pressure - self.degrade_watermark) / band).clamp(0.0, 1.0)
            };
            return ShedDecision::Degrade(scale);
        }
        ShedDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_labels() {
        assert_eq!(Priority::Interactive.lane(), 0);
        assert_eq!(Priority::Standard.lane(), 1);
        assert_eq!(Priority::Batch.lane(), 2);
        assert_eq!(Priority::default(), Priority::Standard);
        assert_eq!(Priority::Batch.to_string(), "batch");
        assert!(Priority::COUNT > Priority::Batch.lane());
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        for p in [Priority::Interactive, Priority::Standard, Priority::Batch] {
            assert_eq!(p.as_str().parse::<Priority>(), Ok(p));
            assert_eq!(p.as_str().to_uppercase().parse::<Priority>(), Ok(p));
        }
        assert!("vip".parse::<Priority>().is_err());
    }

    #[test]
    fn default_watermarks_are_valid() {
        assert!(ShedConfig::default().is_valid());
        assert!(!ShedConfig { degrade_watermark: 0.9, shed_watermark: 0.5 }.is_valid());
        assert!(!ShedConfig { degrade_watermark: 0.0, shed_watermark: 0.5 }.is_valid());
        assert!(!ShedConfig { degrade_watermark: 0.5, shed_watermark: 1.5 }.is_valid());
        assert!(!ShedConfig { degrade_watermark: f64::NAN, shed_watermark: 0.9 }.is_valid());
    }

    #[test]
    fn decision_degrades_before_shedding() {
        let cfg = ShedConfig { degrade_watermark: 0.5, shed_watermark: 0.9 };
        assert_eq!(cfg.decision(0.1, Priority::Batch), ShedDecision::Admit);
        // In the band: scale ramps linearly with pressure.
        match cfg.decision(0.7, Priority::Batch) {
            ShedDecision::Degrade(s) => assert!((s - 0.5).abs() < 1e-9),
            other => panic!("expected Degrade, got {other:?}"),
        }
        assert_eq!(cfg.decision(0.95, Priority::Batch), ShedDecision::Shed);
        // Standard lane sheds only above its higher threshold.
        match cfg.decision(0.92, Priority::Standard) {
            ShedDecision::Degrade(s) => assert_eq!(s, 1.0),
            other => panic!("expected saturated Degrade, got {other:?}"),
        }
        assert_eq!(cfg.decision(0.96, Priority::Standard), ShedDecision::Shed);
        // Interactive is never shed at admission, only degraded.
        match cfg.decision(5.0, Priority::Interactive) {
            ShedDecision::Degrade(s) => assert_eq!(s, 1.0),
            other => panic!("expected Degrade, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_band_degrades_fully() {
        let cfg = ShedConfig { degrade_watermark: 0.8, shed_watermark: 0.8 };
        assert!(cfg.is_valid());
        match cfg.decision(0.8, Priority::Interactive) {
            ShedDecision::Degrade(s) => assert_eq!(s, 1.0),
            other => panic!("expected Degrade, got {other:?}"),
        }
        assert_eq!(cfg.decision(0.8, Priority::Batch), ShedDecision::Shed);
    }

    #[test]
    fn thresholds_order_by_priority() {
        let cfg = ShedConfig::default();
        assert!(cfg.shed_threshold(Priority::Batch) < cfg.shed_threshold(Priority::Standard));
        assert!(cfg.shed_threshold(Priority::Standard) < cfg.shed_threshold(Priority::Interactive));
    }
}
