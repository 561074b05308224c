//! Output verification inside every run.
//!
//! Dense-tier responses must match the private replica's logits bit for
//! bit; budgeted responses must respect their budget, report the argmax
//! of their own logits, and repeat bit-identically when the same model,
//! input and tier recur. A degraded response (overload moved it to a
//! cheaper schedule) is exempt from the two logits comparisons.

use crate::models::Tier;
use std::collections::HashMap;

/// What one successful response claimed.
#[derive(Debug, Clone, Copy)]
pub struct Observed<'a> {
    pub model: usize,
    pub input: usize,
    pub tier: Tier,
    pub logits: &'a [f32],
    pub class: usize,
    pub budget: Option<f64>,
    pub achieved_macs: f64,
    pub degraded: bool,
}

/// Dense reference logits (bit patterns) per model, per pool image.
#[derive(Debug, Clone, Default)]
pub struct References(pub Vec<Vec<Vec<u32>>>);

/// One client's checker: the shared references plus the first logits it
/// saw for each (model, input, tier).
#[derive(Debug)]
pub struct Checker<'r> {
    refs: &'r References,
    seen: HashMap<(usize, usize, Tier), Vec<u32>>,
}

impl<'r> Checker<'r> {
    pub fn new(refs: &'r References) -> Self {
        Self {
            refs,
            seen: HashMap::new(),
        }
    }

    /// `Err` names the violated rule.
    pub fn check(&mut self, o: &Observed<'_>) -> Result<(), String> {
        let bits: Vec<u32> = o.logits.iter().map(|v| v.to_bits()).collect();
        if o.logits.iter().any(|v| !v.is_finite()) {
            return Err(format!("non-finite logits on input {}", o.input));
        }
        let argmax = o
            .logits
            .iter()
            .enumerate()
            .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
                if v > best.1 {
                    (i, v)
                } else {
                    best
                }
            })
            .0;
        if o.class != argmax {
            return Err(format!(
                "class {} is not argmax {argmax} on input {}",
                o.class, o.input
            ));
        }
        match o.budget {
            Some(budget) if o.achieved_macs > budget => {
                return Err(format!(
                    "achieved {} MACs over budget {budget}",
                    o.achieved_macs
                ));
            }
            None if o.tier != Tier::Dense => {
                return Err(format!("{:?} request came back without its budget", o.tier));
            }
            _ => {}
        }
        if o.degraded {
            return Ok(());
        }
        if o.tier == Tier::Dense && bits != self.refs.0[o.model][o.input] {
            return Err(format!(
                "dense logits differ from the reference on model {} input {}",
                o.model, o.input
            ));
        }
        let first = self
            .seen
            .entry((o.model, o.input, o.tier))
            .or_insert_with(|| bits.clone());
        if *first != bits {
            return Err(format!(
                "logits did not repeat on model {} input {} {:?}",
                o.model, o.input, o.tier
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs() -> References {
        References(vec![vec![vec![1.0f32.to_bits(), 3.0f32.to_bits()]]])
    }

    fn dense(logits: &[f32]) -> Observed<'_> {
        Observed {
            model: 0,
            input: 0,
            tier: Tier::Dense,
            logits,
            class: 1,
            budget: None,
            achieved_macs: 10.0,
            degraded: false,
        }
    }

    #[test]
    fn matching_dense_response_passes_and_corrupted_reference_fails() {
        let good = refs();
        assert!(Checker::new(&good).check(&dense(&[1.0, 3.0])).is_ok());
        let mut bad = refs();
        bad.0[0][0][0] ^= 1;
        assert!(Checker::new(&bad)
            .check(&dense(&[1.0, 3.0]))
            .unwrap_err()
            .contains("reference"));
    }

    #[test]
    fn budget_argmax_and_repeat_rules() {
        let r = refs();
        let mut c = Checker::new(&r);
        let budgeted = |logits, class, achieved| Observed {
            model: 0,
            input: 0,
            tier: Tier::Floor,
            logits,
            class,
            budget: Some(5.0),
            achieved_macs: achieved,
            degraded: false,
        };
        assert!(c.check(&budgeted(&[2.0, 1.0], 0, 5.0)).is_ok());
        assert!(c
            .check(&budgeted(&[2.0, 1.0], 0, 5.5))
            .unwrap_err()
            .contains("over budget"));
        assert!(c
            .check(&budgeted(&[2.0, 1.0], 1, 4.0))
            .unwrap_err()
            .contains("argmax"));
        assert!(c
            .check(&budgeted(&[2.5, 1.0], 0, 4.0))
            .unwrap_err()
            .contains("repeat"));
        // A degraded response may differ from its first sighting.
        let mut degraded = budgeted(&[2.5, 1.0], 0, 4.0);
        degraded.degraded = true;
        assert!(c.check(&degraded).is_ok());
    }
}
