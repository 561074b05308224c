//! Optimizers and learning-rate schedules.
//!
//! The paper trains with SGD and cosine learning-rate decay
//! ("we use the cosine learning rate decaying \[17\] (0.1 → 0)"), which is
//! exactly [`Sgd`] plus [`CosineAnnealing`].

use crate::Parameter;
use antidote_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Stochastic gradient descent with momentum and weight decay.
///
/// The optimizer is stateless with respect to the network structure: it
/// keeps one velocity buffer per parameter, matched positionally, so it
/// must always be stepped with the same parameter traversal order.
///
/// # Examples
///
/// ```
/// use antidote_nn::{Parameter, optim::Sgd};
/// use antidote_tensor::Tensor;
///
/// let mut sgd = Sgd::new(0.1).with_momentum(0.9);
/// let mut p = Parameter::new(Tensor::ones([2]));
/// p.grad = Tensor::ones([2]);
/// sgd.begin_step();
/// sgd.update(&mut p);
/// assert!(p.value.data()[0] < 1.0);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocities: Vec<Tensor>,
    cursor: usize,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocities: Vec::new(),
            cursor: 0,
        }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Adds decoupled-style L2 weight decay (added to the gradient).
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (called by schedules between epochs).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr.is_finite() && lr >= 0.0, "learning rate must be >= 0");
        self.lr = lr;
    }

    /// Starts a parameter traversal; must be called once before the
    /// per-parameter [`Sgd::update`] calls of each optimization step.
    pub fn begin_step(&mut self) {
        self.cursor = 0;
    }

    /// Applies one SGD update to `param` using its accumulated gradient.
    /// Parameters must be visited in the same order every step.
    pub fn update(&mut self, param: &mut Parameter) {
        if self.cursor == self.velocities.len() {
            self.velocities
                .push(Tensor::zeros(param.value.dims().to_vec()));
        }
        let v = &mut self.velocities[self.cursor];
        assert_eq!(
            v.dims(),
            param.value.dims(),
            "parameter order changed between optimizer steps"
        );
        self.cursor += 1;
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let vd = v.data_mut();
        let pd = param.value.data_mut();
        let gd = param.grad.data();
        for i in 0..pd.len() {
            let g = gd[i] + wd * pd[i];
            vd[i] = mu * vd[i] + g;
            pd[i] -= lr * vd[i];
        }
    }
}

/// Serializable snapshot of an [`Sgd`] optimizer's full state, including
/// the per-parameter momentum buffers. Capturing and re-loading this
/// around a checkpoint lets a resumed run continue with the exact
/// velocity the interrupted run had, instead of restarting momentum from
/// zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdState {
    /// Learning rate at capture time.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight-decay coefficient.
    pub weight_decay: f32,
    /// Velocity buffers in parameter visit order (empty if the optimizer
    /// has not stepped yet).
    pub velocities: Vec<Tensor>,
}

impl Sgd {
    /// Captures the optimizer's full state (hyper-parameters plus
    /// momentum buffers).
    pub fn export_state(&self) -> SgdState {
        SgdState {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            velocities: self.velocities.clone(),
        }
    }

    /// Restores state captured by [`Sgd::export_state`]. The velocity
    /// buffers are matched positionally on the next [`Sgd::update`]
    /// traversal, which asserts shape agreement per slot.
    pub fn load_state(&mut self, state: &SgdState) {
        self.lr = state.lr;
        self.momentum = state.momentum;
        self.weight_decay = state.weight_decay;
        self.velocities = state.velocities.clone();
        self.cursor = 0;
    }
}

/// A learning-rate schedule mapping `epoch ∈ [0, total)` to a rate.
pub trait LrSchedule: std::fmt::Debug {
    /// Learning rate to use for `epoch`.
    fn lr_at(&self, epoch: usize) -> f32;
}

/// Cosine annealing from `lr_max` to `lr_min` over `total_epochs`
/// (SGDR \[17\] without restarts) — the paper's default schedule.
#[derive(Debug, Clone, Copy)]
pub struct CosineAnnealing {
    /// Initial (maximum) learning rate.
    pub lr_max: f32,
    /// Final (minimum) learning rate.
    pub lr_min: f32,
    /// Schedule length in epochs.
    pub total_epochs: usize,
}

impl CosineAnnealing {
    /// Creates the paper's `0.1 → 0` schedule over `total_epochs`.
    pub fn paper_default(total_epochs: usize) -> Self {
        Self {
            lr_max: 0.1,
            lr_min: 0.0,
            total_epochs,
        }
    }
}

impl LrSchedule for CosineAnnealing {
    fn lr_at(&self, epoch: usize) -> f32 {
        if self.total_epochs <= 1 {
            return self.lr_max;
        }
        let t = (epoch.min(self.total_epochs - 1)) as f32 / (self.total_epochs - 1) as f32;
        self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (1.0 + (std::f32::consts::PI * t).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_descends_quadratic() {
        // minimize f(w) = 0.5 * w^2; grad = w
        let mut p = Parameter::new(Tensor::full([1], 10.0));
        let mut sgd = Sgd::new(0.1);
        for _ in 0..100 {
            p.zero_grad();
            p.grad = p.value.clone();
            sgd.begin_step();
            sgd.update(&mut p);
        }
        assert!(p.value.data()[0].abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |mu: f32| {
            let mut p = Parameter::new(Tensor::full([1], 10.0));
            let mut sgd = Sgd::new(0.01).with_momentum(mu);
            for _ in 0..50 {
                p.zero_grad();
                p.grad = p.value.clone();
                sgd.begin_step();
                sgd.update(&mut p);
            }
            p.value.data()[0].abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Parameter::new(Tensor::full([1], 1.0));
        let mut sgd = Sgd::new(0.1).with_weight_decay(0.5);
        // zero task gradient; only decay acts
        sgd.begin_step();
        sgd.update(&mut p);
        assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn cosine_schedule_endpoints() {
        let s = CosineAnnealing::paper_default(100);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-6);
        assert!(s.lr_at(99) < 1e-6);
        // Monotone decreasing.
        for e in 1..100 {
            assert!(s.lr_at(e) <= s.lr_at(e - 1) + 1e-7);
        }
    }

    #[test]
    fn state_round_trip_preserves_momentum() {
        // Two optimizers: one runs 10 steps straight; the other runs 5,
        // is rebuilt from exported state, then runs 5 more. Identical
        // trajectories prove the momentum buffers survive the round trip.
        let grad_at = |step: usize| ((step as f32 * 0.7).sin() + 1.5) * 0.2;
        let run = |p: &mut Parameter, sgd: &mut Sgd, steps: std::ops::Range<usize>| {
            for s in steps {
                p.zero_grad();
                p.grad = Tensor::full([2], grad_at(s));
                sgd.begin_step();
                sgd.update(p);
            }
        };
        let mut p_straight = Parameter::new(Tensor::full([2], 1.0));
        let mut sgd_straight = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-3);
        run(&mut p_straight, &mut sgd_straight, 0..10);

        let mut p_resumed = Parameter::new(Tensor::full([2], 1.0));
        let mut sgd_a = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-3);
        run(&mut p_resumed, &mut sgd_a, 0..5);
        let state = sgd_a.export_state();
        drop(sgd_a);
        let mut sgd_b = Sgd::new(0.05);
        sgd_b.load_state(&state);
        run(&mut p_resumed, &mut sgd_b, 5..10);

        assert_eq!(p_straight.value.data(), p_resumed.value.data());
        assert_eq!(sgd_straight.export_state(), sgd_b.export_state());
    }

    #[test]
    #[should_panic(expected = "order changed")]
    fn parameter_order_is_enforced() {
        let mut sgd = Sgd::new(0.1);
        let mut a = Parameter::new(Tensor::zeros([2]));
        let mut b = Parameter::new(Tensor::zeros([3]));
        sgd.begin_step();
        sgd.update(&mut a);
        sgd.begin_step();
        sgd.update(&mut b); // shape mismatch at slot 0
    }
}
