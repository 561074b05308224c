//! The [`Layer`] trait — the unit of composition for every network in the
//! workspace.

use crate::Parameter;
use antidote_tensor::Tensor;

/// Whether a forward pass is part of training (caches activations for the
/// backward pass, enables dropout/batch-norm batch statistics) or pure
/// inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: layers cache what `backward` needs and stochastic layers
    /// (dropout) are active.
    Train,
    /// Inference: no caching, deterministic behaviour.
    #[default]
    Eval,
}

impl Mode {
    /// `true` in training mode.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward(Mode::Train)` caches whatever the
/// subsequent `backward` call needs, and `backward` accumulates parameter
/// gradients and returns the gradient with respect to the layer input.
///
/// The trait is object-safe, so layers can be driven as `&mut dyn Layer`
/// (the networks themselves hold a closed enum of concrete layers, the
/// op list); parameter traversal uses a visitor rather than returning
/// borrows to keep it that way.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the last `forward` output in
    /// `Train` mode) back to the input, accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding
    /// `forward(…, Mode::Train)`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every trainable parameter (weights first, then biases, in a
    /// stable order). Layers without parameters use the default no-op.
    fn visit_params_mut(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}

    /// Short human-readable layer description, e.g. `conv3x3(16->32)`.
    fn describe(&self) -> String;

    /// Total trainable scalar count (default: derived via the visitor).
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params_mut(&mut |p| n += p.len());
        n
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Identity;

    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn describe(&self) -> String {
            "identity".into()
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn Layer> = Box::new(Identity);
        let x = Tensor::ones([2, 2]);
        assert_eq!(boxed.forward(&x, Mode::Eval).data(), x.data());
        assert_eq!(boxed.param_count(), 0);
    }

    #[test]
    fn mode_default_is_eval() {
        assert_eq!(Mode::default(), Mode::Eval);
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }
}
