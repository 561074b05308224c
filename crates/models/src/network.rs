//! The [`Network`] trait implemented by every model in the zoo.

use crate::tap::{FeatureHook, NoopHook, TapInfo};
use crate::ConvShape;
use antidote_nn::layers::Conv2d;
use antidote_nn::masked::MacCounter;
use antidote_nn::{Mode, Parameter};
use antidote_tensor::Tensor;

/// A trainable, hookable, dynamically prunable CNN.
///
/// Three forward flavours:
///
/// - [`Network::forward`]: plain inference/training pass;
/// - [`Network::forward_hooked`]: fires the [`FeatureHook`] at every tap
///   and applies returned masks multiplicatively (Eq. 5) — used for TTD
///   training and for accuracy evaluation under dynamic pruning;
/// - [`Network::forward_measured`]: inference that *skips* masked
///   computation via the masked conv executor and returns measured MACs —
///   used for the FLOPs columns of the experiment tables.
///
/// # Threading model
///
/// Every forward flavour takes `&mut self`: layers cache activations for
/// the backward pass even in inference mode, so a single replica cannot
/// serve two threads at once. Concurrent serving therefore uses
/// **clone-per-worker replication** — each worker thread owns a replica
/// cloned from one network (see `antidote-serve`'s `ModelFactory`):
/// clones share the immutable weight buffers and own their activation
/// caches, which keeps replicas bit-identical without sharing mutable
/// state. The trait requires `Send` so replicas can be moved
/// into worker threads, and the concrete models in this crate are also
/// `Sync` (they hold no interior mutability), which the test suite
/// asserts at compile time.
pub trait Network: std::fmt::Debug + Send {
    /// Forward pass with a feature hook at every tap.
    fn forward_hooked(
        &mut self,
        input: &Tensor,
        mode: Mode,
        hook: &mut dyn FeatureHook,
    ) -> Tensor;

    /// Backward pass; must follow a `forward_hooked(…, Mode::Train, …)`.
    /// Returns the gradient w.r.t. the network input.
    fn backward(&mut self, grad_logits: &Tensor) -> Tensor;

    /// Inference pass that executes convolutions through the masked
    /// executor, skipping pruned channels/columns, and accumulates the
    /// MACs actually performed into `counter`.
    fn forward_measured(
        &mut self,
        input: &Tensor,
        hook: &mut dyn FeatureHook,
        counter: &mut MacCounter,
    ) -> Tensor;

    /// Visits every trainable parameter in a stable order.
    fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&mut Parameter));

    /// All taps, in forward order.
    fn taps(&self) -> Vec<TapInfo>;

    /// Visits the convolution layer that *produces* each tapped feature
    /// map, in tap order (`visitor(tap_index, conv)`). Static-pruning
    /// baselines rank filters from these weights and their gradients.
    fn visit_tap_convs(&self, visitor: &mut dyn FnMut(usize, &Conv2d));

    /// Per-conv-layer shapes in forward order (for analytic FLOPs).
    fn conv_shapes(&self) -> Vec<ConvShape>;

    /// Human-readable summary.
    fn describe(&self) -> String;

    /// Plain forward pass (no hook).
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_hooked(input, mode, &mut NoopHook)
    }

    /// Total trainable scalar count.
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
mod thread_safety {
    //! Compile-time audit backing the clone-per-worker threading model:
    //! every model in the zoo must be movable into a worker thread
    //! (`Send`) and shareable behind `&` (`Sync` — no interior
    //! mutability). A regression here (e.g. an `Rc` or `RefCell` slipped
    //! into a layer) fails to compile rather than deadlocking at runtime.

    use crate::{Network, ResNet, ShrunkResNet, ShrunkVgg, Vgg};

    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send + ?Sized>() {}

    #[test]
    fn models_are_send_and_sync() {
        assert_send_sync::<Vgg>();
        assert_send_sync::<ResNet>();
        assert_send_sync::<ShrunkVgg>();
        assert_send_sync::<ShrunkResNet>();
    }

    #[test]
    fn boxed_networks_cross_threads() {
        // The serving engine moves `Box<dyn Network>` replicas into
        // `std::thread` workers; the trait object itself must be `Send`.
        assert_send::<dyn Network>();
        assert_send_sync::<Box<Vgg>>();
    }
}
