//! Neural-network layers with explicit forward/backward passes.
//!
//! Layers cache whatever the backward pass needs during `forward`, and expose
//! their parameters through a visitor so optimizers and the federated
//! serialization code can walk them without fighting the borrow checker.
//!
//! `Frozen` wraps any layer and stops gradient updates — the mechanism behind
//! the paper's transfer-learned EfficientNet-B0, whose backbone never trains.

use blockfed_tensor::{matmul, matmul_at, ops, Tensor};
use rand::Rng;

/// A differentiable layer.
pub trait Layer: Send {
    /// Computes the output, caching activations needed by [`Layer::backward`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates the gradient, accumulating parameter gradients internally.
    ///
    /// Must be called after `forward` with `train = true`.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Visits trainable parameters in a fixed order.
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor));

    /// Visits trainable parameters mutably, in the same order as
    /// [`Layer::visit_params`].
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Visits accumulated gradients in the same order as parameters.
    fn visit_grads(&self, f: &mut dyn FnMut(&Tensor));

    /// Visits accumulated gradients mutably, in the same order as
    /// [`Layer::visit_grads`] — how batch-parallel training folds per-shard
    /// gradient snapshots back into the primary model in fixed shard order.
    fn visit_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Clears accumulated gradients.
    fn zero_grads(&mut self);

    /// A short layer name for debugging.
    fn name(&self) -> &'static str;

    /// Clones the layer (parameters included) behind a fresh box — what
    /// [`Sequential::duplicate`] uses to stamp out per-worker scratch models
    /// for parallel combination evaluation.
    ///
    /// [`Sequential::duplicate`]: crate::Sequential::duplicate
    fn box_clone(&self) -> Box<dyn Layer>;

    /// Number of trainable scalars.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }
}

/// A fully connected layer `y = x·Wᵀ + b` with weights stored `[out, in]`.
#[derive(Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let weight =
            blockfed_tensor::init::xavier_uniform(rng, &[out_dim, in_dim], in_dim, out_dim);
        Linear {
            weight,
            bias: Tensor::zeros(&[out_dim]),
            grad_weight: Tensor::zeros(&[out_dim, in_dim]),
            grad_bias: Tensor::zeros(&[out_dim]),
            cached_input: None,
        }
    }

    /// Builds a layer from explicit weights `[out, in]` and bias `[out]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.ndim(), 2, "weight must be 2-D");
        assert_eq!(bias.numel(), weight.shape()[0], "bias length mismatch");
        let gw = Tensor::zeros(weight.shape());
        let gb = Tensor::zeros(&[bias.numel()]);
        Linear {
            weight,
            bias,
            grad_weight: gw,
            grad_bias: gb,
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    /// The weight tensor `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.ndim(), 2, "Linear expects [batch, in] input");
        assert_eq!(input.shape()[1], self.in_dim(), "input width mismatch");
        if train {
            self.cached_input = Some(input.clone());
        }
        blockfed_tensor::matmul_bt(input, &self.weight).add_row_broadcast(&self.bias)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called without a training forward pass");
        // dW += gᵀ·x, db += column sums of g, dx = g·W
        self.grad_weight.axpy(1.0, &matmul_at(grad, input));
        self.grad_bias.axpy(1.0, &grad.sum_rows());
        matmul(grad, &self.weight)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_grads(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.grad_weight);
        f(&self.grad_bias);
    }

    fn visit_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.grad_weight);
        f(&mut self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn box_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Elementwise ReLU.
#[derive(Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        ops::relu(input)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called without a training forward pass");
        ops::relu_backward(grad, input)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_grads(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn zero_grads(&mut self) {}

    fn box_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Wraps a layer and freezes it: forward passes through, but the inner
/// parameters are hidden from optimizers and federated serialization, and the
/// backward pass still propagates input gradients without accumulating any.
pub struct Frozen<L: Layer> {
    inner: L,
}

impl<L: Layer + Clone> Clone for Frozen<L> {
    fn clone(&self) -> Self {
        Frozen {
            inner: self.inner.clone(),
        }
    }
}

impl<L: Layer> Frozen<L> {
    /// Freezes `inner`.
    pub fn new(inner: L) -> Self {
        Frozen { inner }
    }

    /// Borrows the frozen layer.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Total parameters held (frozen, so *not* reported by `param_count`).
    pub fn frozen_param_count(&self) -> usize {
        self.inner.param_count()
    }
}

impl<L: Layer + Clone + 'static> Layer for Frozen<L> {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let out = self.inner.backward(grad);
        self.inner.zero_grads(); // discard any accumulated gradient
        out
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn visit_grads(&self, _f: &mut dyn FnMut(&Tensor)) {}
    fn visit_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}
    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn box_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "frozen"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_forward_known_values() {
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]); // [out=2, in=2]
        let bias = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let mut layer = Linear::from_parts(weight, bias);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = layer.forward(&x, false);
        // y0 = 1*1 + 2*1 + 0.5 = 3.5 ; y1 = 3 + 4 - 0.5 = 6.5
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut r = rng();
        let mut layer = Linear::new(&mut r, 3, 2);
        let x = Tensor::from_vec(vec![0.5, -0.2, 0.8, 1.0, 0.3, -0.7], &[2, 3]);
        // Loss = sum(y); dL/dy = ones.
        let y = layer.forward(&x, true);
        let ones = Tensor::ones(y.shape());
        let dx = layer.backward(&ones);

        let eps = 1e-3f32;
        // Check grad for weight[0][1] by finite differences.
        let mut analytic = Vec::new();
        layer.visit_grads(&mut |g| analytic.push(g.clone()));
        let gw = analytic[0].get(&[0, 1]);

        let bumped = Linear::from_parts(layer.weight().clone(), layer.bias().clone());
        let mut w = bumped.weight().clone();
        w.set(&[0, 1], w.get(&[0, 1]) + eps);
        let mut bumped = Linear::from_parts(w, layer.bias().clone());
        let y2 = bumped.forward(&x, false);
        let numeric = (y2.sum() - y.sum()) / eps;
        assert!(
            (gw - numeric).abs() < 1e-2,
            "analytic {gw} vs numeric {numeric}"
        );

        // dL/dx for loss=sum: each row of dx equals column sums of W.
        let mut expected_dx0 = 0.0;
        for o in 0..2 {
            expected_dx0 += layer.weight().get(&[o, 0]);
        }
        assert!((dx.get(&[0, 0]) - expected_dx0).abs() < 1e-5);
    }

    #[test]
    fn linear_gradients_accumulate_until_zeroed() {
        let mut r = rng();
        let mut layer = Linear::new(&mut r, 2, 2);
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..3 {
            let y = layer.forward(&x, true);
            layer.backward(&Tensor::ones(y.shape()));
        }
        let mut gb = Tensor::zeros(&[1]);
        layer.visit_grads(&mut |g| {
            if g.ndim() == 1 {
                gb = g.clone();
            }
        });
        assert_eq!(gb.as_slice(), &[3.0, 3.0]);
        layer.zero_grads();
        layer.visit_grads(&mut |g| assert_eq!(g.sum(), 0.0));
    }

    #[test]
    fn relu_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]);
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
        let dx = relu.backward(&Tensor::ones(&[1, 2]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn frozen_hides_params_but_propagates() {
        let mut r = rng();
        let inner = Linear::new(&mut r, 4, 3);
        let inner_weight = inner.weight().clone();
        let mut frozen = Frozen::new(inner);
        assert_eq!(frozen.param_count(), 0);
        assert_eq!(frozen.frozen_param_count(), 4 * 3 + 3);
        let x = Tensor::ones(&[2, 4]);
        let y = frozen.forward(&x, true);
        let dx = frozen.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), &[2, 4]);
        assert_eq!(
            frozen.inner().weight(),
            &inner_weight,
            "weights must not move"
        );
        // No grads escape.
        frozen.visit_grads(&mut |_| panic!("frozen layer exposed a gradient"));
    }

    #[test]
    fn param_count_counts_weights_and_biases() {
        let mut r = rng();
        let layer = Linear::new(&mut r, 10, 5);
        assert_eq!(layer.param_count(), 55);
        assert_eq!(Relu::new().param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "backward called without")]
    fn backward_requires_training_forward() {
        let mut r = rng();
        let mut layer = Linear::new(&mut r, 2, 2);
        let x = Tensor::ones(&[1, 2]);
        let _ = layer.forward(&x, false); // inference mode: no cache
        let _ = layer.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_rejected() {
        let mut r = rng();
        let mut layer = Linear::new(&mut r, 3, 2);
        let _ = layer.forward(&Tensor::ones(&[1, 4]), false);
    }
}
