//! The [`Sequential`] model container and training/evaluation entry points.
//!
//! # Batch-parallel training
//!
//! Mini-batches are split into **gradient shards** by a plan that is a pure
//! function of the batch size ([`train_shards`]) — never of the worker
//! count. Every shard's gradient contribution is computed from zeroed
//! scratch gradients and folded back into the model in fixed shard order, so
//! [`Sequential::train_batch`] (sequential execution of the plan) and
//! [`Sequential::par_train_batch`] (shards fanned across `blockfed-compute`
//! workers on per-worker model replicas) perform the *same arithmetic in the
//! same order* and produce bit-identical parameters at any thread count —
//! the determinism contract the tensor kernels already honour.

use std::ops::Range;

use blockfed_data::{Batcher, Dataset};
use blockfed_tensor::{ops, Tensor};
use rand::Rng;

use crate::layer::Layer;
use crate::loss::cross_entropy;
use crate::optim::Sgd;

/// Ceiling on gradient shards per mini-batch. More shards than this buys no
/// extra parallelism on the machines we target and inflates the fixed
/// per-shard cost (snapshot + reduction) at every batch size.
pub const MAX_TRAIN_SHARDS: usize = 8;

/// Below this many rows per shard, splitting further costs more in per-shard
/// overhead than it can recover in parallelism, so small batches keep the
/// classic fused single-shard path.
const MIN_SHARD_ROWS: usize = 8;

/// The fixed gradient-shard plan for a mini-batch of `n` examples: contiguous
/// row ranges, at most [`MAX_TRAIN_SHARDS`] of them, each at least
/// `MIN_SHARD_ROWS` rows (so batches under 16 rows stay a single shard).
///
/// The plan depends only on `n` — never on the worker count — which is what
/// makes sequential and batch-parallel training bit-identical: both execute
/// exactly these shards and reduce them in index order.
pub fn train_shards(n: usize) -> Vec<Range<usize>> {
    let shards = (n / MIN_SHARD_ROWS).clamp(1, MAX_TRAIN_SHARDS);
    blockfed_compute::split_ranges(n, shards)
}

/// The feature rows of `range`: borrowed when the range covers the whole
/// tensor (the single-shard case pays no copy), copied into a standalone
/// `[rows, d]` tensor otherwise.
fn slice_rows<'a>(features: &'a Tensor, range: &Range<usize>) -> std::borrow::Cow<'a, Tensor> {
    let d = features.shape()[1];
    if range.start == 0 && range.end == features.shape()[0] {
        return std::borrow::Cow::Borrowed(features);
    }
    std::borrow::Cow::Owned(Tensor::from_vec(
        features.as_slice()[range.start * d..range.end * d].to_vec(),
        &[range.end - range.start, d],
    ))
}

/// One shard's contribution to a mini-batch step: its share of the batch loss
/// and a snapshot of its gradient contribution (computed from zeroed
/// gradients, so the snapshot is exactly this shard's term of the batch-mean
/// gradient).
struct ShardGrads {
    loss: f32,
    grads: Vec<Tensor>,
}

/// Forward/backward for one shard, accumulating its gradient contribution
/// into `model`'s (not-necessarily-zeroed) gradients; returns the shard's
/// share of the batch loss. The upstream loss gradient is scaled by
/// `|shard| / total`, turning the shard-mean cross-entropy gradient into the
/// shard's exact share of the batch-mean gradient (`share == 1.0` skips the
/// scale — multiplication by one is a bitwise no-op anyway).
fn shard_forward_backward(
    model: &mut Sequential,
    features: &Tensor,
    labels: &[usize],
    range: &Range<usize>,
    total: usize,
) -> f32 {
    let x = slice_rows(features, range);
    let y = &labels[range.clone()];
    let logits = model.forward(&x, true);
    let out = cross_entropy(&logits, y);
    let share = range.len() as f32 / total as f32;
    if share == 1.0 {
        model.backward(&out.grad);
    } else {
        model.backward(&out.grad.scale(share));
    }
    out.loss * share
}

/// [`shard_forward_backward`] from zeroed gradients, snapshotting the result
/// — what each parallel worker produces for the ordered reduction. A fold of
/// these zero-initialized snapshots in shard order is bit-identical to
/// accumulating the same shards in place (IEEE-754 round-to-nearest: adding
/// from +0.0 only rewrites -0.0 contributions to +0.0, and a running
/// accumulator can never be -0.0, where that rewrite could matter).
fn shard_step(
    model: &mut Sequential,
    features: &Tensor,
    labels: &[usize],
    range: &Range<usize>,
    total: usize,
) -> ShardGrads {
    model.zero_grads();
    let loss = shard_forward_backward(model, features, labels, range, total);
    let mut grads = Vec::new();
    model.visit_grads(&mut |g| grads.push(g.clone()));
    ShardGrads { loss, grads }
}

/// A feed-forward stack of layers.
///
/// # Examples
///
/// ```
/// use blockfed_nn::{Linear, Relu, Sequential};
/// use blockfed_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = Sequential::new();
/// model.push(Linear::new(&mut rng, 4, 8));
/// model.push(Relu::new());
/// model.push(Linear::new(&mut rng, 8, 2));
/// let logits = model.forward(&Tensor::ones(&[3, 4]), false);
/// assert_eq!(logits.shape(), &[3, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

/// Caller-owned buffers for [`Sequential::accuracy`]: two ping-pong
/// activation buffers and the `matmul_bt` transpose scratch. They grow to the
/// widest layer on first use and are reused after that, so a worker scoring
/// many candidates allocates nothing per candidate.
#[derive(Debug, Default)]
pub struct InferScratch {
    ping: Vec<f32>,
    pong: Vec<f32>,
    transpose: Vec<f32>,
}

/// Result of evaluating a model on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Fraction of correctly classified examples.
    pub accuracy: f64,
    /// Mean cross-entropy.
    pub loss: f64,
    /// Number of evaluated examples.
    pub examples: usize,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Deep-copies the model (architecture and parameters) into a fresh
    /// instance. Duplicates serve as per-worker scratch models when the
    /// orchestrator evaluates model combinations in parallel — cheaper and
    /// RNG-neutral compared to rebuilding from an architecture config.
    pub fn duplicate(&self) -> Sequential {
        Sequential {
            layers: self.layers.iter().map(|l| l.box_clone()).collect(),
        }
    }

    /// Runs the forward pass. `train = true` caches activations for backward.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        // The first layer borrows the batch; only layer outputs are owned.
        let mut x = first.forward(input, train);
        for layer in rest {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Runs the backward pass from the loss gradient.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Visits every trainable parameter in a fixed order.
    pub fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    /// Visits every trainable parameter mutably.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    /// Visits every accumulated gradient.
    pub fn visit_grads(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_grads(f);
        }
    }

    /// Visits every accumulated gradient mutably, in the same order as
    /// [`Sequential::visit_grads`].
    pub fn visit_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_grads_mut(f);
        }
    }

    /// Flattens all trainable parameters into one vector (federated payloads).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.visit_params(&mut |p| out.extend_from_slice(p.as_slice()));
        out
    }

    /// Loads trainable parameters from a flat vector produced by
    /// [`Sequential::params_flat`] on an identically shaped model.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the parameter count.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter length mismatch"
        );
        let mut offset = 0usize;
        self.visit_params_mut(&mut |p| {
            let n = p.numel();
            p.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        });
    }

    /// One SGD step over one mini-batch; returns the batch loss.
    ///
    /// Executes the fixed gradient-shard plan ([`train_shards`])
    /// sequentially — the reference arithmetic that
    /// [`Sequential::par_train_batch`] reproduces bit-for-bit in parallel.
    pub fn train_batch(&mut self, features: &Tensor, labels: &[usize], opt: &mut Sgd) -> f32 {
        assert!(!labels.is_empty(), "empty batch");
        assert_eq!(features.shape()[0], labels.len(), "label count mismatch");
        let total = labels.len();
        self.zero_grads();
        let mut loss = 0.0f32;
        for range in train_shards(total) {
            // Gradients accumulate in place across shards — bit-identical to
            // the parallel path's snapshot-and-fold (see [`shard_step`]) and
            // free of its per-shard clones.
            loss += shard_forward_backward(self, features, labels, &range, total);
        }
        opt.step(self);
        loss
    }

    /// One SGD step over one mini-batch with the gradient shards split across
    /// `blockfed-compute` workers, each running on its own model replica
    /// ([`Sequential::duplicate`] + scratch gradients). Shard results are
    /// reduced in fixed shard order before a single optimizer step, so the
    /// outcome is bit-identical to [`Sequential::train_batch`] at any thread
    /// count. Falls back to the sequential path when only one worker is
    /// available or the batch is a single shard.
    pub fn par_train_batch(&mut self, features: &Tensor, labels: &[usize], opt: &mut Sgd) -> f32 {
        // Consult the shard plan before cloning anything: a single-shard
        // batch (or a single worker) needs no replicas at all.
        let workers = blockfed_compute::num_threads().min(train_shards(labels.len()).len());
        let mut replicas: Vec<Sequential> = (1..workers).map(|_| self.duplicate()).collect();
        self.par_train_batch_with(&mut replicas, features, labels, opt)
    }

    /// [`Sequential::par_train_batch`] with caller-owned replicas, so an
    /// epoch loop pays the replica allocation once. Replica parameters are
    /// re-synced from `self` every call; their gradients are scratch.
    fn par_train_batch_with(
        &mut self,
        replicas: &mut [Sequential],
        features: &Tensor,
        labels: &[usize],
        opt: &mut Sgd,
    ) -> f32 {
        assert!(!labels.is_empty(), "empty batch");
        assert_eq!(features.shape()[0], labels.len(), "label count mismatch");
        let total = labels.len();
        let plan = train_shards(total);
        // One state per worker, never more states than shards: extra states
        // would sit idle, and the shard plan (not the state count) fixes the
        // arithmetic.
        let states = plan
            .len()
            .min(blockfed_compute::num_threads())
            .min(1 + replicas.len());
        if states <= 1 {
            return self.train_batch(features, labels, opt);
        }
        let flat = self.params_flat();
        for replica in replicas[..states - 1].iter_mut() {
            replica.set_params_flat(&flat);
        }
        let shards: Vec<ShardGrads> = {
            let mut pool: Vec<&mut Sequential> = Vec::with_capacity(states);
            pool.push(&mut *self);
            for replica in replicas[..states - 1].iter_mut() {
                pool.push(replica);
            }
            blockfed_compute::par_map_with(&mut pool, &plan, |model, range| {
                shard_step(model, features, labels, range, total)
            })
        };
        self.reduce_shards(&shards, opt)
    }

    /// Folds per-shard gradient snapshots into `self` in shard-index order —
    /// the same fold-left the sequential path performs — then takes one
    /// optimizer step. Returns the summed (batch-mean) loss.
    fn reduce_shards(&mut self, shards: &[ShardGrads], opt: &mut Sgd) -> f32 {
        self.zero_grads();
        let mut loss = 0.0f32;
        for shard in shards {
            loss += shard.loss;
            let mut idx = 0usize;
            self.visit_grads_mut(&mut |g| {
                g.axpy(1.0, &shard.grads[idx]);
                idx += 1;
            });
        }
        opt.step(self);
        loss
    }

    /// Trains for `epochs` full passes over `dataset`; returns mean epoch losses.
    pub fn train_epochs<R: Rng + ?Sized>(
        &mut self,
        dataset: &Dataset,
        epochs: usize,
        batcher: &Batcher,
        opt: &mut Sgd,
        rng: &mut R,
    ) -> Vec<f32> {
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0f32;
            let mut batches = 0usize;
            for batch in batcher.epoch(dataset, rng) {
                total += self.train_batch(&batch.features, &batch.labels, opt);
                batches += 1;
            }
            losses.push(if batches > 0 {
                total / batches as f32
            } else {
                0.0
            });
        }
        losses
    }

    /// [`Sequential::train_epochs`] with every mini-batch step running
    /// through [`Sequential::par_train_batch`]: worker replicas are allocated
    /// once and re-synced per batch. Mini-batch order, RNG consumption, and
    /// all arithmetic match the sequential loop, so the returned losses and
    /// the final parameters are bit-identical to [`Sequential::train_epochs`]
    /// at any thread count.
    pub fn par_train_epochs<R: Rng + ?Sized>(
        &mut self,
        dataset: &Dataset,
        epochs: usize,
        batcher: &Batcher,
        opt: &mut Sgd,
        rng: &mut R,
    ) -> Vec<f32> {
        // The widest plan any batch of this epoch loop can produce bounds
        // how many replicas can ever be used at once.
        let widest_plan = train_shards(batcher.batch_size().min(dataset.len())).len();
        let workers = blockfed_compute::num_threads().min(widest_plan);
        let mut replicas: Vec<Sequential> = (1..workers).map(|_| self.duplicate()).collect();
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0f32;
            let mut batches = 0usize;
            for batch in batcher.epoch(dataset, rng) {
                total +=
                    self.par_train_batch_with(&mut replicas, &batch.features, &batch.labels, opt);
                batches += 1;
            }
            losses.push(if batches > 0 {
                total / batches as f32
            } else {
                0.0
            });
        }
        losses
    }

    /// Dispatches to [`Sequential::par_train_epochs`] or
    /// [`Sequential::train_epochs`] — the one-line hook for the fl/core/bench
    /// local-training paths, whose `batch_parallel` knobs all mean exactly
    /// this choice. Bit-identical results either way.
    pub fn train_epochs_maybe_par<R: Rng + ?Sized>(
        &mut self,
        parallel: bool,
        dataset: &Dataset,
        epochs: usize,
        batcher: &Batcher,
        opt: &mut Sgd,
        rng: &mut R,
    ) -> Vec<f32> {
        if parallel {
            self.par_train_epochs(dataset, epochs, batcher, opt, rng)
        } else {
            self.train_epochs(dataset, epochs, batcher, opt, rng)
        }
    }

    /// Inference forward pass with the rows split across `blockfed-compute`
    /// workers on model replicas, re-assembled in row order. Every logits row
    /// depends only on its own input row, so the result is bit-identical to
    /// [`Sequential::forward`] in inference mode at any thread count.
    fn par_forward(&mut self, features: &Tensor) -> Tensor {
        let rows = features.shape()[0];
        let plan = train_shards(rows);
        let states = plan.len().min(blockfed_compute::num_threads());
        if states <= 1 {
            return self.forward(features, false);
        }
        let mut replicas: Vec<Sequential> = (1..states).map(|_| self.duplicate()).collect();
        let parts: Vec<Tensor> = {
            let mut pool: Vec<&mut Sequential> = Vec::with_capacity(states);
            pool.push(&mut *self);
            for replica in &mut replicas {
                pool.push(replica);
            }
            blockfed_compute::par_map_with(&mut pool, &plan, |model, range| {
                model.forward(&slice_rows(features, range), false)
            })
        };
        let cols = parts[0].shape()[1];
        let mut data = Vec::with_capacity(rows * cols);
        for p in &parts {
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_vec(data, &[rows, cols])
    }

    /// [`Sequential::evaluate`] with the forward pass sharded across workers;
    /// bit-identical results at any thread count.
    pub fn par_evaluate(&mut self, dataset: &Dataset) -> EvalResult {
        if dataset.is_empty() {
            return EvalResult {
                accuracy: 0.0,
                loss: 0.0,
                examples: 0,
            };
        }
        let logits = self.par_forward(dataset.features());
        let out = cross_entropy(&logits, dataset.labels());
        EvalResult {
            accuracy: ops::accuracy(&logits, dataset.labels()),
            loss: f64::from(out.loss),
            examples: dataset.len(),
        }
    }

    /// [`Sequential::predict`] with the forward pass sharded across workers;
    /// bit-identical results at any thread count.
    pub fn par_predict(&mut self, features: &Tensor) -> Vec<usize> {
        self.par_forward(features).argmax_rows()
    }

    /// Evaluates accuracy and loss on a dataset (inference mode).
    ///
    /// One batched forward pass covers the entire dataset — never one pass
    /// per sample; the per-sample reference exists only as a regression test
    /// (`batched_evaluate_agrees_with_per_sample_reference`) pinning that the
    /// batched path scores every row identically.
    pub fn evaluate(&mut self, dataset: &Dataset) -> EvalResult {
        if dataset.is_empty() {
            return EvalResult {
                accuracy: 0.0,
                loss: 0.0,
                examples: 0,
            };
        }
        let logits = self.forward(dataset.features(), false);
        let out = cross_entropy(&logits, dataset.labels());
        EvalResult {
            accuracy: ops::accuracy(&logits, dataset.labels()),
            loss: f64::from(out.loss),
            examples: dataset.len(),
        }
    }

    /// Inference logits of `features` as a row-major `[rows, width]` slice
    /// and its `width`, computed on `scratch`: each layer runs
    /// [`Layer::infer_into`] into one of two ping-pong buffers, so the pass
    /// allocates nothing once `scratch` has grown to the widest layer.
    /// Bit-identical to `forward(features, false)`.
    ///
    /// # Panics
    ///
    /// Panics if `features` is not 2-D or a layer rejects its input width.
    pub fn infer<'a>(
        &self,
        features: &'a Tensor,
        scratch: &'a mut InferScratch,
    ) -> (&'a [f32], usize) {
        assert_eq!(features.ndim(), 2, "inference input must be 2-D");
        let rows = features.shape()[0];
        let InferScratch {
            ping,
            pong,
            transpose,
        } = scratch;
        let mut width = features.shape()[1];
        for (i, layer) in self.layers.iter().enumerate() {
            let input = if i == 0 {
                features.as_slice()
            } else {
                &pong[..]
            };
            width = layer.infer_into(input, rows, ping, transpose);
            std::mem::swap(ping, pong);
        }
        let logits = if self.layers.is_empty() {
            features.as_slice()
        } else {
            pong
        };
        (logits, width)
    }

    /// The accuracy [`Sequential::evaluate`] reports, from
    /// [`Sequential::infer`] with no loss computed: a row counts as correct
    /// when its first maximum logit is its label, the rule of
    /// [`Tensor::argmax_rows`]. How a combination search scores thousands of
    /// candidates per round.
    pub fn accuracy(&self, dataset: &Dataset, scratch: &mut InferScratch) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let (logits, width) = self.infer(dataset.features(), scratch);
        assert!(width > 0, "argmax over zero columns");
        let correct = logits
            .chunks_exact(width)
            .zip(dataset.labels())
            .filter(|(row, &label)| blockfed_tensor::tensor::argmax(row) == label)
            .count();
        correct as f64 / dataset.len() as f64
    }

    /// Predicted class per row.
    pub fn predict(&mut self, features: &Tensor) -> Vec<usize> {
        self.forward(features, false).argmax_rows()
    }

    /// Evaluates on `dataset` and returns the full confusion matrix (rows =
    /// true labels, columns = predictions) — see [`crate::metrics`] for the
    /// derived per-class metrics and the degeneracy signal used by anomaly
    /// detection.
    pub fn evaluate_confusion(&mut self, dataset: &Dataset) -> crate::metrics::ConfusionMatrix {
        let predicted = self.predict(dataset.features());
        crate::metrics::ConfusionMatrix::from_predictions(
            dataset.num_classes(),
            dataset.labels(),
            &predicted,
        )
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .field("params", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blob_dataset(n_per: usize) -> Dataset {
        // Two linearly separable blobs.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per {
            let t = (i as f32) / (n_per as f32);
            data.extend_from_slice(&[1.0 + 0.1 * t, 1.0 - 0.1 * t]);
            labels.push(0);
            data.extend_from_slice(&[-1.0 - 0.1 * t, -1.0 + 0.1 * t]);
            labels.push(1);
        }
        Dataset::new(Tensor::from_vec(data, &[2 * n_per, 2]), labels, 2)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new();
        m.push(Linear::new(&mut rng, 2, 16));
        m.push(Relu::new());
        m.push(Linear::new(&mut rng, 16, 2));
        m
    }

    #[test]
    fn training_reaches_full_accuracy_on_separable_data() {
        let ds = two_blob_dataset(20);
        let mut model = mlp(0);
        let mut opt = Sgd::new(0.1, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        let losses = model.train_epochs(&ds, 20, &Batcher::new(8), &mut opt, &mut rng);
        assert!(
            losses.last().unwrap() < &0.05,
            "final loss {:?}",
            losses.last()
        );
        let eval = model.evaluate(&ds);
        assert_eq!(eval.accuracy, 1.0);
        assert_eq!(eval.examples, 40);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = two_blob_dataset(20);
        let mut model = mlp(2);
        let mut opt = Sgd::new(0.05, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let losses = model.train_epochs(&ds, 10, &Batcher::new(8), &mut opt, &mut rng);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn params_flat_roundtrip() {
        let mut a = mlp(4);
        let mut b = mlp(5);
        let x = Tensor::ones(&[1, 2]);
        assert_ne!(a.forward(&x, false), b.forward(&x, false));
        let flat = a.params_flat();
        assert_eq!(flat.len(), a.param_count());
        b.set_params_flat(&flat);
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }

    #[test]
    #[should_panic(expected = "flat parameter length mismatch")]
    fn set_params_rejects_wrong_length() {
        let mut m = mlp(6);
        m.set_params_flat(&[0.0]);
    }

    #[test]
    fn param_count_matches_architecture() {
        let m = mlp(7);
        assert_eq!(m.param_count(), 2 * 16 + 16 + 16 * 2 + 2);
        assert_eq!(m.depth(), 3);
    }

    #[test]
    fn evaluate_on_empty_dataset() {
        let mut m = mlp(8);
        let empty = Dataset::new(Tensor::zeros(&[0, 2]), vec![], 2);
        let r = m.evaluate(&empty);
        assert_eq!(r.examples, 0);
        assert_eq!(r.accuracy, 0.0);
    }

    #[test]
    fn predict_returns_argmax_labels() {
        let ds = two_blob_dataset(5);
        let mut model = mlp(9);
        let mut opt = Sgd::new(0.1, 0.9);
        let mut rng = StdRng::seed_from_u64(10);
        model.train_epochs(&ds, 15, &Batcher::new(5), &mut opt, &mut rng);
        let preds = model.predict(ds.features());
        assert_eq!(preds, ds.labels());
    }

    #[test]
    fn debug_lists_layers() {
        let m = mlp(11);
        let s = format!("{m:?}");
        assert!(s.contains("linear"));
        assert!(s.contains("relu"));
    }

    #[test]
    fn shard_plan_is_a_pure_function_of_batch_size() {
        // Single shard below 16 rows, then ≥ MIN_SHARD_ROWS rows per shard,
        // capped at MAX_TRAIN_SHARDS, always an exact partition.
        assert_eq!(train_shards(1), vec![0..1]);
        assert_eq!(train_shards(15), vec![0..15]);
        assert_eq!(train_shards(16).len(), 2);
        assert_eq!(train_shards(32).len(), 4);
        assert_eq!(train_shards(64).len(), 8);
        assert_eq!(train_shards(1000).len(), MAX_TRAIN_SHARDS);
        assert!(train_shards(0).is_empty());
        for n in [1usize, 7, 16, 17, 33, 64, 100, 257] {
            let plan = train_shards(n);
            let mut next = 0usize;
            for r in &plan {
                assert_eq!(r.start, next, "gap in plan for n={n}");
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, n, "plan must cover the batch for n={n}");
        }
    }

    #[test]
    fn par_train_batch_bit_matches_sequential_on_uneven_batches() {
        // 33 rows: 4 shards of 9/8/8/8 — the plan splits unevenly, and the
        // parallel path must still reproduce the sequential fold exactly.
        let ds = two_blob_dataset(17); // 34 examples; use the first 33
        let idx: Vec<usize> = (0..33).collect();
        let ds = Dataset::new(
            ds.features().gather_rows(&idx),
            ds.labels()[..33].to_vec(),
            2,
        );
        let run = |parallel: bool| {
            let mut model = mlp(21);
            let mut opt = Sgd::new(0.1, 0.9);
            for _ in 0..3 {
                if parallel {
                    model.par_train_batch(ds.features(), ds.labels(), &mut opt);
                } else {
                    model.train_batch(ds.features(), ds.labels(), &mut opt);
                }
            }
            model.params_flat()
        };
        let seq = run(false);
        let par = run(true);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn batched_evaluate_agrees_with_per_sample_reference() {
        // `evaluate` runs ONE batched forward over the whole dataset; this
        // pins that it scores every row exactly as a one-sample-at-a-time
        // loop would (rows are independent through every layer).
        let ds = two_blob_dataset(20);
        let mut model = mlp(12);
        let mut opt = Sgd::new(0.1, 0.9);
        let mut rng = StdRng::seed_from_u64(13);
        model.train_epochs(&ds, 5, &Batcher::new(8), &mut opt, &mut rng);
        let batched = model.evaluate(&ds);

        let mut correct = 0usize;
        let mut loss_sum = 0.0f64;
        for i in 0..ds.len() {
            let row = Dataset::new(
                ds.features().gather_rows(&[i]),
                vec![ds.labels()[i]],
                ds.num_classes(),
            );
            let per_sample = model.evaluate(&row);
            if per_sample.accuracy == 1.0 {
                correct += 1;
            }
            loss_sum += per_sample.loss;
        }
        assert_eq!(batched.accuracy, correct as f64 / ds.len() as f64);
        // The batched mean folds the per-row losses in one pass; the
        // per-sample mean rounds at each step, so compare approximately.
        assert!(
            (batched.loss - loss_sum / ds.len() as f64).abs() < 1e-5,
            "batched {} vs per-sample {}",
            batched.loss,
            loss_sum / ds.len() as f64
        );
    }

    #[test]
    fn par_evaluate_and_predict_match_sequential() {
        let ds = two_blob_dataset(40); // 80 rows: a multi-shard plan
        let mut model = mlp(14);
        let mut opt = Sgd::new(0.1, 0.9);
        let mut rng = StdRng::seed_from_u64(15);
        model.train_epochs(&ds, 3, &Batcher::new(16), &mut opt, &mut rng);
        let seq = model.evaluate(&ds);
        let par = model.par_evaluate(&ds);
        assert_eq!(seq, par, "par_evaluate diverged");
        assert_eq!(
            model.predict(ds.features()),
            model.par_predict(ds.features())
        );
        // Empty dataset short-circuits like the sequential path.
        let empty = Dataset::new(Tensor::zeros(&[0, 2]), vec![], 2);
        assert_eq!(model.par_evaluate(&empty).examples, 0);
    }

    #[test]
    fn par_train_epochs_bit_matches_train_epochs() {
        let ds = two_blob_dataset(32); // 64 examples, batch 32 → 4 shards
        let run = |parallel: bool| {
            let mut model = mlp(20);
            let mut opt = Sgd::new(0.1, 0.9);
            let mut rng = StdRng::seed_from_u64(22);
            let losses = if parallel {
                model.par_train_epochs(&ds, 4, &Batcher::new(32), &mut opt, &mut rng)
            } else {
                model.train_epochs(&ds, 4, &Batcher::new(32), &mut opt, &mut rng)
            };
            (losses, model.params_flat())
        };
        let (seq_losses, seq_params) = run(false);
        let (par_losses, par_params) = run(true);
        assert_eq!(seq_losses, par_losses);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seq_params), bits(&par_params));
    }

    #[test]
    fn inference_pass_bit_matches_forward_and_evaluate() {
        use crate::zoo::SimpleNnConfig;
        use blockfed_data::{SynthCifar, SynthCifarConfig};
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The tiny model on the tiny data; the paper model (64 → 310 → 130
        // → 10, wider than one 64-column transpose slab) on 40 default-config
        // samples.
        let (_, tiny_test) = SynthCifar::new(SynthCifarConfig::tiny()).generate(3);
        let paper_data = SynthCifarConfig {
            test_per_class: 4,
            ..SynthCifarConfig::default()
        };
        let (_, paper_test) = SynthCifar::new(paper_data).generate(4);
        let cells = [
            (SimpleNnConfig::tiny(12, 4), tiny_test),
            (SimpleNnConfig::paper(), paper_test),
        ];
        let mut scratch = InferScratch::default();
        for (cfg, ds) in cells {
            let mut model = cfg.build(&mut StdRng::seed_from_u64(30));
            for (pass, seed) in [(0, 31u64), (1, 32)] {
                if pass == 1 {
                    // A second candidate through the same (now grown)
                    // scratch, with a bias large enough to move predictions.
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut flat = model.params_flat();
                    flat.iter_mut().for_each(|p| *p += rng.gen_range(-0.5..0.5));
                    model.set_params_flat(&flat);
                }
                let want = model.forward(ds.features(), false);
                let (logits, width) = model.infer(ds.features(), &mut scratch);
                assert_eq!(width, cfg.num_classes);
                assert_eq!(bits(logits), bits(want.as_slice()), "{cfg:?}");
                let accuracy = model.accuracy(&ds, &mut scratch);
                assert_eq!(accuracy, model.evaluate(&ds).accuracy, "{cfg:?}");
            }
        }
        let empty = Dataset::new(Tensor::zeros(&[0, 2]), vec![], 2);
        assert_eq!(mlp(24).accuracy(&empty, &mut scratch), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn train_batch_rejects_empty_batch() {
        let mut m = mlp(23);
        let mut opt = Sgd::new(0.1, 0.0);
        m.train_batch(&Tensor::zeros(&[0, 2]), &[], &mut opt);
    }
}
