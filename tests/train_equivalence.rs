//! Thread-sweep equivalence suite for batch-parallel training.
//!
//! `Sequential::par_train_batch` splits every mini-batch into the fixed
//! gradient-shard plan (`blockfed_nn::train_shards`, a pure function of the
//! batch size) and fans the shards across `blockfed-compute` workers on
//! per-worker model replicas, reducing gradients in shard order before one
//! optimizer step. The contract proven here: the parallel loop produces
//! **bit-identical** `params_flat()` to the sequential `train_epochs` loop at
//! `BLOCKFED_THREADS` ∈ {1, 2, 8} — including batch sizes that do not divide
//! evenly across workers — and a paper-scale scenario cell that trains
//! through the parallel loop replays bit-identically at 1 and 8 threads and
//! equals its sequential-loop twin.

mod common;

use blockfed::data::{Batcher, SynthCifar, SynthCifarConfig};
use blockfed::nn::{train_shards, Sequential, Sgd, SimpleNnConfig};
use blockfed::scenario::{CellReport, DataSpec, ScenarioRunner, ScenarioSpec};
use blockfed::tensor::Tensor;
use common::thread_guard;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn param_bits(model: &Sequential) -> Vec<u32> {
    model.params_flat().iter().map(|p| p.to_bits()).collect()
}

/// A random but seeded classification batch of `n` examples.
fn random_batch(rng: &mut StdRng, n: usize, dim: usize, classes: usize) -> (Tensor, Vec<usize>) {
    let features = Tensor::from_vec(
        (0..n * dim).map(|_| rng.gen_range(-1.5..1.5)).collect(),
        &[n, dim],
    );
    let labels = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    (features, labels)
}

fn tiny_model(seed: u64, dim: usize, classes: usize) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    SimpleNnConfig::tiny(dim, classes).build(&mut rng)
}

/// Trains one model with `train_batch` and one with `par_train_batch` on the
/// same fixed batch for `steps` steps and asserts bit-identical parameters.
fn assert_batch_equivalence(n: usize, seed: u64) {
    let (dim, classes) = (9, 3);
    let mut data_rng = StdRng::seed_from_u64(seed);
    let (features, labels) = random_batch(&mut data_rng, n, dim, classes);

    // Reference: the sequential loop at one thread.
    blockfed::compute::set_threads(1);
    let mut reference = tiny_model(seed ^ 7, dim, classes);
    let mut opt = Sgd::new(0.05, 0.9);
    for _ in 0..2 {
        reference.train_batch(&features, &labels, &mut opt);
    }
    let want = param_bits(&reference);

    for threads in THREAD_COUNTS {
        blockfed::compute::set_threads(threads);
        // The parallel loop…
        let mut par = tiny_model(seed ^ 7, dim, classes);
        let mut opt = Sgd::new(0.05, 0.9);
        for _ in 0..2 {
            par.par_train_batch(&features, &labels, &mut opt);
        }
        assert_eq!(
            param_bits(&par),
            want,
            "par_train_batch diverged at {threads} threads, batch {n}"
        );
        // …and the sequential loop must both be thread-count invariant.
        let mut seq = tiny_model(seed ^ 7, dim, classes);
        let mut opt = Sgd::new(0.05, 0.9);
        for _ in 0..2 {
            seq.train_batch(&features, &labels, &mut opt);
        }
        assert_eq!(
            param_bits(&seq),
            want,
            "train_batch diverged at {threads} threads, batch {n}"
        );
    }
    blockfed::compute::set_threads(0);
}

#[test]
fn par_train_batch_bit_matches_sequential_across_thread_sweep() {
    let _g = thread_guard();
    // Batch sizes around every shard-plan boundary: single shard (< 16),
    // exact multiples, and sizes that split unevenly across 2 and 8 workers.
    for (i, n) in [5usize, 15, 16, 17, 31, 32, 33, 64, 65, 100]
        .iter()
        .enumerate()
    {
        assert_batch_equivalence(*n, 900 + i as u64);
    }
}

#[test]
fn par_train_epochs_bit_matches_train_epochs_on_real_data() {
    let _g = thread_guard();
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, _) = gen.generate(3);
    let dim = train.feature_dim();
    let classes = train.num_classes();

    let run = |threads: usize, parallel: bool| -> (Vec<f32>, Vec<u32>) {
        blockfed::compute::set_threads(threads);
        let mut model = tiny_model(11, dim, classes);
        let mut opt = Sgd::new(0.1, 0.9);
        let mut rng = StdRng::seed_from_u64(12);
        let batcher = Batcher::new(20); // 80 examples → 16-row runt batch
        let losses = if parallel {
            model.par_train_epochs(&train, 3, &batcher, &mut opt, &mut rng)
        } else {
            model.train_epochs(&train, 3, &batcher, &mut opt, &mut rng)
        };
        blockfed::compute::set_threads(0);
        (losses, param_bits(&model))
    };

    let (want_losses, want_bits) = run(1, false);
    for threads in THREAD_COUNTS {
        let (par_losses, par_bits) = run(threads, true);
        assert_eq!(par_losses, want_losses, "losses diverged at {threads}");
        assert_eq!(par_bits, want_bits, "params diverged at {threads}");
        let (seq_losses, seq_bits) = run(threads, false);
        assert_eq!(seq_losses, want_losses);
        assert_eq!(seq_bits, want_bits);
    }
}

#[test]
fn par_evaluate_and_predict_are_thread_count_invariant() {
    let _g = thread_guard();
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(5);
    blockfed::compute::set_threads(1);
    let mut model = tiny_model(21, train.feature_dim(), train.num_classes());
    let mut opt = Sgd::new(0.1, 0.9);
    let mut rng = StdRng::seed_from_u64(22);
    model.train_epochs(&train, 2, &Batcher::new(16), &mut opt, &mut rng);
    let want_eval = model.evaluate(&test);
    let want_pred = model.predict(test.features());
    for threads in THREAD_COUNTS {
        blockfed::compute::set_threads(threads);
        assert_eq!(model.par_evaluate(&test), want_eval, "eval @ {threads}");
        assert_eq!(model.evaluate(&test), want_eval);
        assert_eq!(model.par_predict(test.features()), want_pred);
    }
    blockfed::compute::set_threads(0);
}

#[test]
fn paper_scale_cell_trains_bit_identically_at_1_and_8_threads() {
    let _g = thread_guard();
    // 3 peers training the ~62 K-parameter SimpleNN on the full SynthCifar
    // generator through the batch-parallel loop — no synthesized tiny data
    // anywhere.
    let spec = ScenarioSpec::paper_cell("paper-scale", 3);
    assert_eq!(spec.data, DataSpec::paper(), "full-generator data");
    assert!(
        spec.effective_computes().iter().all(|c| c.batch_parallel),
        "the cell must train through par_train_epochs"
    );
    assert_eq!(spec.model, SimpleNnConfig::paper(), "paper-scale model");
    spec.validate().unwrap();
    let run_at = |threads: usize| -> CellReport {
        blockfed::compute::set_threads(threads);
        let cell = ScenarioRunner::new().run(&spec);
        blockfed::compute::set_threads(0);
        cell
    };
    let single = run_at(1);
    assert_eq!(single.records, 3 * 2, "every peer, every round: {single:?}");
    assert!(
        single.mean_final_accuracy > 0.15,
        "paper-scale model learned nothing: {single:?}"
    );
    // Accuracy, params, chain, gossip — the whole report — must replay
    // bit-identically with eight workers (CellReport equality already
    // excludes host wall-clock).
    let eight = run_at(8);
    assert_eq!(single, eight, "thread count changed the simulation");
    // The sequential training loop is the same simulation: the two cells
    // differ only in host wall-clock.
    let sequential = ScenarioRunner::new().run(&spec.batch_parallel(false));
    assert_eq!(
        single, sequential,
        "batch-parallel training changed the simulation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batch sizes drawn to include every ragged split: shards of unequal
    /// length, more workers than shards, runt shards under MIN_SHARD_ROWS.
    #[test]
    fn par_training_equivalence_on_ragged_batch_sizes(
        n in 1usize..=97,
        seed in 0u64..500,
    ) {
        let _g = thread_guard();
        // Sanity: the plan is always an exact partition of the batch.
        let plan = train_shards(n);
        let covered: usize = plan.iter().map(|r| r.end - r.start).sum();
        prop_assert_eq!(covered, n);
        assert_batch_equivalence(n, seed);
    }
}
