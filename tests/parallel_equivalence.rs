//! Kernel-equivalence suite for the parallel compute backend.
//!
//! Every parallel kernel must produce results identical to its scalar
//! reference — bit-for-bit where the accumulation order is preserved (all
//! kernels here), at thread counts 1, 2, and 8, across random shapes
//! including edge shapes (1×N, N×1, non-tile-multiple dims). Thread counts
//! are switched through `blockfed::compute::set_threads`, serialized by a
//! process-wide lock because the override is global.

mod common;

use blockfed::data::{Dataset, SynthCifar, SynthCifarConfig};
use blockfed::fl::{
    aggregate_with, all_combinations, fed_avg, AggregateError, AggregationOutcome,
    CandidateEvaluator, CandidateScores, CandidateSource, ClientId, Combination, ModelUpdate,
    Strategy,
};
use blockfed::nn::{InferScratch, Sequential, SimpleNnConfig};
use blockfed::tensor::ops::{clip, log_softmax_rows, relu, softmax_rows};
use blockfed::tensor::{matmul, Tensor};
use blockfed::tensor::{matmul_at, matmul_bt};
use common::thread_guard;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn with_threads<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let _g = thread_guard();
    let mut results = THREAD_COUNTS.iter().map(|&t| {
        blockfed::compute::set_threads(t);
        f()
    });
    let first = results.next().expect("non-empty thread list");
    for (t, r) in THREAD_COUNTS[1..].iter().zip(results) {
        assert_eq!(r, first, "thread count {t} diverged");
    }
    blockfed::compute::set_threads(0);
    first
}

fn random_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-2.0..2.0)).collect(), shape)
}

/// The tensor's elements as bit patterns: NaN ≠ NaN under `==`, so
/// bit-identity on IEEE edge values compares `to_bits`.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Overwrites the leading rows of a row-major 2-D tensor with IEEE edge
/// cases: `rows[r]` rewrites row `r` in place.
fn with_edge_rows(mut t: Tensor, rows: [fn(&mut [f32]); 4]) -> Tensor {
    let cols = t.shape()[1];
    if cols > 0 {
        for (row, edit) in t.as_mut_slice().chunks_exact_mut(cols).zip(rows) {
            edit(row);
        }
    }
    t
}

/// Left-operand edges: an all-`+0.0` row (against a `-0.0` row of the
/// right operand every product is `-0.0`, and the sum must still start from
/// `+0.0`; against `inf` it is NaN, which a zero skip would miss), a NaN
/// mid-row, `+inf` / `-inf` at the ends, and `-0.0` at every third column.
fn lhs_edges(t: Tensor) -> Tensor {
    with_edge_rows(
        t,
        [
            |r| r.fill(0.0),
            |r| {
                let mid = r.len() / 2;
                r[mid] = f32::NAN;
            },
            |r| {
                r[0] = f32::INFINITY;
                let last = r.len() - 1;
                r[last] = f32::NEG_INFINITY;
            },
            |r| r.iter_mut().step_by(3).for_each(|v| *v = -0.0),
        ],
    )
}

/// Right-operand edges: `+inf` first, `-inf` last, an all-`-0.0` row and a
/// NaN in the second column.
fn rhs_edges(t: Tensor) -> Tensor {
    with_edge_rows(
        t,
        [
            |r| r[0] = f32::INFINITY,
            |r| {
                let last = r.len() - 1;
                r[last] = f32::NEG_INFINITY;
            },
            |r| r.fill(-0.0),
            |r| {
                let at = 1.min(r.len() - 1);
                r[at] = f32::NAN;
            },
        ],
    )
}

#[test]
fn matmul_variants_bit_match_reference_on_edge_and_large_shapes() {
    let mut rng = StdRng::seed_from_u64(100);
    // (m, k, n): 1×N, N×1, tiny, non-tile-multiple, and above the parallel
    // threshold (K_BLOCK/J_BLOCK in blockfed-tensor are 512/64; PAR_THRESHOLD
    // is 16384 scalar ops).
    let shapes = [
        (1, 5, 9),
        (9, 1, 3),
        (3, 7, 1),
        (40, 300, 33),
        (65, 257, 129),
        (128, 512, 64),
    ];
    for (m, k, n) in shapes {
        let a = random_tensor(&mut rng, &[m, k]);
        let b = random_tensor(&mut rng, &[k, n]);
        let bt = random_tensor(&mut rng, &[n, k]);
        let at = random_tensor(&mut rng, &[k, m]);
        let want = blockfed::tensor::matmul::reference::matmul(&a, &b);
        let want_bt = blockfed::tensor::matmul::reference::matmul_bt(&a, &bt);
        let want_at = blockfed::tensor::matmul::reference::matmul_at(&at, &b);
        let (got, got_bt, got_at) =
            with_threads(|| (matmul(&a, &b), matmul_bt(&a, &bt), matmul_at(&at, &b)));
        assert_eq!(got, want, "matmul {m}x{k}x{n}");
        assert_eq!(got_bt, want_bt, "matmul_bt {m}x{k}x{n}");
        assert_eq!(got_at, want_at, "matmul_at {m}x{k}x{n}");

        // The same shapes with `±0.0`, `±inf` and NaN in both operands: a
        // kernel that skips zeros, starts a sum from its first product or
        // reassociates gives different bits here.
        let (a, bt) = (lhs_edges(a), rhs_edges(bt));
        let (b, at) = (rhs_edges(b), lhs_edges(at));
        let want = bits(&blockfed::tensor::matmul::reference::matmul(&a, &b));
        let want_bt = bits(&blockfed::tensor::matmul::reference::matmul_bt(&a, &bt));
        let want_at = bits(&blockfed::tensor::matmul::reference::matmul_at(&at, &b));
        let (got, got_bt, got_at) = with_threads(|| {
            (
                bits(&matmul(&a, &b)),
                bits(&matmul_bt(&a, &bt)),
                bits(&matmul_at(&at, &b)),
            )
        });
        assert_eq!(got, want, "matmul {m}x{k}x{n} on edge values");
        assert_eq!(got_bt, want_bt, "matmul_bt {m}x{k}x{n} on edge values");
        assert_eq!(got_at, want_at, "matmul_at {m}x{k}x{n} on edge values");
    }
}

#[test]
fn elementwise_ops_are_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(102);
    // Tall enough to cross PAR_THRESHOLD.
    let logits = random_tensor(&mut rng, &[600, 40]);
    with_threads(|| softmax_rows(&logits));
    with_threads(|| log_softmax_rows(&logits));
    with_threads(|| relu(&logits));
    with_threads(|| clip(&logits, -0.5, 0.5));
}

fn random_updates(rng: &mut StdRng, n: usize, dim: usize) -> Vec<ModelUpdate> {
    (0..n)
        .map(|i| {
            let params: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            ModelUpdate::new(ClientId(i), 1, params, 1 + i * 3)
        })
        .collect()
}

#[test]
fn fedavg_bit_matches_scalar_reference_at_every_thread_count() {
    let mut rng = StdRng::seed_from_u64(103);
    for (n, dim) in [(2usize, 3usize), (5, 999), (4, 20_000)] {
        let updates = random_updates(&mut rng, n, dim);
        let refs: Vec<&ModelUpdate> = updates.iter().collect();
        // Scalar reference: the pre-parallel accumulation, verbatim.
        let total_weight: f64 = refs.iter().map(|u| u.sample_count as f64).sum();
        let mut expect = vec![0.0f64; dim];
        for u in &refs {
            let w = u.sample_count as f64 / total_weight;
            for (o, &p) in expect.iter_mut().zip(&u.params) {
                *o += w * f64::from(p);
            }
        }
        let expect: Vec<f32> = expect.into_iter().map(|v| v as f32).collect();
        let got = with_threads(|| fed_avg(&refs).expect("valid updates"));
        assert_eq!(got, expect, "fed_avg n={n} dim={dim}");
    }
}

/// One compute worker of [`StreamingPool`]: a scratch model, the buffers a
/// candidate is built into and the inference scratch it is scored with.
struct Worker {
    model: Sequential,
    acc: Vec<f64>,
    params: Vec<f32>,
    infer: InferScratch,
}

/// A pool scorer in the orchestrator's shape: one dispatch in which each
/// worker builds every candidate of its share into its own buffers and
/// scores it with the allocation-free inference pass.
struct StreamingPool<'a> {
    workers: &'a mut [Worker],
    test: &'a Dataset,
}

impl CandidateEvaluator for StreamingPool<'_> {
    fn score_batch(&mut self, candidates: &[&[f32]]) -> Vec<f64> {
        let test = self.test;
        blockfed::compute::par_map_with(self.workers, candidates, |w, params| {
            w.model.set_params_flat(params);
            w.model.accuracy(test, &mut w.infer)
        })
    }

    fn score_source(&mut self, source: &CandidateSource<'_>) -> Vec<f64> {
        let test = self.test;
        let indices: Vec<usize> = (0..source.len()).collect();
        blockfed::compute::par_map_with(self.workers, &indices, |w, &i| {
            w.acc.resize(source.dim(), 0.0);
            w.params.resize(source.dim(), 0.0);
            source.build(i, &mut w.acc, &mut w.params);
            w.model.set_params_flat(&w.params);
            w.model.accuracy(test, &mut w.infer)
        })
    }
}

/// The "consider" search as it was before candidates were streamed: FedAvg
/// every combination into its own vector, score each with
/// `evaluate(test).accuracy`, keep the best with the same tie-break draw.
fn materialized_consider(
    updates: &[&ModelUpdate],
    model: &mut Sequential,
    test: &Dataset,
    rng: &mut StdRng,
) -> Result<AggregationOutcome, AggregateError> {
    if updates.is_empty() {
        return Err(AggregateError::Empty);
    }
    let mut clients: Vec<ClientId> = updates.iter().map(|u| u.client).collect();
    clients.sort();
    clients.dedup();
    let combos: Vec<Combination> = all_combinations(&clients);
    let mut params_list = Vec::with_capacity(combos.len());
    for combo in &combos {
        let members: Vec<&ModelUpdate> = updates
            .iter()
            .copied()
            .filter(|u| combo.contains(u.client))
            .collect();
        params_list.push(fed_avg(&members)?);
    }
    let scores: Vec<f64> = params_list
        .iter()
        .map(|p| {
            model.set_params_flat(p);
            model.evaluate(test).accuracy
        })
        .collect();
    let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<usize> = (0..scores.len()).filter(|&i| scores[i] == best).collect();
    let chosen = tied[rng.gen_range(0..tied.len())];
    let score = scores[chosen];
    let candidates = CandidateScores::exhaustive(clients, scores);
    // The record's index order is the materialized list's order.
    assert!(candidates
        .combinations()
        .map(|(c, _)| c)
        .eq(combos.iter().cloned()));
    Ok(AggregationOutcome {
        params: params_list[chosen].clone(),
        combination: combos[chosen].clone(),
        score,
        candidates,
    })
}

/// An outcome as bits: scores and parameters compared with `to_bits`.
type OutcomeBits = (Vec<(Combination, u64)>, Combination, u64, Vec<u32>);

fn outcome_bits(out: &AggregationOutcome) -> OutcomeBits {
    (
        out.candidates
            .combinations()
            .map(|(c, s)| (c, s.to_bits()))
            .collect(),
        out.combination.clone(),
        out.score.to_bits(),
        out.params.iter().map(|p| p.to_bits()).collect(),
    )
}

/// An error-parity case: its name, how it breaks a cohort, and the error
/// the materialized search returns for it.
type Breakage = (&'static str, fn(&mut [ModelUpdate]), AggregateError);

/// Seven clients with unequal sample counts, in a submission order that is
/// not client order, each a perturbation of one tiny model.
fn consider_cohort(base: &Sequential, seed: u64) -> Vec<ModelUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat = base.params_flat();
    [4usize, 0, 6, 2, 5, 1, 3]
        .into_iter()
        .map(|client| {
            let params = flat.iter().map(|p| p + rng.gen_range(-0.4..0.4)).collect();
            ModelUpdate::new(ClientId(client), 1, params, 3 + 7 * client)
        })
        .collect()
}

#[test]
fn consider_search_is_thread_count_invariant_and_matches_the_materialized_reference() {
    let (_, test) = SynthCifar::new(SynthCifarConfig::tiny()).generate(7);
    let base = SimpleNnConfig::tiny(12, 4).build(&mut StdRng::seed_from_u64(70));
    let streamed = |updates: &[&ModelUpdate], threads: usize, seed: u64| {
        let mut workers: Vec<Worker> = (0..threads)
            .map(|_| Worker {
                model: base.duplicate(),
                acc: Vec::new(),
                params: Vec::new(),
                infer: InferScratch::default(),
            })
            .collect();
        let mut pool = StreamingPool {
            workers: &mut workers,
            test: &test,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        aggregate_with(Strategy::Consider, updates, &mut pool, &mut rng)
    };
    let reference = |updates: &[&ModelUpdate], seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        materialized_consider(updates, &mut base.duplicate(), &test, &mut rng)
    };
    // The default chunked build, through a plain closure evaluator.
    let chunked = |updates: &[&ModelUpdate], seed: u64| {
        let mut model = base.duplicate();
        let mut score = |p: &[f32]| {
            model.set_params_flat(p);
            model.evaluate(&test).accuracy
        };
        let mut rng = StdRng::seed_from_u64(seed);
        aggregate_with(Strategy::Consider, updates, &mut score, &mut rng)
    };

    let _g = thread_guard();
    for seed in [71u64, 72, 73] {
        let mut cohort = consider_cohort(&base, seed);
        if seed == 73 {
            // A client that submitted twice: both updates join its
            // combinations.
            let mut again = cohort[3].clone();
            again.params.iter_mut().for_each(|p| *p *= 0.5);
            cohort.push(again);
        }
        let updates: Vec<&ModelUpdate> = cohort.iter().collect();
        let want = reference(&updates, seed).expect("valid cohort");
        assert_eq!(want.candidates.len(), 127);
        assert_eq!(
            outcome_bits(&chunked(&updates, seed).expect("valid cohort")),
            outcome_bits(&want),
            "default chunked build, seed {seed}"
        );
        for threads in THREAD_COUNTS {
            blockfed::compute::set_threads(threads);
            let got = streamed(&updates, threads, seed).expect("valid cohort");
            assert_eq!(
                outcome_bits(&got),
                outcome_bits(&want),
                "streamed search at {threads} threads, seed {seed}"
            );
        }
    }

    // Error parity: the streamed search checks each update once, and still
    // returns the error the first failing combination's FedAvg returns.
    // Submission order is clients 4, 0, 6, 2, 5, 1, 3 (see
    // `consider_cohort`); 380 parameters each.
    let shape = AggregateError::ShapeMismatch {
        expected: 381,
        got: 380,
    };
    let broken: [Breakage; 5] = [
        (
            "NaN update",
            |c| c[2].params[5] = f32::NAN,
            AggregateError::NonFinite,
        ),
        (
            "zero-weight update",
            |c| c[5].sample_count = 0,
            AggregateError::ZeroWeight,
        ),
        // Client 0 is submitted before client 1, so the pair {A, B} expects
        // client 0's length.
        ("shape mismatch", |c| c[1].params.push(0.0), shape),
        (
            "an infinity on client 2 before zero weight on client 4",
            |c| {
                c[0].sample_count = 0;
                c[3].params[0] = f32::INFINITY;
            },
            AggregateError::NonFinite,
        ),
        (
            "a zero-weight singleton before a mismatched pair",
            |c| {
                c[6].params.pop();
                c[4].sample_count = 0;
            },
            AggregateError::ZeroWeight,
        ),
    ];
    for (case, breaks, expected) in broken {
        let mut cohort = consider_cohort(&base, 74);
        breaks(&mut cohort);
        let updates: Vec<&ModelUpdate> = cohort.iter().collect();
        let want = reference(&updates, 74).expect_err(case);
        assert_eq!(want, expected, "{case}");
        for threads in THREAD_COUNTS {
            blockfed::compute::set_threads(threads);
            assert_eq!(
                streamed(&updates, threads, 74).expect_err(case),
                want,
                "{case}"
            );
        }
        assert_eq!(chunked(&updates, 74).expect_err(case), want, "{case}");
    }
    assert_eq!(
        streamed(&[], 2, 75).expect_err("empty"),
        AggregateError::Empty
    );
    blockfed::compute::set_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_equivalence_on_random_shapes(
        m in 1usize..24,
        k in 1usize..300,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor(&mut rng, &[m, k]);
        let b = random_tensor(&mut rng, &[k, n]);
        let want = blockfed::tensor::matmul::reference::matmul(&a, &b);
        let got = with_threads(|| matmul(&a, &b));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fedavg_equivalence_on_random_cohorts(
        n in 2usize..6,
        dim in 1usize..400,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        let refs: Vec<&ModelUpdate> = updates.iter().collect();
        let want = with_threads(|| fed_avg(&refs).expect("valid updates"));
        prop_assert_eq!(want.len(), dim);
    }
}
