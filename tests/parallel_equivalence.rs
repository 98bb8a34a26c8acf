//! Kernel-equivalence suite for the parallel compute backend.
//!
//! Every parallel kernel must produce results identical to its scalar
//! reference — bit-for-bit where the accumulation order is preserved (all
//! kernels here), at thread counts 1, 2, and 8, across random shapes
//! including edge shapes (1×N, N×1, non-tile-multiple dims). Thread counts
//! are switched through `blockfed::compute::set_threads`, serialized by a
//! process-wide lock because the override is global.

mod common;

use blockfed::fl::{fed_avg, ClientId, ModelUpdate};
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
