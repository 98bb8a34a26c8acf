//! Matrix multiplication kernels.
//!
//! Three variants cover forward and backward passes of dense layers without
//! materializing transposes: `A·B`, `A·Bᵀ` and `Aᵀ·B`.
//!
//! Each public kernel is row-parallel over [`blockfed_compute`]: output rows
//! are split into one contiguous chunk per worker, and within a row every
//! output element accumulates its products in exactly the same
//! (ascending-`k`) order as the scalar kernels retained in
//! [`mod@reference`]. `A·B` and `Aᵀ·B` are cache-blocked over the shared
//! dimension. `A·Bᵀ` ([`matmul_bt_into`]) transposes each `J_BLOCK × k` slab
//! of `B` into bounded scratch and accumulates every output row in axpy form,
//! `o[j] += a[i, p] · bᵀ[p, j]` for ascending `p` starting from `0.0` — the
//! reference's dot product, element for element, with the inner loop running
//! across output columns so it vectorizes. Because f32 addition happens in an
//! identical order, the kernels are **bit-identical** to the reference at
//! every thread count — enforced by tests here and in
//! `tests/parallel_equivalence.rs`, including on `±0.0`, `±inf` and NaN.

use crate::tensor::Tensor;

/// Cache block length along the shared (`k`) dimension for the
/// accumulate-into-rows kernels (`A·B`, `Aᵀ·B`): a `K_BLOCK × n` slab of `B`
/// stays cache-resident while a worker sweeps its output rows.
const K_BLOCK: usize = 512;

/// Slab width over `B`'s rows for the `A·Bᵀ` kernel: each `J_BLOCK × k` slab
/// of `B` is transposed into scratch once and stays cache-resident while the
/// kernel sweeps its output rows, and a `J_BLOCK`-wide strip of an output row
/// is what the vectorized inner loop accumulates into.
const J_BLOCK: usize = 64;

/// Scalar reference kernels: the original single-threaded implementations,
/// kept as the ground truth the parallel kernels must reproduce bit-for-bit.
pub mod reference {
    use crate::tensor::Tensor;

    /// Scalar reference for [`matmul`](super::matmul).
    ///
    /// # Panics
    ///
    /// Panics if either input is not 2-D or the inner dimensions disagree.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions disagree: {k} vs {k2}");
        let av = a.as_slice();
        let bv = b.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let aip = av[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let brow = &bv[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bval) in orow.iter_mut().zip(brow) {
                    *o += aip * bval;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Scalar reference for [`matmul_bt`](super::matmul_bt).
    ///
    /// # Panics
    ///
    /// Panics if either input is not 2-D or the shared dimension disagrees.
    pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.ndim(), 2, "matmul_bt lhs must be 2-D");
        assert_eq!(b.ndim(), 2, "matmul_bt rhs must be 2-D");
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (n, k2) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "shared dimensions disagree: {k} vs {k2}");
        let av = a.as_slice();
        let bv = b.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &av[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &bv[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Scalar reference for [`matmul_at`](super::matmul_at).
    ///
    /// # Panics
    ///
    /// Panics if either input is not 2-D or the leading dimensions disagree.
    pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.ndim(), 2, "matmul_at lhs must be 2-D");
        assert_eq!(b.ndim(), 2, "matmul_at rhs must be 2-D");
        let (k, m) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "leading dimensions disagree: {k} vs {k2}");
        let av = a.as_slice();
        let bv = b.as_slice();
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let arow = &av[p * m..(p + 1) * m];
            let brow = &bv[p * n..(p + 1) * n];
            for i in 0..m {
                let aval = arow[i];
                if aval == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bval) in orow.iter_mut().zip(brow) {
                    *o += aval * bval;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

/// `C = A · B` for 2-D tensors `A: [m, k]`, `B: [k, n]`.
///
/// Cache-blocked over `k` and parallel over output rows; bit-identical to
/// [`reference::matmul`].
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use blockfed_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions disagree: {k} vs {k2}");
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    if n > 0 && m > 0 {
        let kernel = |row0: usize, rows: &mut [f32]| {
            let first_row = row0 / n;
            for kc in (0..k).step_by(K_BLOCK) {
                let kend = (kc + K_BLOCK).min(k);
                for (li, orow) in rows.chunks_exact_mut(n).enumerate() {
                    let i = first_row + li;
                    for p in kc..kend {
                        let aip = av[i * k + p];
                        if aip == 0.0 {
                            continue;
                        }
                        let brow = &bv[p * n..(p + 1) * n];
                        for (o, &bval) in orow.iter_mut().zip(brow) {
                            *o += aip * bval;
                        }
                    }
                }
            }
        };
        if blockfed_compute::worth_parallelizing(m * n * k) {
            blockfed_compute::par_chunks_mut(&mut out, n, kernel);
        } else {
            kernel(0, &mut out);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (dense-layer forward with
/// weights stored `[out, in]`).
///
/// Runs [`matmul_bt_into`] on each worker's chunk of output rows;
/// bit-identical to [`reference::matmul_bt`].
///
/// # Panics
///
/// Panics if either input is not 2-D or the shared dimension disagrees.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_bt lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_bt rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "shared dimensions disagree: {k} vs {k2}");
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    if n > 0 && m > 0 {
        let kernel = |row0: usize, rows: &mut [f32]| {
            let (first, count) = (row0 / n, rows.len() / n);
            let arows = &av[first * k..(first + count) * k];
            matmul_bt_into(arows, bv, rows, (count, k, n), &mut Vec::new());
        };
        if blockfed_compute::worth_parallelizing(m * n * k) {
            blockfed_compute::par_chunks_mut(&mut out, n, kernel);
        } else {
            kernel(0, &mut out);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `out = a · bᵀ` on row-major slices, `a: [m, k]`, `b: [n, k]`,
/// `out: [m, n]` with `dims = (m, k, n)`: the one `A·Bᵀ` kernel, which
/// [`matmul_bt`] runs per worker and `blockfed-nn`'s inference pass runs on
/// caller-owned buffers. Sequential; `out` is overwritten.
///
/// Each `J_BLOCK × k` slab of `b` is transposed into `scratch` (grown to at
/// most `J_BLOCK · k` floats and reused across calls), then every output row
/// accumulates `o[j] += a[i, p] · bᵀ[p, j]` for ascending `p`, starting from
/// `0.0`, with no zero skip. Each output element therefore runs the exact f32
/// operation sequence of [`reference::matmul_bt`] — so `-0.0`, `±inf` and NaN
/// propagate identically — while the inner loop runs across output columns
/// and vectorizes.
///
/// # Panics
///
/// Panics if a slice length disagrees with `dims`.
pub fn matmul_bt_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    scratch: &mut Vec<f32>,
) {
    assert_eq!(
        a.len(),
        m * k,
        "matmul_bt lhs length disagrees with [{m}, {k}]"
    );
    assert_eq!(
        b.len(),
        n * k,
        "matmul_bt rhs length disagrees with [{n}, {k}]"
    );
    assert_eq!(
        out.len(),
        m * n,
        "matmul_bt output length disagrees with [{m}, {n}]"
    );
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for jc in (0..n).step_by(J_BLOCK) {
        let w = J_BLOCK.min(n - jc);
        scratch.clear();
        scratch.resize(k * w, 0.0);
        for (j, brow) in b[jc * k..(jc + w) * k].chunks_exact(k).enumerate() {
            for (p, &v) in brow.iter().enumerate() {
                scratch[p * w + j] = v;
            }
        }
        for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            let strip = &mut orow[jc..jc + w];
            for (&aip, bt_row) in arow.iter().zip(scratch.chunks_exact(w)) {
                for (o, &bv) in strip.iter_mut().zip(bt_row) {
                    *o += aip * bv;
                }
            }
        }
    }
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (weight-gradient kernel).
///
/// Cache-blocked over `k` and parallel over output rows; bit-identical to
/// [`reference::matmul_at`].
///
/// # Panics
///
/// Panics if either input is not 2-D or the leading dimensions disagree.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_at lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_at rhs must be 2-D");
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "leading dimensions disagree: {k} vs {k2}");
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    if n > 0 && m > 0 {
        let kernel = |row0: usize, rows: &mut [f32]| {
            let first_row = row0 / n;
            for kc in (0..k).step_by(K_BLOCK) {
                let kend = (kc + K_BLOCK).min(k);
                for (li, orow) in rows.chunks_exact_mut(n).enumerate() {
                    let i = first_row + li;
                    for p in kc..kend {
                        let aval = av[p * m + i];
                        if aval == 0.0 {
                            continue;
                        }
                        let brow = &bv[p * n..(p + 1) * n];
                        for (o, &bval) in orow.iter_mut().zip(brow) {
                            *o += aval * bval;
                        }
                    }
                }
            }
        };
        if blockfed_compute::worth_parallelizing(m * n * k) {
            blockfed_compute::par_chunks_mut(&mut out, n, kernel);
        } else {
            kernel(0, &mut out);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn small_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    fn bt_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], &[2, 3]);
        let via_bt = matmul_bt(&a, &b);
        let via_t = matmul(&a, &b.transpose());
        assert!(via_bt.max_abs_diff(&via_t) < 1e-6);
    }

    #[test]
    fn at_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], &[3, 2]);
        let via_at = matmul_at(&a, &b);
        let via_t = matmul(&a.transpose(), &b);
        assert!(via_at.max_abs_diff(&via_t) < 1e-6);
    }

    #[test]
    fn associativity_on_random_like_data() {
        let a = t(
            &(0..12).map(|x| (x as f32) * 0.25 - 1.0).collect::<Vec<_>>(),
            &[3, 4],
        );
        let b = t(
            &(0..20).map(|x| (x as f32) * 0.1 - 1.0).collect::<Vec<_>>(),
            &[4, 5],
        );
        let c = t(
            &(0..10).map(|x| (x as f32) * 0.3 - 1.5).collect::<Vec<_>>(),
            &[5, 2],
        );
        let lhs = matmul(&matmul(&a, &b), &c);
        let rhs = matmul(&a, &matmul(&b, &c));
        assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_dims_panic() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }

    #[test]
    #[should_panic(expected = "must be 2-D")]
    fn non_2d_rejected() {
        let _ = matmul(&Tensor::zeros(&[2]), &Tensor::zeros(&[2, 2]));
    }

    #[test]
    fn zero_dimension_edge_cases() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[0, 2]);
        assert!(c.is_empty());
    }

    fn pseudo_tensor(shape: &[usize], salt: u64) -> Tensor {
        // Cheap deterministic pseudo-random data without an RNG dependency.
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|i| {
                let mut x = (i as u64)
                    .wrapping_add(salt)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 29;
                ((x % 2000) as f32 - 1000.0) / 250.0
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn parallel_kernels_bit_match_reference_across_thread_counts() {
        // Shapes straddling the parallel threshold and tile boundaries,
        // including 1×N, N×1 and non-multiple-of-K_BLOCK dims.
        let shapes: &[(usize, usize, usize)] = &[
            (1, 7, 5),
            (5, 1, 3),
            (3, 300, 2),
            (64, 257, 33),
            (33, 512, 17),
            (128, 80, 96),
        ];
        for &(m, k, n) in shapes {
            let a = pseudo_tensor(&[m, k], 1);
            let b = pseudo_tensor(&[k, n], 2);
            let bt = pseudo_tensor(&[n, k], 3);
            let at = pseudo_tensor(&[k, m], 4);
            let want = reference::matmul(&a, &b);
            let want_bt = reference::matmul_bt(&a, &bt);
            let want_at = reference::matmul_at(&at, &b);
            for threads in [1usize, 2, 8] {
                blockfed_compute::set_threads(threads);
                assert_eq!(matmul(&a, &b), want, "matmul {m}x{k}x{n} @{threads}");
                assert_eq!(
                    matmul_bt(&a, &bt),
                    want_bt,
                    "matmul_bt {m}x{k}x{n} @{threads}"
                );
                assert_eq!(
                    matmul_at(&at, &b),
                    want_at,
                    "matmul_at {m}x{k}x{n} @{threads}"
                );
            }
            blockfed_compute::set_threads(0);
        }
    }
}
