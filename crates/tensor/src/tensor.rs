//! The dense row-major `f32` tensor.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A dense, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use blockfed_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Wraps a flat vector with a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} != shape volume {}",
            data.len(),
            expected
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for dim {i} of size {dim}"
            );
            flat = flat * dim + ix;
        }
        flat
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let i = self.flat_index(idx);
        self.data[i] = value;
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "reshape volume mismatch");
        Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// A view of row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        assert!(r < self.shape[0], "row {r} out of range");
        &self.data[r * cols..(r + 1) * cols]
    }

    /// A mutable view of row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.shape[1];
        assert!(r < self.shape[0], "row {r} out of range");
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies a set of rows of a 2-D tensor into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if not 2-D or any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows() requires a 2-D tensor");
        let cols = self.shape[1];
        let mut out = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            out.extend_from_slice(self.row(i));
        }
        Tensor::from_vec(out, &[indices.len(), cols])
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other * factor` (the axpy kernel under FedAvg and SGD).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, factor: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += factor * b;
        }
    }

    /// Adds a 1-D bias vector to every row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or the bias length differs from the column count.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "add_row_broadcast() requires a 2-D tensor");
        assert_eq!(bias.numel(), self.shape[1], "bias length mismatch");
        let mut out = self.clone();
        let cols = self.shape[1];
        for r in 0..self.shape[0] {
            for c in 0..cols {
                out.data[r * cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column sums of a 2-D tensor (used for bias gradients).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_rows() requires a 2-D tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows() requires a 2-D tensor");
        assert!(self.shape[1] > 0, "argmax over zero columns");
        (0..self.shape[0]).map(|r| argmax(self.row(r))).collect()
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose() requires a 2-D tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements, mean {:.4}]", self.numel(), self.mean())
        }
    }
}

/// Index of the first maximum of `row` (the first of equal maxima; a NaN
/// never wins) — the per-row rule of [`Tensor::argmax_rows`], shared with
/// `blockfed-nn`'s allocation-free inference pass.
///
/// # Panics
///
/// Panics if `row` is empty.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax over zero columns");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.ndim(), 2);
        assert!(Tensor::zeros(&[0]).is_empty());
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2], 2.5).as_slice(), &[2.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_wrong_volume() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.get(&[0, 0]), 1.0);
        assert_eq!(t.get(&[1, 2]), 6.0);
        t.set(&[1, 0], 9.0);
        assert_eq!(t.get(&[1, 0]), 9.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        t.row_mut(0)[1] = 8.0;
        assert_eq!(t.get(&[0, 1]), 8.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_rejects_out_of_range() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.get(&[2, 0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(a.add(&b).as_slice(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).as_slice(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).as_slice(), &[10.0, 40.0]);
        assert_eq!(a.scale(3.0).as_slice(), &[3.0, 6.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[21.0, 42.0]);
    }

    #[test]
    fn broadcast_bias() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let bias = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let y = x.add_row_broadcast(&bias);
        assert_eq!(y.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
        assert!((t.norm_sq() - 30.0).abs() < 1e-6);
        assert!((t.norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_first_max_on_tie() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.5, 0.2, 0.1], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        assert_eq!(t.transpose().shape(), &[3, 2]);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().get(&[2, 1]), t.get(&[1, 2]));
    }

    #[test]
    fn reshape_preserves_order() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[4]);
    }

    #[test]
    #[should_panic(expected = "reshape volume mismatch")]
    fn reshape_rejects_volume_change() {
        let _ = Tensor::zeros(&[2, 2]).reshape(&[3]);
    }

    #[test]
    fn gather_rows_copies_selected() {
        let t = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[3, 3]);
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), &[2, 3]);
        assert_eq!(g.row(0), &[6.0, 7.0, 8.0]);
        assert_eq!(g.row(1), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn finiteness_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let mut b = a.clone();
        assert!(a.all_finite());
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.as_mut_slice()[1] = 5.0;
        assert_eq!(a.max_abs_diff(&b), 3.0);
        b.as_mut_slice()[0] = f32::NAN;
        assert!(!b.all_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let small = Tensor::ones(&[2]);
        assert!(format!("{small:?}").contains("Tensor"));
        let big = Tensor::ones(&[100]);
        assert!(format!("{big:?}").contains("elements"));
    }

    #[test]
    fn map_variants() {
        let t = Tensor::from_vec(vec![-1.0, 2.0], &[2]);
        assert_eq!(t.map(|x| x.max(0.0)).as_slice(), &[0.0, 2.0]);
        let mut u = t.clone();
        u.map_inplace(|x| x * 2.0);
        assert_eq!(u.as_slice(), &[-2.0, 4.0]);
        assert_eq!(t.into_vec(), vec![-1.0, 2.0]);
    }
}
