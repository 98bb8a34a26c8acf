//! Federated averaging (McMahan et al., AISTATS 2017).

use crate::update::ModelUpdate;

/// Error aggregating model updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// No updates were supplied.
    Empty,
    /// Updates disagree on parameter count.
    ShapeMismatch {
        /// Parameter count of the first update.
        expected: usize,
        /// Offending parameter count.
        got: usize,
    },
    /// Every update has zero sample weight.
    ZeroWeight,
    /// An update contains NaN or infinite parameters.
    NonFinite,
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::Empty => write!(f, "no updates to aggregate"),
            AggregateError::ShapeMismatch { expected, got } => {
                write!(f, "update has {got} parameters, expected {expected}")
            }
            AggregateError::ZeroWeight => write!(f, "total sample weight is zero"),
            AggregateError::NonFinite => write!(f, "update contains non-finite parameters"),
        }
    }
}

impl std::error::Error for AggregateError {}

/// Sample-count-weighted parameter mean of the given updates.
///
/// # Errors
///
/// Returns [`AggregateError`] on empty input, shape disagreement, zero total
/// weight, or non-finite parameters.
///
/// # Examples
///
/// ```
/// use blockfed_fl::{fed_avg, ClientId, ModelUpdate};
///
/// let a = ModelUpdate::new(ClientId(0), 0, vec![0.0, 0.0], 1);
/// let b = ModelUpdate::new(ClientId(1), 0, vec![2.0, 4.0], 3);
/// let avg = fed_avg(&[&a, &b])?;
/// assert_eq!(avg, vec![1.5, 3.0]); // weighted 1:3
/// # Ok::<(), blockfed_fl::AggregateError>(())
/// ```
pub fn fed_avg(updates: &[&ModelUpdate]) -> Result<Vec<f32>, AggregateError> {
    let (dim, total_weight) = validate(updates.iter().map(|u| UpdateCheck::of(u)))?;
    let weights: Vec<f64> = updates
        .iter()
        .map(|u| u.sample_count as f64 / total_weight)
        .collect();
    Ok(weighted_mean(updates, &weights, dim))
}

/// What [`fed_avg`] checks of one update — its length, finiteness and
/// weight — taken once, so a search over many combinations of the same
/// updates scans each update's parameters once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UpdateCheck {
    len: usize,
    finite: bool,
    weight: f64,
}

impl UpdateCheck {
    pub(crate) fn of(u: &ModelUpdate) -> Self {
        UpdateCheck {
            len: u.params.len(),
            finite: u.is_finite(),
            weight: u.sample_count as f64,
        }
    }
}

/// [`fed_avg`]'s validation of one member list, in member order: the common
/// parameter count and the total sample weight, or the first error
/// [`fed_avg`] returns for those members.
pub(crate) fn validate(
    members: impl IntoIterator<Item = UpdateCheck>,
) -> Result<(usize, f64), AggregateError> {
    let mut members = members.into_iter();
    let first = members.next().ok_or(AggregateError::Empty)?;
    let dim = first.len;
    let mut total_weight = 0.0f64;
    for u in std::iter::once(first).chain(members) {
        if u.len != dim {
            return Err(AggregateError::ShapeMismatch {
                expected: dim,
                got: u.len,
            });
        }
        if !u.finite {
            return Err(AggregateError::NonFinite);
        }
        total_weight += u.weight;
    }
    if total_weight == 0.0 {
        return Err(AggregateError::ZeroWeight);
    }
    Ok((dim, total_weight))
}

/// Adds `w · p` of each `(update, w)` into `acc`, update by update in
/// order, for the coordinates `off..off + acc.len()` — the one accumulation
/// behind every FedAvg, so a candidate built into a worker's buffer gets the
/// bits [`fed_avg`] would return.
pub(crate) fn accumulate<'a>(
    acc: &mut [f64],
    off: usize,
    members: impl IntoIterator<Item = (&'a ModelUpdate, f64)>,
) {
    for (u, w) in members {
        let params = &u.params[off..off + acc.len()];
        for (o, &p) in acc.iter_mut().zip(params) {
            *o += w * f64::from(p);
        }
    }
}

/// The weighted-mean kernel: coordinates are independent, so the
/// output splits into contiguous chunks across the compute pool. Each
/// coordinate accumulates its updates in slice order regardless of chunking,
/// so results are bit-identical at every thread count.
fn weighted_mean(updates: &[&ModelUpdate], weights: &[f64], dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f64; dim];
    let kernel = |off: usize, chunk: &mut [f64]| {
        accumulate(
            chunk,
            off,
            updates.iter().copied().zip(weights.iter().copied()),
        );
    };
    if blockfed_compute::worth_parallelizing(dim * updates.len()) {
        blockfed_compute::par_chunks_mut(&mut out, 1, kernel);
    } else if dim > 0 {
        kernel(0, &mut out);
    }
    out.into_iter().map(|v| v as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::ClientId;

    fn upd(client: usize, params: Vec<f32>, weight: usize) -> ModelUpdate {
        ModelUpdate::new(ClientId(client), 0, params, weight)
    }

    #[test]
    fn equal_weights_give_plain_mean() {
        let a = upd(0, vec![1.0, 2.0], 10);
        let b = upd(1, vec![3.0, 6.0], 10);
        assert_eq!(fed_avg(&[&a, &b]).unwrap(), vec![2.0, 4.0]);
    }

    #[test]
    fn weighting_by_sample_count() {
        let a = upd(0, vec![0.0], 1);
        let b = upd(1, vec![10.0], 9);
        assert_eq!(fed_avg(&[&a, &b]).unwrap(), vec![9.0]);
    }

    #[test]
    fn single_update_is_identity() {
        let a = upd(0, vec![1.5, -2.5, 3.0], 7);
        assert_eq!(fed_avg(&[&a]).unwrap(), a.params);
    }

    #[test]
    fn idempotence_averaging_identical_models() {
        let a = upd(0, vec![0.25, -0.75], 5);
        let b = upd(1, vec![0.25, -0.75], 50);
        let c = upd(2, vec![0.25, -0.75], 500);
        assert_eq!(fed_avg(&[&a, &b, &c]).unwrap(), vec![0.25, -0.75]);
    }

    #[test]
    fn convexity_mean_stays_in_range() {
        let a = upd(0, vec![-1.0, 5.0], 3);
        let b = upd(1, vec![1.0, 7.0], 11);
        let avg = fed_avg(&[&a, &b]).unwrap();
        assert!((-1.0..=1.0).contains(&avg[0]));
        assert!((5.0..=7.0).contains(&avg[1]));
    }

    #[test]
    fn error_on_empty() {
        assert_eq!(fed_avg(&[]), Err(AggregateError::Empty));
    }

    #[test]
    fn error_on_shape_mismatch() {
        let a = upd(0, vec![1.0], 1);
        let b = upd(1, vec![1.0, 2.0], 1);
        assert_eq!(
            fed_avg(&[&a, &b]),
            Err(AggregateError::ShapeMismatch {
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn error_on_zero_weight() {
        let a = upd(0, vec![1.0], 0);
        let b = upd(1, vec![2.0], 0);
        assert_eq!(fed_avg(&[&a, &b]), Err(AggregateError::ZeroWeight));
    }

    #[test]
    fn error_on_non_finite() {
        let a = upd(0, vec![f32::NAN], 1);
        assert_eq!(fed_avg(&[&a]), Err(AggregateError::NonFinite));
    }

    #[test]
    fn error_display() {
        assert!(AggregateError::Empty.to_string().contains("no updates"));
        assert!(AggregateError::ShapeMismatch {
            expected: 3,
            got: 5
        }
        .to_string()
        .contains('5'));
        assert!(AggregateError::ZeroWeight.to_string().contains("zero"));
        assert!(AggregateError::NonFinite.to_string().contains("non-finite"));
    }
}
