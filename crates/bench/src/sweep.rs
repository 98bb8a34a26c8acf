//! Seed-sweep ablation of the trade-off result.
//!
//! Every decentralized arm of the sweep runs through the `blockfed-scenario`
//! engine (see [`crate::decentralized_scenario`]): the per-seed trade-off is
//! a declarative spec lowered and executed per arm, so the ablation's shape
//! is exactly a scenario matrix varied along the seed axis.
//!
//! Every run is bit-for-bit reproducible from one seed, so the cheap
//! robustness check is to re-run the headline trade-off across seeds and
//! report mean ± std. If the "async loses only a little accuracy but waits
//! much less" shape held for a single lucky seed, it dies here; if it is
//! real, the deltas keep their sign and magnitude.

use blockfed_fl::WaitPolicy;
use blockfed_nn::ModelKind;
use blockfed_report::{summarize, Stats, Table};

use crate::{prepare, run_tradeoff, Profile};

/// Aggregated trade-off outcome for one (model, policy) arm across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Which model.
    pub model: ModelKind,
    /// The wait policy evaluated.
    pub policy: WaitPolicy,
    /// Final accuracy across seeds.
    pub accuracy: Stats,
    /// Accuracy delta vs wait-all (percentage points) across seeds.
    pub delta_pp: Stats,
    /// Mean aggregation wait (seconds) across seeds.
    pub wait_secs: Stats,
}

/// Output of the seed sweep.
pub struct SweepOutput {
    /// The rendered table.
    pub table: Table,
    /// The raw rows.
    pub rows: Vec<SweepRow>,
}

/// Re-runs the trade-off experiment once per seed (data regenerated and
/// repartitioned per seed) and aggregates.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn run_tradeoff_sweep(base: &Profile, seeds: &[u64]) -> SweepOutput {
    assert!(!seeds.is_empty(), "need at least one seed");
    // Collect per-arm series keyed by (model, policy) in first-seen order.
    let mut keys: Vec<(ModelKind, WaitPolicy)> = Vec::new();
    let mut acc: Vec<Vec<f64>> = Vec::new();
    let mut delta: Vec<Vec<f64>> = Vec::new();
    let mut wait: Vec<Vec<f64>> = Vec::new();
    for &seed in seeds {
        let data = prepare(base.clone().with_seed(seed));
        let out = run_tradeoff(&data);
        for row in out.rows {
            let key = (row.model, row.policy);
            let idx = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                acc.push(Vec::new());
                delta.push(Vec::new());
                wait.push(Vec::new());
                keys.len() - 1
            });
            acc[idx].push(row.final_accuracy);
            delta[idx].push(row.accuracy_delta_pp);
            wait[idx].push(row.mean_wait_secs);
        }
    }

    let rows: Vec<SweepRow> = keys
        .iter()
        .enumerate()
        .map(|(i, &(model, policy))| SweepRow {
            model,
            policy,
            accuracy: summarize(&acc[i]).expect("non-empty seeds"),
            delta_pp: summarize(&delta[i]).expect("non-empty seeds"),
            wait_secs: summarize(&wait[i]).expect("non-empty seeds"),
        })
        .collect();

    let mut table = Table::new(
        format!("Trade-off seed sweep — {} seeds, mean ± std", seeds.len()),
        &["Model", "Policy", "Final acc", "Δacc (pp)", "Mean wait (s)"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.model.to_string(),
            r.policy.to_string(),
            format!("{:.4} ± {:.4}", r.accuracy.mean, r.accuracy.std),
            format!("{:+.2} ± {:.2}", r.delta_pp.mean, r.delta_pp.std),
            format!("{:.2} ± {:.2}", r.wait_secs.mean, r.wait_secs.std),
        ]);
    }
    SweepOutput { table, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_aggregates_across_seeds() {
        let out = run_tradeoff_sweep(&Profile::tiny(), &[1, 2]);
        // 2 models × 3 policies.
        assert_eq!(out.rows.len(), 6);
        for r in &out.rows {
            assert_eq!(r.accuracy.n, 2);
            assert!((0.0..=1.0).contains(&r.accuracy.mean));
            assert!(r.wait_secs.mean >= 0.0);
        }
        // Wait-all is the delta baseline: zero across all seeds.
        for r in out.rows.iter().filter(|r| r.policy == WaitPolicy::All) {
            assert_eq!(r.delta_pp.mean, 0.0);
            assert_eq!(r.delta_pp.std, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one seed")]
    fn empty_seeds_rejected() {
        let _ = run_tradeoff_sweep(&Profile::tiny(), &[]);
    }
}
