//! The asynchronous-optimum study — the paper's second future-work question:
//! "the impact of an arbitrary number of local updates on each peer in
//! asynchronous communication is another intriguing question we aim to
//! explore for optimal values".
//!
//! Two sub-studies (the on-chain arm is a declarative `blockfed-scenario`
//! spec lowered via [`crate::decentralized_scenario`]):
//!
//! 1. **Wait-for-k on chain** (heterogeneous compute, one straggler) — the
//!    fully coupled system at `k ∈ {all, 2, 1}`: per-round aggregation wait,
//!    the age-of-block freshness of what gets aggregated, and final accuracy.
//! 2. **Aggregation size** — at fixed synchrony, how many models should
//!    enter the aggregate at all: [`Strategy::BestK`] (the k best standalone
//!    models, linear cost) vs everything vs the exponential "consider"
//!    search, for both of the paper's models.

use blockfed_fl::{Strategy, WaitPolicy};
use blockfed_report::{fmt_acc, Table};

use crate::{decentralized_scenario, straggler_profiles, vanilla_run, ModelSel, PreparedData};

/// One row of the wait-for-k sub-study.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitKRow {
    /// The wait policy.
    pub policy: WaitPolicy,
    /// Mean final-round accuracy across peers.
    pub final_accuracy: f64,
    /// Mean per-round aggregation wait (seconds).
    pub mean_wait_secs: f64,
    /// Mean age-of-block of aggregated updates (seconds).
    pub age_mean_secs: f64,
    /// Maximum observed update age (seconds).
    pub age_max_secs: f64,
    /// Mean number of updates per aggregation.
    pub mean_updates_used: f64,
}

/// One row of the best-k aggregation-size sub-study.
#[derive(Debug, Clone, PartialEq)]
pub struct BestKRow {
    /// Which model.
    pub model: blockfed_nn::ModelKind,
    /// The aggregation strategy.
    pub strategy: Strategy,
    /// Final-round accuracy (client A's series).
    pub final_accuracy: f64,
}

/// Output of the asynchronous-optimum study.
pub struct AsyncOptOutput {
    /// Rendered wait-for-k table.
    pub waitk_table: Table,
    /// Rendered best-k aggregation-size table.
    pub bestk_table: Table,
    /// Raw wait-for-k rows.
    pub waitk_rows: Vec<WaitKRow>,
    /// Raw best-k rows.
    pub bestk_rows: Vec<BestKRow>,
}

/// Runs both sub-studies (1 on SimpleNN; 2 on both models).
pub fn run_asyncopt(data: &PreparedData) -> AsyncOptOutput {
    let sel = ModelSel::Simple;

    // --- sub-study 1: wait-for-k on the full stack -----------------------
    let mut waitk_rows = Vec::new();
    for policy in [
        WaitPolicy::All,
        WaitPolicy::FirstK(2),
        WaitPolicy::FirstK(1),
    ] {
        let spec = decentralized_scenario(data, sel, policy).computes(straggler_profiles());
        let run = data.run(sel, &spec);
        let final_accuracy = (0..3).map(|p| run.final_accuracy(p)).sum::<f64>() / 3.0;
        let age = run.age_of_block();
        let (mut used, mut rounds) = (0usize, 0usize);
        for peer in &run.peer_records {
            for r in peer {
                used += r.updates_used;
                rounds += 1;
            }
        }
        waitk_rows.push(WaitKRow {
            policy,
            final_accuracy,
            mean_wait_secs: run.mean_wait().as_secs_f64(),
            age_mean_secs: age.mean(),
            age_max_secs: age.max(),
            mean_updates_used: used as f64 / rounds.max(1) as f64,
        });
    }
    let mut waitk_table = Table::new(
        "Async optimum (1/2) — wait-for-k under a straggler: freshness vs accuracy",
        &[
            "Policy",
            "Final acc",
            "Mean wait (s)",
            "Age mean (s)",
            "Age max (s)",
            "Updates/agg",
        ],
    );
    for r in &waitk_rows {
        waitk_table.row_owned(vec![
            r.policy.to_string(),
            fmt_acc(r.final_accuracy),
            format!("{:.2}", r.mean_wait_secs),
            format!("{:.2}", r.age_mean_secs),
            format!("{:.2}", r.age_max_secs),
            format!("{:.2}", r.mean_updates_used),
        ]);
    }

    // --- sub-study 2: how many models should enter the aggregate? ---------
    // The same "arbitrary number of local updates" question at the
    // aggregation level: BestK(k) averages the k best standalone models at
    // linear cost; Consider is the exponential search; NotConsider is all.
    let mut bestk_rows = Vec::new();
    for sel in [ModelSel::Simple, ModelSel::EffNet] {
        for strategy in [
            Strategy::BestK(1),
            Strategy::BestK(2),
            Strategy::NotConsider,
            Strategy::Consider,
        ] {
            let run = vanilla_run(data, sel, strategy);
            bestk_rows.push(BestKRow {
                model: sel.kind(),
                strategy,
                final_accuracy: run.final_accuracy(blockfed_fl::ClientId(0)),
            });
        }
    }
    let mut bestk_table = Table::new(
        "Async optimum (2/2) — aggregation size: best-k vs all vs full search",
        &["Model", "Strategy", "Final acc"],
    );
    for r in &bestk_rows {
        bestk_table.row_owned(vec![
            r.model.to_string(),
            r.strategy.to_string(),
            fmt_acc(r.final_accuracy),
        ]);
    }

    AsyncOptOutput {
        waitk_table,
        bestk_table,
        waitk_rows,
        bestk_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, Profile};

    #[test]
    fn asyncopt_shapes_and_orderings() {
        let data = prepare(Profile::tiny());
        let out = run_asyncopt(&data);
        assert_eq!(out.waitk_rows.len(), 3);
        // 2 models × {best-1, best-2, all, consider}.
        assert_eq!(out.bestk_rows.len(), 8);
        for r in &out.bestk_rows {
            assert!((0.0..=1.0).contains(&r.final_accuracy), "{:?}", r);
        }
        // Waiting less can never increase the mean wait.
        assert!(out.waitk_rows[2].mean_wait_secs <= out.waitk_rows[0].mean_wait_secs + 1e-9);
        for r in &out.waitk_rows {
            assert!((0.0..=1.0).contains(&r.final_accuracy));
            assert!(r.age_max_secs >= r.age_mean_secs);
            assert!(r.mean_updates_used >= 1.0);
        }
    }

    #[test]
    fn waiting_for_fewer_updates_uses_fewer_models() {
        let data = prepare(Profile::tiny());
        let out = run_asyncopt(&data);
        let all = &out.waitk_rows[0];
        let one = &out.waitk_rows[2];
        assert!(
            one.mean_updates_used <= all.mean_updates_used,
            "wait-1 {} vs wait-all {}",
            one.mean_updates_used,
            all.mean_updates_used
        );
    }
}
