//! The adaptive-difficulty ablation — §II-A2's Sethi et al. reference:
//! predictive difficulty control "to enhance blockchain performance,
//! especially in the usage of blockchain-based FL where the number of
//! participants is flexible".
//!
//! Simulates a miner-population shock (participants join at one point, leave
//! at another) and measures how quickly each retarget rule restores the ~13 s
//! cadence. The Homestead fixed step is the control arm; the epochal
//! moving-average and PI-controller rules stand in for the learned predictor,
//! which cannot be reproduced offline.

use blockfed_chain::pow::TARGET_BLOCK_TIME_NS;
use blockfed_chain::{simulate_cadence, DifficultyController, RetargetRule};
use blockfed_report::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the retarget study.
#[derive(Debug, Clone, PartialEq)]
pub struct RetargetRow {
    /// The rule evaluated.
    pub rule: RetargetRule,
    /// Mean cadence over the tail of the calm phase (seconds).
    pub calm_cadence_secs: f64,
    /// Mean cadence over the tail of the 4×-miners phase (seconds).
    pub join_cadence_secs: f64,
    /// Mean cadence over the tail of the miners-left phase (seconds).
    pub leave_cadence_secs: f64,
    /// Relative cadence error across both post-shock windows.
    pub shock_error: f64,
}

/// Output of the retarget study.
pub struct RetargetOutput {
    /// The rendered table.
    pub table: Table,
    /// The raw rows.
    pub rows: Vec<RetargetRow>,
}

/// The rules compared.
pub fn retarget_rules() -> Vec<RetargetRule> {
    vec![
        RetargetRule::Homestead,
        RetargetRule::MovingAverage { window: 8 },
        RetargetRule::Pi { kp: 0.3, ki: 0.05 },
    ]
}

/// Runs the miner-population shock scenario for every rule.
///
/// Schedule: blocks 0–99 at base hash rate, 100–199 at 4× (peers join),
/// 200–299 back at base (peers leave). Each phase's cadence is measured over
/// its **last 60 blocks**, i.e. "did the rule recover the 13 s target before
/// the phase ended" — a rule that never adapts fails the join phase; a rule
/// that adapts but cannot un-adapt fails the leave phase.
pub fn run_retarget(seed: u64) -> RetargetOutput {
    let target_s = TARGET_BLOCK_TIME_NS as f64 / 1e9;
    let base = 240_000.0; // three paper VMs' pooled hash rate
    let schedule = move |b: usize| -> f64 {
        if (100..200).contains(&b) {
            4.0 * base
        } else {
            base
        }
    };
    let initial = (base * target_s) as u128;

    let mut rows = Vec::new();
    for rule in retarget_rules() {
        let mut controller = DifficultyController::new(rule, initial);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let intervals = simulate_cadence(&mut controller, schedule, 300, &mut rng);
        let mean = |range: std::ops::Range<usize>| -> f64 {
            let slice = &intervals[range];
            slice.iter().sum::<f64>() / slice.len() as f64
        };
        let calm = mean(40..100);
        let join = mean(140..200);
        let leave = mean(240..300);
        let shock_error = ((join - target_s).abs() + (leave - target_s).abs()) / (2.0 * target_s);
        rows.push(RetargetRow {
            rule,
            calm_cadence_secs: calm,
            join_cadence_secs: join,
            leave_cadence_secs: leave,
            shock_error,
        });
    }

    let mut table = Table::new(
        "Difficulty retarget — cadence through a miner-population shock (target 13 s)",
        &[
            "Rule",
            "Calm (s)",
            "After join (s)",
            "After leave (s)",
            "Shock error",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.rule.to_string(),
            format!("{:.2}", r.calm_cadence_secs),
            format!("{:.2}", r.join_cadence_secs),
            format!("{:.2}", r.leave_cadence_secs),
            format!("{:.3}", r.shock_error),
        ]);
    }
    RetargetOutput { table, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_rules_absorb_the_shock_better() {
        // Average over seeds: single-run tail means still carry exponential
        // noise; Homestead's failure to adapt is structural and dominates.
        let mut errs = [0.0f64; 3];
        for seed in [42, 43, 44] {
            let out = run_retarget(seed);
            assert_eq!(out.rows.len(), 3);
            for (e, r) in errs.iter_mut().zip(&out.rows) {
                *e += r.shock_error / 3.0;
            }
        }
        let homestead = errs[0];
        for (i, err) in errs.iter().enumerate().skip(1) {
            assert!(
                *err < homestead,
                "rule #{i} error {err} not better than homestead {homestead}"
            );
        }
    }

    #[test]
    fn calm_cadence_is_near_target_for_all_rules() {
        let out = run_retarget(7);
        for r in &out.rows {
            assert!(
                (r.calm_cadence_secs - 13.0).abs() < 5.0,
                "{}: calm cadence {}",
                r.rule,
                r.calm_cadence_secs
            );
        }
    }
}
