//! The poisoning / non-repudiation study — the paper's stated future work:
//! "deploying and evaluating the robustness of this method on the
//! non-repudiation in various poisonous data attacks".
//!
//! [`run_poisoning`] runs the fully coupled decentralized system under one
//! compromised peer mounting each attack, with the paper's fitness gate and
//! the statistical norm gate on or off. It reports honest-peer accuracy, how
//! often the attacker was detected and dropped, and whether the on-chain
//! evidence pins the poisoned artefact to its author (non-repudiation).

use blockfed_fl::{Adversary, Attack, ClientId, WaitPolicy};
use blockfed_report::{fmt_acc, Table};

use crate::{decentralized_scenario, ModelSel, PreparedData};

/// The attack suite swept by [`run_poisoning`].
pub fn attack_suite() -> Vec<Attack> {
    vec![
        Attack::Scale { factor: 50.0 },
        Attack::SignFlip { scale: 1.0 },
        Attack::GaussianNoise { sigma: 0.5 },
        Attack::Constant { value: 0.0 },
        Attack::NanInjection { fraction: 1.0 },
    ]
}

/// One row of the on-chain poisoning study.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisoningRow {
    /// The attack peer A mounts.
    pub attack: Attack,
    /// Whether the fitness + norm gates were enabled.
    pub defended: bool,
    /// Mean final-round accuracy of the two honest peers.
    pub honest_accuracy: f64,
    /// Rounds (out of the total) in which at least one honest peer dropped
    /// the attacker's model.
    pub detected_rounds: u32,
    /// Rounds in which an honest peer's *chosen* combination still included
    /// the attacker.
    pub absorbed_rounds: u32,
    /// Whether the non-repudiation audit reproduced signed on-chain evidence
    /// binding the attacker to a poisoned artefact.
    pub evidence_ok: bool,
}

/// Output of the on-chain poisoning study.
pub struct PoisoningOutput {
    /// The rendered table.
    pub table: Table,
    /// The raw rows.
    pub rows: Vec<PoisoningRow>,
}

/// Runs the decentralized system (SimpleNN) with peer A compromised, for every
/// attack × {undefended, defended} arm.
pub fn run_poisoning(data: &PreparedData) -> PoisoningOutput {
    let mut rows = Vec::new();
    for attack in attack_suite() {
        for defended in [false, true] {
            rows.push(poisoning_arm(data, attack.clone(), defended));
        }
    }
    let mut table = Table::new(
        "Poisoning — attacks on the fully coupled system (peer A compromised)",
        &[
            "Attack",
            "Defended",
            "Honest acc",
            "Detected rounds",
            "Absorbed rounds",
            "Evidence",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.attack.to_string(),
            if r.defended { "fitness+norm" } else { "none" }.to_string(),
            fmt_acc(r.honest_accuracy),
            r.detected_rounds.to_string(),
            r.absorbed_rounds.to_string(),
            if r.evidence_ok {
                "signed+anchored"
            } else {
                "MISSING"
            }
            .to_string(),
        ]);
    }
    PoisoningOutput { table, rows }
}

fn poisoning_arm(data: &PreparedData, attack: Attack, defended: bool) -> PoisoningRow {
    let sel = ModelSel::Simple;
    let mut spec = decentralized_scenario(data, sel, WaitPolicy::All, None)
        .named(format!(
            "poisoning-{attack}-{}",
            if defended { "defended" } else { "open" }
        ))
        .adversary(Adversary::new(ClientId(0), attack.clone()));
    if defended {
        // Slightly above chance on the peer's own test data; and a loose
        // cohort-norm gate. Both mirror §III's "ignored" semantics.
        spec = spec
            .fitness_threshold(1.2 / data.profile.synth.num_classes as f64)
            .norm_z_threshold(1.2);
    }
    let mut factory = data.model_factory(sel);
    let run = spec.run_with(data.shards(sel), data.peer_tests(sel), &mut *factory);

    let honest_accuracy = (1..3).map(|p| run.final_accuracy(p)).sum::<f64>() / 2.0;
    let mut detected = std::collections::BTreeSet::new();
    let mut absorbed = std::collections::BTreeSet::new();
    for peer in 1..3 {
        for r in &run.peer_records[peer] {
            if r.dropped.iter().any(|d| d.starts_with("A:")) {
                detected.insert(r.round);
            }
            if r.chosen.split(',').any(|c| c == "A") {
                absorbed.insert(r.round);
            }
        }
    }
    // Non-repudiation: every poisoned submission must still be provably A's.
    // The attack mutated the params before signing, so the evidence chain
    // (signature → tx → merkle root → PoW block) pins A to the artefact.
    let attacker_audits: Vec<_> = run
        .audits
        .iter()
        .filter(|a| a.client == ClientId(0))
        .collect();
    let evidence_ok = !attacker_audits.is_empty() && attacker_audits.iter().all(|a| a.verified);

    PoisoningRow {
        attack,
        defended,
        honest_accuracy,
        detected_rounds: detected.len() as u32,
        absorbed_rounds: absorbed.len() as u32,
        evidence_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, Profile};

    #[test]
    fn poisoning_matrix_shape_and_evidence() {
        let data = prepare(Profile::tiny());
        let out = run_poisoning(&data);
        // 5 attacks × {undefended, defended}.
        assert_eq!(out.rows.len(), 10);
        for r in &out.rows {
            assert!(
                r.evidence_ok,
                "evidence missing for {} defended={}",
                r.attack, r.defended
            );
            assert!((0.0..=1.0).contains(&r.honest_accuracy));
        }
    }

    #[test]
    fn defended_arms_detect_blatant_attacks() {
        let data = prepare(Profile::tiny());
        let out = run_poisoning(&data);
        let find = |attack: &Attack, defended: bool| {
            out.rows
                .iter()
                .find(|r| &r.attack == attack && r.defended == defended)
                .expect("row exists")
        };
        // Malformed payloads are screened even without gates.
        let nan = Attack::NanInjection { fraction: 1.0 };
        assert!(find(&nan, false).detected_rounds > 0);
        assert!(find(&nan, true).detected_rounds > 0);
        assert_eq!(find(&nan, true).absorbed_rounds, 0);
        // A 50x boost trips the norm gate whenever defences are on.
        let scale = Attack::Scale { factor: 50.0 };
        assert!(find(&scale, true).detected_rounds > 0);
        assert_eq!(find(&scale, true).absorbed_rounds, 0);
    }
}
