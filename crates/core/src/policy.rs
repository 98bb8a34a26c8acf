//! The adaptive per-round policy controller.
//!
//! The paper's central question — wait for every update or aggregate what's
//! there — is answered *statically* per run everywhere else in this
//! workspace. This module closes the loop with one controller, a threshold
//! rule ([`RuleConfig`]): it observes the first aggregation of each round
//! (the wait it cost, the staleness of the updates it consumed, the accuracy
//! change) and emits [`PolicyDecision`]s that re-tune the wait policy or the
//! staleness decay **from the next round on**.
//!
//! Runs carry the rule as plain data ([`ControllerSpec`]) so scenario specs
//! stay `Clone + PartialEq` and matrix cells can dedup on equality. The rule
//! draws no randomness, so a controlled run is bit-identical at any
//! `BLOCKFED_THREADS`, and a rule that never fires reproduces the static run
//! exactly.

use blockfed_fl::{StalenessDecay, WaitPolicy};
use blockfed_sim::SimTime;
use std::fmt;

/// What the rule sees about the first aggregation of a round, derived from
/// state the orchestrator already tracks.
pub(crate) struct RoundObservation {
    /// Virtual seconds the aggregating peer spent between finishing local
    /// training and aggregating — the price of waiting.
    pub wait_secs: f64,
    /// Mean staleness (virtual seconds between an update's publication and
    /// its aggregation) over the updates this aggregation consumed.
    pub staleness_mean_secs: f64,
    /// Accuracy change versus the previous observed round (`0.0` on the
    /// first observation).
    pub accuracy_delta: f64,
    /// The live peers of the aggregating peer's committee: the bar its wait
    /// policy measured against (every live peer in a flat run).
    pub active_peers: usize,
    /// The wait policy the observed round ran under.
    pub wait_policy: WaitPolicy,
    /// The staleness decay the observed round ran under.
    pub staleness_decay: Option<StalenessDecay>,
}

/// One knob change the rule requests, applied from the next round on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyDecision {
    /// Switch the wait policy (All ↔ FirstK).
    SetWaitPolicy(WaitPolicy),
    /// Replace (or clear) the staleness re-weighting.
    SetStalenessDecay(Option<StalenessDecay>),
}

impl fmt::Display for PolicyDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyDecision::SetWaitPolicy(p) => write!(f, "wait={p}"),
            PolicyDecision::SetStalenessDecay(Some(d)) => write!(f, "decay={d:?}"),
            PolicyDecision::SetStalenessDecay(None) => write!(f, "decay=off"),
        }
    }
}

/// One applied decision, stamped with when and for which round it fired —
/// the entries of the decision log on `DecentralizedRun`.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEvent {
    /// The round whose aggregation triggered the decision.
    pub round: u32,
    /// Virtual time the decision was made.
    pub at: SimTime,
    /// What changed.
    pub decision: PolicyDecision,
}

/// Thresholds for the rule-based controller (all in virtual seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleConfig {
    /// Waits above this trip the All → FirstK demotion.
    pub wait_high_secs: f64,
    /// Waits below this (with accuracy falling) trip FirstK → All promotion.
    pub wait_low_secs: f64,
    /// Fraction of the committee's live peers a demoted FirstK keeps
    /// (clamped to ≥ 2).
    pub keep_fraction: f64,
    /// Mean staleness above this enables polynomial staleness decay if none
    /// is set.
    pub staleness_high_secs: f64,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            wait_high_secs: 5.0,
            wait_low_secs: 1.0,
            keep_fraction: 0.5,
            staleness_high_secs: 10.0,
        }
    }
}

impl RuleConfig {
    /// The decisions `obs` trips: pure rules, stateless across rounds (the
    /// observation carries the current policy).
    pub(crate) fn decide(&self, obs: &RoundObservation) -> Vec<PolicyDecision> {
        let mut out = Vec::new();
        match obs.wait_policy {
            WaitPolicy::All if obs.wait_secs > self.wait_high_secs => {
                let k = ((obs.active_peers as f64 * self.keep_fraction).ceil() as usize).max(2);
                if k < obs.active_peers {
                    out.push(PolicyDecision::SetWaitPolicy(WaitPolicy::FirstK(k)));
                }
            }
            WaitPolicy::FirstK(_)
                if obs.wait_secs < self.wait_low_secs && obs.accuracy_delta < 0.0 =>
            {
                out.push(PolicyDecision::SetWaitPolicy(WaitPolicy::All));
            }
            _ => {}
        }
        if obs.staleness_mean_secs > self.staleness_high_secs && obs.staleness_decay.is_none() {
            out.push(PolicyDecision::SetStalenessDecay(Some(
                StalenessDecay::Polynomial { a: 0.5 },
            )));
        }
        out
    }
}

/// The controller a run carries: the threshold rule's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSpec {
    /// The rule's thresholds.
    pub rule: RuleConfig,
}

impl ControllerSpec {
    /// The rule-based controller with the given thresholds.
    pub fn threshold(rule: RuleConfig) -> Self {
        ControllerSpec { rule }
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let cfg = &self.rule;
        if !(cfg.keep_fraction > 0.0 && cfg.keep_fraction <= 1.0) {
            return Err(format!(
                "controller keep_fraction must be in (0, 1], got {}",
                cfg.keep_fraction
            ));
        }
        if cfg.wait_high_secs < cfg.wait_low_secs {
            return Err("controller wait_high_secs must be >= wait_low_secs".into());
        }
        Ok(())
    }
}

impl fmt::Display for ControllerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(wait: f64, policy: WaitPolicy) -> RoundObservation {
        RoundObservation {
            wait_secs: wait,
            staleness_mean_secs: 0.0,
            accuracy_delta: 0.0,
            active_peers: 8,
            wait_policy: policy,
            staleness_decay: None,
        }
    }

    #[test]
    fn threshold_demotes_slow_wait_all_and_promotes_back() {
        let spec = ControllerSpec::threshold(RuleConfig::default());
        spec.validate().unwrap();
        let c = &spec.rule;
        let d = c.decide(&obs(8.0, WaitPolicy::All));
        assert_eq!(
            d,
            vec![PolicyDecision::SetWaitPolicy(WaitPolicy::FirstK(4))]
        );
        // Fast round with falling accuracy under FirstK promotes back.
        let mut o = obs(0.5, WaitPolicy::FirstK(4));
        o.accuracy_delta = -0.01;
        let d = c.decide(&o);
        assert_eq!(d, vec![PolicyDecision::SetWaitPolicy(WaitPolicy::All)]);
        // A fast round with rising accuracy leaves the knobs alone.
        let mut o = obs(0.5, WaitPolicy::FirstK(4));
        o.accuracy_delta = 0.01;
        assert!(c.decide(&o).is_empty());
    }

    #[test]
    fn threshold_enables_decay_on_high_staleness() {
        let c = RuleConfig::default();
        let mut o = obs(0.5, WaitPolicy::All);
        o.staleness_mean_secs = 30.0;
        assert_eq!(
            c.decide(&o),
            vec![PolicyDecision::SetStalenessDecay(Some(
                StalenessDecay::Polynomial { a: 0.5 }
            ))]
        );
        // Already decayed rounds are left alone.
        o.staleness_decay = Some(StalenessDecay::Polynomial { a: 0.5 });
        assert!(c.decide(&o).is_empty());
    }

    #[test]
    fn validation_catches_bad_specs() {
        let bad = ControllerSpec::threshold(RuleConfig {
            keep_fraction: 0.0,
            ..RuleConfig::default()
        });
        assert!(bad.validate().is_err());
        let bad = ControllerSpec::threshold(RuleConfig {
            wait_high_secs: 0.5,
            ..RuleConfig::default()
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn display_names_are_compact() {
        assert_eq!(
            ControllerSpec::threshold(RuleConfig::default()).to_string(),
            "rule"
        );
    }
}
