//! Typed configuration errors for the decentralized orchestrator.
//!
//! Oversize or inconsistent configurations used to die on `assert!`s deep in
//! [`crate::orchestrator::Decentralized::new`]; callers that assemble runs
//! from external input (the scenario engine, benches, services) need a value
//! they can match on and surface instead. [`ConfigError`]'s `Display` forms
//! are stable prefixes, and `ScenarioSpec::validate` calls
//! [`crate::DecentralizedConfig::validate`] on the run config the spec
//! wraps, so a spec and the orchestrator reject the same configuration with
//! the same words.

use crate::orchestrator::MAX_PEERS;

/// Why a [`crate::DecentralizedConfig`] (plus its data) cannot be run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Fewer than two peers.
    TooFewPeers {
        /// The offending peer count.
        got: usize,
    },
    /// More peers than the orchestrator supports.
    TooManyPeers {
        /// The offending peer count.
        got: usize,
    },
    /// Train-shard and test-set counts disagree.
    ShardTestMismatch {
        /// Number of training shards.
        shards: usize,
        /// Number of per-peer test sets.
        tests: usize,
    },
    /// The fault/churn timeline references peers that do not exist or is
    /// otherwise inconsistent.
    InvalidTimeline(String),
    /// A compute profile failed validation.
    InvalidCompute(String),
    /// The number of compute profiles differs from the peer count.
    PerPeerComputeMismatch {
        /// Profiles provided.
        profiles: usize,
        /// Peers configured.
        peers: usize,
    },
    /// An adversary names a peer that does not exist.
    AdversaryOutOfRange {
        /// The peer the adversary names.
        peer: usize,
        /// Peers configured.
        peers: usize,
    },
    /// A strategy switch at round 0 (rounds are 1-based).
    ZeroSwitchRound,
    /// Zero communication rounds requested.
    ZeroRounds,
    /// A mini-batch size of zero (training could never form a batch).
    ZeroBatchSize,
    /// The link profile is invalid (e.g. a loss rate outside `[0, 1]`).
    /// Carries the link error's rendered form so the variant stays `Eq`.
    InvalidLink(String),
    /// The adaptive policy controller is misconfigured (a `keep_fraction`
    /// outside `(0, 1]`, or `wait_high_secs` below `wait_low_secs`).
    InvalidController(String),
    /// The committee layout is inconsistent with the peer count (e.g. more
    /// committees than peers).
    InvalidCommittees(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewPeers { got } => {
                write!(f, "need at least two peers (got {got})")
            }
            ConfigError::TooManyPeers { got } => write!(
                f,
                "at most {MAX_PEERS} peers are supported (got {got}); combination masks cap at {MAX_PEERS} bits"
            ),
            ConfigError::ShardTestMismatch { shards, tests } => {
                write!(f, "shard/test count mismatch ({shards} shards, {tests} tests)")
            }
            ConfigError::InvalidTimeline(e) => write!(f, "invalid fault timeline: {e}"),
            ConfigError::InvalidCompute(e) => write!(f, "invalid compute profile: {e}"),
            ConfigError::PerPeerComputeMismatch { profiles, peers } => write!(
                f,
                "per-peer compute count mismatch ({profiles} profiles, {peers} peers)"
            ),
            ConfigError::AdversaryOutOfRange { peer, peers } => write!(
                f,
                "adversary references peer {peer}, but only {peers} peers exist"
            ),
            ConfigError::ZeroSwitchRound => {
                write!(f, "strategy_switch round is 1-based and must be positive")
            }
            ConfigError::ZeroRounds => write!(f, "need at least one round"),
            ConfigError::ZeroBatchSize => write!(f, "batch size must be positive"),
            ConfigError::InvalidLink(e) => write!(f, "invalid link profile: {e}"),
            ConfigError::InvalidController(e) => write!(f, "invalid policy controller: {e}"),
            ConfigError::InvalidCommittees(e) => write!(f, "invalid committee spec: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_are_stable() {
        // The panic-path tests and ScenarioSpec::validate match on these.
        assert!(ConfigError::TooFewPeers { got: 1 }
            .to_string()
            .starts_with("need at least two peers"));
        let many = ConfigError::TooManyPeers { got: 1025 }.to_string();
        assert!(many.contains("at most 1024 peers"), "{many}");
        assert!(ConfigError::InvalidTimeline("x".into())
            .to_string()
            .starts_with("invalid fault timeline"));
        assert!(ConfigError::InvalidCompute("x".into())
            .to_string()
            .starts_with("invalid compute profile"));
        assert!(ConfigError::ZeroRounds
            .to_string()
            .contains("at least one round"));
        assert!(ConfigError::ZeroBatchSize
            .to_string()
            .contains("batch size must be positive"));
        assert!(ConfigError::ShardTestMismatch {
            shards: 3,
            tests: 2
        }
        .to_string()
        .contains("shard/test count mismatch"));
        assert!(ConfigError::PerPeerComputeMismatch {
            profiles: 2,
            peers: 3
        }
        .to_string()
        .contains("per-peer compute count mismatch"));
        assert!(ConfigError::InvalidLink("loss".into())
            .to_string()
            .starts_with("invalid link profile"));
        assert!(ConfigError::InvalidCommittees("x".into())
            .to_string()
            .starts_with("invalid committee spec"));
    }
}
