//! `blockfed-core`: the paper's primary contribution — a **fully coupled
//! blockchain-based federated learning** system in which every participant is
//! simultaneously a trainer, an aggregator, and a blockchain peer.
//!
//! The crate wires the substrates together:
//!
//! * [`coupling`] — model updates become signed registry transactions on the
//!   `blockfed-chain` proof-of-work chain (via the `blockfed-vm` FL registry);
//! * [`orchestrator`] — the decentralized experiment as a deterministic
//!   discrete-event simulation: training, gossip, mining races, per-peer
//!   customized ("consider") aggregation and asynchronous wait policies;
//!   privately split into `node` (a peer's chain view), `round` (the round
//!   algorithm, network-free) and `driver` (the event loop);
//! * [`committee`] — the hierarchical layout: which committee each peer
//!   aggregates in before the cross-committee merge;
//! * [`policy`] — the adaptive threshold rule that retunes the wait policy
//!   and staleness decay at round boundaries;
//! * [`faults`] — the timed fault and churn timeline (partitions, joins,
//!   leaves, crashes, hash-rate shocks) and its validation;
//! * [`nonrepudiation`] — evidence bundles (signature + merkle inclusion +
//!   proof-of-work block) that make model authorship undeniable;
//! * [`anomaly`] — abnormal-model detectors (norm outliers, fitness gates);
//! * [`compute`] — the mining⇄training contention model behind the paper's
//!   "resource exhaustion due to dual tasks" observation;
//! * [`error`] — the typed configuration errors construction returns.
//!
//! The Vanilla (centralized) baseline lives in `blockfed-fl`; the experiment
//! harness regenerating every table and figure lives in `blockfed-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod anomaly;
pub mod committee;
pub mod compute;
pub mod coupling;
pub mod error;
pub mod faults;
pub mod nonrepudiation;
pub mod orchestrator;
pub mod policy;

pub use anomaly::{
    detect_degenerate, detect_norm_outliers, detect_unfit, AnomalyReason, AnomalyReport,
};
pub use blockfed_chain::{Blockchain, ChainStore, RetargetRule, StoreCounters};
pub use committee::{CommitteeAssignment, CommitteeSpec};
pub use compute::ComputeProfile;
pub use coupling::{
    confirmed_aggregate_records, confirmed_aggregates, confirmed_submissions, model_fingerprint,
    record_aggregate_tx, register_tx, submit_model_tx, AggregateRecord, ConfirmedAggregate,
    ConfirmedSubmission,
};
pub use error::ConfigError;
pub use faults::{validate_timeline, Fault, TimedFault};
pub use nonrepudiation::{collect_evidence, verify_evidence, AuditError, Evidence};
pub use orchestrator::{
    registry_address, AuditRecord, ChainStats, Decentralized, DecentralizedConfig,
    DecentralizedRun, PeerRoundRecord, MAX_PEERS,
};
pub use policy::{ControllerSpec, PolicyDecision, PolicyEvent, RuleConfig};
