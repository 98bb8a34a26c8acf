//! Federated-learning core: FedAvg, aggregation strategies, wait policies and
//! the Vanilla (centralized) FL driver the paper compares against.
//!
//! The decentralized, blockchain-coupled variant lives in `blockfed-core`; this
//! crate is deliberately independent of the chain so the two settings share the
//! exact same learning machinery.
//!
//! # Examples
//!
//! ```
//! use blockfed_fl::{fed_avg, ClientId, ModelUpdate};
//!
//! let a = ModelUpdate::new(ClientId(0), 1, vec![1.0, 1.0], 10);
//! let b = ModelUpdate::new(ClientId(1), 1, vec![3.0, 5.0], 10);
//! assert_eq!(fed_avg(&[&a, &b])?, vec![2.0, 3.0]);
//! # Ok::<(), blockfed_fl::AggregateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_policy;
pub mod attack;
pub mod fedavg;
pub mod round;
pub mod selector;
pub mod staleness;
pub mod strategy;
pub mod update;

pub use async_policy::WaitPolicy;
pub use attack::{Adversary, Attack};
pub use fedavg::{fed_avg, AggregateError};
pub use round::{RoundRecord, VanillaFl, VanillaFlConfig, VanillaRun};
pub use selector::{all_combinations, Combination};
pub use staleness::{AgeOfBlock, StalenessDecay};
pub use strategy::{aggregate, aggregate_with, AggregationOutcome, CandidateEvaluator, Strategy};
pub use update::{ClientId, ModelUpdate};
