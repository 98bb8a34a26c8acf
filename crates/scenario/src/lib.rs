//! `blockfed-scenario`: the declarative scenario engine.
//!
//! The paper evaluates one fixed topology — three healthy peers on a LAN —
//! and explicitly leaves "an arbitrary number of local updates on each peer
//! in asynchronous communication" to future work. This crate turns that
//! future work into data: a [`ScenarioSpec`] declares an N-peer run
//! (heterogeneous compute, topology, links, wait/seal policies, aggregation
//! strategy, staleness decay, adversaries) plus a timeline of faults
//! (partitions, heals, peer churn, hash-rate shocks); a [`ScenarioMatrix`]
//! varies it along axes; and the [`ScenarioRunner`] executes whole matrices
//! in parallel on the `blockfed-compute` worker pool, folding every cell into
//! a [`ScenarioReport`] (accuracy / wait / fork-rate / bytes-gossiped per
//! cell) that renders as a table or as machine-readable
//! `BENCH_scenarios.json`.
//!
//! Determinism contract: a spec's `seed` fully determines its report
//! (modulo host wall-clock, which is excluded from report equality), at any
//! `BLOCKFED_THREADS` setting.
//!
//! # Examples
//!
//! ```no_run
//! use blockfed_scenario::{ScenarioMatrix, ScenarioRunner, ScenarioSpec};
//! use blockfed_fl::WaitPolicy;
//!
//! // A 10-peer run with a mid-run partition and churn…
//! let spec = ScenarioSpec::new("frontier", 10)
//!     .rounds(3)
//!     .partition_at(5.0, &[0, 1], &[2, 3, 4])
//!     .heal_at(15.0)
//!     .join_at(20.0, 9)
//!     .leave_at(30.0, 1);
//! // …swept over wait policies and seeds, executed in parallel.
//! let matrix = ScenarioMatrix::new(spec)
//!     .vary_wait(&[WaitPolicy::All, WaitPolicy::FirstK(5)])
//!     .vary_seed(&[1, 2]);
//! let report = ScenarioRunner::new().run_matrix(&matrix);
//! println!("{}", report.table());
//! report.write_json("results").unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod matrix;
pub mod report;
pub mod runner;
pub mod spec;

pub use matrix::{ScenarioMatrix, DEFAULT_PEER_AXIS};
pub use report::{CellReport, ScenarioReport};
pub use runner::ScenarioRunner;
pub use spec::{DataSpec, ScenarioSpec};
