//! # blockfed-telemetry
//!
//! Deterministic structured tracing for the blockfed stack.
//!
//! The simulation is bit-reproducible from a seed, and telemetry must keep
//! it that way. The design splits observation into two layers:
//!
//! 1. **Trace records** ([`TraceRecord`]): span begins/ends and instant
//!    events stamped with **virtual sim time**, emitted through a
//!    [`Telemetry`] handle into a [`TraceSink`]. The [`NoopSink`] reduces
//!    every emission site to a branch on a cached bool, and span ids are
//!    allocated identically whether tracing is on or off — so a traced run
//!    is bit-identical to an untraced one (enforced by the
//!    `telemetry_invariance` test suite).
//! 2. **Metrics** ([`MetricSet`]): counters/gauges/histograms folded
//!    unconditionally during the run (wait time per round, staleness
//!    distribution, fetch-retry latency). Deterministic and comparable;
//!    this is what lands in `CellReport` and the bench JSON.
//!
//! Host wall-clock time belongs to neither layer.
//!
//! Exports: [`jsonl`] writes one record per line with a self-contained
//! schema validator; [`chrome`] renders a Chrome-trace / Perfetto document.
//!
//! ## Adding spans in a new subsystem
//!
//! Take `&mut Telemetry` (or reach the run's handle), then:
//!
//! ```
//! use blockfed_telemetry::{MemorySink, Telemetry};
//! use blockfed_sim::SimTime;
//!
//! let mut sink = MemorySink::new();
//! let mut tel = Telemetry::new(&mut sink);
//! // Open a span on a track (peer index, or RUN_TRACK for run-level)...
//! let id = tel.begin(SimTime::ZERO, "committee.merge", 0, || {
//!     vec![("members", 8u32.into())]
//! });
//! // ...and close it with the same name/track/id. Attr closures only run
//! // when a real sink is attached, so emission is free when tracing is off.
//! tel.end(SimTime::from_millis(3), "committee.merge", 0, id, Vec::new);
//! assert_eq!(sink.records().len(), 2);
//! ```
//!
//! Rules: stamp records with sim time only (never `Instant::now()`); never
//! draw simulation RNG inside an attr closure; pick dotted lowercase names
//! (`subsystem.verb`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod chrome;
pub mod jsonl;
mod metrics;
mod record;
mod sink;

pub use metrics::{Histogram, MetricSet};
pub use record::{Attr, AttrValue, RecordKind, TraceRecord, RUN_TRACK};
pub use sink::{MemorySink, NoopSink, Telemetry, TraceSink};
