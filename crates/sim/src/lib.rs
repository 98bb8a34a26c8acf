//! Deterministic discrete-event simulation kernel for the `blockfed` workspace.
//!
//! Everything in the blockchain-based federated-learning experiments that involves
//! *time* — network propagation, proof-of-work mining races, local training delays,
//! asynchronous aggregation deadlines — runs on this kernel so that a whole
//! decentralized experiment is reproducible bit-for-bit from a single seed.
//!
//! The kernel deliberately stays small:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a stable (FIFO-on-ties) priority queue of timestamped events,
//! * [`Scheduler`] — an event queue fused with a clock that only moves forward,
//! * [`RngHub`] — named, independently seeded random streams derived from one seed,
//! * [`dist`] — the handful of distributions the experiments need (exponential
//!   mining delays, uniform jitter).
//!
//! What happened when is not recorded here: runs emit structured spans and
//! events through `blockfed-telemetry`.
//!
//! # Examples
//!
//! ```
//! use blockfed_sim::{Scheduler, SimDuration};
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! sched.schedule_after(SimDuration::from_millis(5), "second");
//! sched.schedule_after(SimDuration::from_millis(1), "first");
//! let (t1, ev1) = sched.next().unwrap();
//! assert_eq!(ev1, "first");
//! assert_eq!(t1, blockfed_sim::SimTime::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod dist;
pub mod event;
pub mod rng;
pub mod time;

pub use dist::{Exponential, UniformJitter};
pub use event::{EventQueue, Scheduler};
pub use rng::{splitmix64, RngHub};
pub use time::{SimDuration, SimTime};
