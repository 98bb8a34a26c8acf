//! Helpers shared by the integration suites: the lock around the global
//! compute-thread override, and the 48-peer certification cell with its
//! committed byte accounting.

#![allow(dead_code)]

use blockfed::scenario::{DataSpec, ScenarioSpec};

/// Gossip bytes the lossless [`bestk48`] cell moves under announce/fetch —
/// the committed accounting (`BENCH_scenarios.json`) every equivalent layout
/// of the cell must reproduce exactly.
pub const BESTK48_GOSSIP_BYTES: u64 = 6_593_536;

/// Fetch bytes of the lossless [`bestk48`] cell under announce/fetch.
pub const BESTK48_FETCH_BYTES: u64 = 45_120_000;

/// Serializes tests that flip the global thread override.
pub fn thread_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The 48-peer best-k cell: past the old 32-peer (u32 combination-mask)
/// ceiling, a requested `Consider` forced through the cutover onto
/// `BestK(40)`, so the linear arm runs and every recorded aggregate's mask
/// spans bits ≥ 32.
pub fn bestk48() -> ScenarioSpec {
    ScenarioSpec::new("bestk48", 48)
        .rounds(2)
        .consider_cutover(6, 40)
        .data(DataSpec::scaled_for(48))
        .seed(48)
}
