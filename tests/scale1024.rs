//! The 512- and 1024-peer committee cells: hierarchical committee
//! aggregation plus epidemic announcement fan-out carry cells two and four
//! times past the old 256-peer mask ceiling. Each must run green (every peer
//! merges every round) under its committed gossip-byte ceiling; the 1024-peer
//! cell must also confirm on-chain masks with bits ≥ 256 (impossible before
//! the widening) and replay bit-identically at any worker count. The 1025th
//! peer must be rejected gracefully at the widened boundary.
//!
//! The 512-peer cell adds about a minute and only a gossip ceiling, so it is
//! `#[ignore]`d out of the default run and certified by
//! `cargo test --release -q -- --ignored`.

mod common;

use blockfed::core::{CommitteeSpec, ConfigError};
use blockfed::fl::Strategy;
use blockfed::net::GossipMode;
use blockfed::scenario::{CellReport, DataSpec, ScenarioRunner, ScenarioSpec};
use common::thread_guard;

/// An `n`-peer cell sharded into 16 contiguous committees. Tier-1
/// aggregation stays linear via `BestK(48)` inside each committee; the tier-2
/// merge records a union mask over every participating member, so bits in
/// the top committee are guaranteed on chain. Difficulty scales with the
/// population so block cadence stays at the 48-peer cell's level, and
/// epidemic fan-out keeps announcement traffic off the edge-count curve.
fn committee_spec(n: usize) -> ScenarioSpec {
    ScenarioSpec::new(format!("scale{n}-committee"), n)
        .rounds(1)
        .consider_cutover(6, 48)
        .difficulty(200_000 * n as u128 / 48)
        .gossip(GossipMode::Epidemic { fanout: 3 })
        .committees(CommitteeSpec::contiguous(16))
        .data(DataSpec::scaled_for(n))
        .seed(n as u64 * 100)
}

/// Asserts every peer recorded and merged every round, and that the cell's
/// announcements stayed under `ceiling` bytes (a flat announce/fetch
/// extrapolation already crosses 750 MB at 512 peers).
fn assert_green_under(cell: &CellReport, ceiling: u64) {
    let peer_rounds = cell.peers * cell.rounds as usize;
    assert_eq!(cell.records, peer_rounds, "rounds incomplete: {cell:?}");
    assert_eq!(
        cell.committee_rounds(),
        peer_rounds as u64,
        "every peer must complete a tier-2 merge every round: {cell:?}"
    );
    assert!(cell.mean_final_accuracy > 0.0);
    assert!(cell.blocks > 0);
    assert!(
        cell.gossip_bytes <= ceiling,
        "{} gossip regressed past its ceiling: {} > {ceiling}",
        cell.name,
        cell.gossip_bytes
    );
}

#[test]
#[ignore = "about a minute in release; run with `cargo test --release -- --ignored`"]
fn committee_cell_at_512_peers_runs_green_under_its_gossip_ceiling() {
    let cell = ScenarioRunner::new().run(&committee_spec(512).rounds(2).seed(512));
    assert_green_under(&cell, 380_000_000);
}

#[test]
fn thousand_peer_committee_cell_runs_green_with_wide_masks_at_any_thread_count() {
    let _g = thread_guard();
    let spec = committee_spec(1024);
    assert_eq!(
        spec.resolved_strategy(),
        Strategy::BestK(48),
        "1024 peers must resolve past the Consider→BestK cutover"
    );
    let run_at = |threads: usize| -> CellReport {
        blockfed::compute::set_threads(threads);
        let cell = ScenarioRunner::new().run(&spec);
        blockfed::compute::set_threads(0);
        cell
    };
    let single = run_at(1);
    assert_green_under(&single, 1_500_000_000);
    // The on-chain masks addressed the region past the old 256-bit ceiling.
    let widest = single.max_mask_bit.expect("aggregates recorded");
    assert!(
        widest >= 256,
        "no recorded combination mask crossed bit 256 (max {widest})"
    );
    // The committee tier metered its own traffic, and epidemic announcements
    // keep the flood term below the pulled payloads.
    assert!(single.tier2_gossip_bytes() > 0);
    assert!(single.tier2_gossip_bytes() <= single.gossip_bytes);
    assert!(single.tier2_fetch_bytes() <= single.fetch_bytes);
    assert!(
        single.gossip_bytes < single.fetch_bytes,
        "epidemic announcements must undercut the pulled payloads: gossip {} !< fetch {}",
        single.gossip_bytes,
        single.fetch_bytes
    );
    // Same seed, eight workers: bit-identical simulation (report equality
    // already excludes host wall-clock).
    let eight = run_at(8);
    assert_eq!(single, eight, "thread count changed the simulation");
}

#[test]
fn the_1025th_peer_is_rejected_gracefully_at_the_new_boundary() {
    // One past the mask's native 1024-bit width, the committee cell is
    // refused with the typed message instead of a panic; at the cap itself
    // it validates.
    let err = committee_spec(1025).validate().unwrap_err();
    assert!(err.contains("at most 1024 peers"), "{err}");
    assert_eq!(err, ConfigError::TooManyPeers { got: 1025 }.to_string());
    committee_spec(1024).validate().unwrap();
}
