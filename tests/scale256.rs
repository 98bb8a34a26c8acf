//! The 256-peer unlock, end to end: announce/fetch gossip plus the
//! scratch-buffer flood router carry a cell at the combination mask's native
//! width. The cell must run green, confirm aggregates whose masks set bits
//! ≥ 128 (impossible under the old 128-peer ceiling), replay bit-identically
//! at any worker count, and keep flood traffic at the digest-sized
//! announce term instead of payload × edges. Its 16-committee epidemic twin
//! must finish every round and move at most half the flat cell's bytes.

mod common;

use blockfed::core::CommitteeSpec;
use blockfed::fl::Strategy;
use blockfed::net::GossipMode;
use blockfed::scenario::{CellReport, DataSpec, ScenarioRunner, ScenarioSpec};
use common::thread_guard;

/// A 256-peer announce/fetch cell. `BestK(200)` keeps aggregation linear and
/// guarantees the chosen combination includes members past index 128: at
/// most 56 of the 200 members can sit below 128, so some mask bit ≥ 128 is
/// always set. Difficulty scales with the population so block cadence (and
/// the fork rate) stays at the 48-peer cell's level.
fn wide_spec() -> ScenarioSpec {
    ScenarioSpec::new("scale256", 256)
        .rounds(2)
        .consider_cutover(6, 200)
        .difficulty(200_000 * 256 / 48)
        .gossip(GossipMode::AnnounceFetch)
        .data(DataSpec::scaled_for(256))
        .seed(25_600)
}

#[test]
fn two_hundred_fifty_six_peer_cell_runs_green_with_wide_masks_at_any_thread_count() {
    let _g = thread_guard();
    let spec = wide_spec();
    assert_eq!(
        spec.resolved_strategy(),
        Strategy::BestK(200),
        "256 peers must resolve past the Consider→BestK cutover"
    );
    let run_at = |threads: usize| -> CellReport {
        blockfed::compute::set_threads(threads);
        let cell = ScenarioRunner::new().run(&spec);
        blockfed::compute::set_threads(0);
        cell
    };
    let single = run_at(1);
    // Green end to end: every peer aggregated every round.
    assert_eq!(single.records, 256 * 2, "rounds incomplete: {single:?}");
    assert!(single.mean_final_accuracy > 0.0);
    assert!(single.blocks > 0);
    // The on-chain masks addressed the upper half of the 256-bit domain.
    let widest = single.max_mask_bit.expect("aggregates recorded");
    assert!(
        widest >= 128,
        "no recorded combination mask crossed bit 128 (max {widest})"
    );
    // Announce/fetch split: flood traffic is the digest term, payload moves
    // as one targeted pull per peer — far below flooded payloads.
    assert!(single.fetch_bytes > 0);
    assert!(
        single.gossip_bytes < single.fetch_bytes,
        "announce floods must undercut the pulled payloads: gossip {} !< fetch {}",
        single.gossip_bytes,
        single.fetch_bytes
    );
    // Same seed, eight workers: bit-identical simulation (report equality
    // already excludes host wall-clock).
    let eight = run_at(8);
    assert_eq!(single, eight, "thread count changed the simulation");

    // The same population in 16 committees under epidemic fan-out: every
    // peer records and merges every round, at ≤ 50 % of the flat traffic.
    let twin = ScenarioRunner::new().run(
        &spec
            .named("scale256-committee")
            .gossip(GossipMode::Epidemic { fanout: 3 })
            .committees(CommitteeSpec::contiguous(16)),
    );
    assert_eq!(
        twin.records,
        256 * 2,
        "committee rounds incomplete: {twin:?}"
    );
    assert_eq!(
        twin.committee_rounds(),
        256 * 2,
        "every peer must complete a tier-2 merge every round"
    );
    let flat_total = single.gossip_bytes + single.fetch_bytes;
    let twin_total = twin.gossip_bytes + twin.fetch_bytes;
    assert!(
        twin_total * 2 <= flat_total,
        "committees must cut gossip + fetch to ≤ 50 % of flat: {twin_total} vs {flat_total}"
    );
}
