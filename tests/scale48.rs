//! The >32-peer scale unlock, end to end: the 48-peer best-k cell must run
//! green, record aggregates on chain whose combination masks cross the old
//! u32 boundary, replay bit-identically at any worker count, and move exactly
//! its committed bytes in every layout that is the same simulation. Oversize
//! populations must be rejected gracefully with the typed error instead of a
//! panic.

mod common;

use blockfed::core::{
    CommitteeSpec, ComputeProfile, ConfigError, Decentralized, DecentralizedConfig,
};
use blockfed::data::{SynthCifar, SynthCifarConfig};
use blockfed::fl::Strategy;
use blockfed::net::GossipMode;
use blockfed::scenario::{CellReport, DataSpec, ScenarioRunner, ScenarioSpec};
use common::{bestk48, thread_guard, BESTK48_FETCH_BYTES, BESTK48_GOSSIP_BYTES};

/// Flood bytes of the same cell under legacy full-payload flooding.
const BESTK48_FULL_GOSSIP_BYTES: u64 = 51_136_000;

#[test]
fn forty_eight_peer_cell_runs_green_with_wide_masks_at_any_thread_count() {
    let _g = thread_guard();
    let spec = bestk48();
    assert_eq!(
        spec.resolved_strategy(),
        Strategy::BestK(40),
        "48 peers must resolve past the Consider→BestK cutover"
    );
    let run_at = |threads: usize| -> CellReport {
        blockfed::compute::set_threads(threads);
        let cell = ScenarioRunner::new().run(&spec);
        blockfed::compute::set_threads(0);
        cell
    };
    let single = run_at(1);
    // Green end to end: every peer aggregated every round.
    assert_eq!(single.records, 48 * 2, "rounds incomplete: {single:?}");
    assert!(single.mean_final_accuracy > 0.0);
    assert!(single.blocks > 0);
    // The on-chain masks crossed the u32 boundary.
    let widest = single.max_mask_bit.expect("aggregates recorded");
    assert!(
        widest >= 32,
        "no recorded combination mask crossed bit 32 (max {widest})"
    );
    // Same seed, eight workers: bit-identical simulation (report equality
    // already excludes host wall-clock).
    let eight = run_at(8);
    assert_eq!(single, eight, "thread count changed the simulation");
}

/// The byte guard. The lossless cell moves exactly its committed bytes with
/// no drops, retries or stall; a single committee lowers to the flat path
/// byte for byte; and full flooding is the same simulation with every
/// payload moved onto the flood meter.
#[test]
fn lossless_cell_moves_exactly_the_committed_bytes() {
    let runner = ScenarioRunner::new();
    let clean = runner.run(&bestk48());
    assert_eq!(
        (clean.gossip_bytes, clean.fetch_bytes),
        (BESTK48_GOSSIP_BYTES, BESTK48_FETCH_BYTES),
        "announce/fetch bytes moved off the committed accounting"
    );
    assert_eq!(clean.dropped_msgs(), 0, "clean links never drop");
    assert_eq!(clean.fetch_retries(), 0, "clean links never retry");
    assert!(!clean.stalled());

    let one = runner.run(&bestk48().committees(CommitteeSpec::contiguous(1)));
    assert_eq!(
        (one.gossip_bytes, one.fetch_bytes),
        (BESTK48_GOSSIP_BYTES, BESTK48_FETCH_BYTES),
        "a single committee must reproduce the flat bytes exactly"
    );
    assert_eq!(
        one.committee_rounds(),
        0,
        "a single committee must lower to the flat path, not merge"
    );

    let full = runner.run(&bestk48().gossip(GossipMode::Full));
    assert_eq!(
        full.mean_final_accuracy, clean.mean_final_accuracy,
        "gossip mode changed the simulation"
    );
    assert_eq!(full.makespan_secs, clean.makespan_secs);
    assert_eq!(full.blocks, clean.blocks);
    assert_eq!(full.records, clean.records);
    assert_eq!(full.fetch_bytes, 0, "full flooding never meters fetches");
    assert_eq!(full.gossip_bytes, BESTK48_FULL_GOSSIP_BYTES);
}

#[test]
fn oversize_populations_fail_gracefully_not_by_panic() {
    // The spec engine and the orchestrator reject 1025 peers — one past the
    // mask's native 1024-bit width — with the same typed message.
    let spec_err = ScenarioSpec::new("too-big", 1025)
        .data(DataSpec::scaled_for(1025))
        .validate()
        .unwrap_err();
    assert_eq!(
        spec_err,
        ConfigError::TooManyPeers { got: 1025 }.to_string()
    );

    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (_, test) = gen.generate(1);
    let shards: Vec<_> = (0..1025).map(|_| test.clone()).collect();
    let err = Decentralized::try_new(DecentralizedConfig::default(), &shards, &shards)
        .err()
        .expect("1025 peers must be rejected");
    assert_eq!(err, ConfigError::TooManyPeers { got: 1025 });
    assert_eq!(err.to_string(), spec_err);

    // The whole mask domain is accepted now: 257 (the old ceiling's
    // rejection point) and 1024 both construct, and a 1024-peer committee
    // spec validates.
    for n in [257usize, 1024] {
        let inside: Vec<_> = (0..n).map(|_| test.clone()).collect();
        let cfg = DecentralizedConfig {
            computes: vec![ComputeProfile::paper_vm(); n],
            ..Default::default()
        };
        assert!(
            Decentralized::try_new(cfg, &inside, &inside).is_ok(),
            "{n} peers must be accepted"
        );
    }
    ScenarioSpec::new("at-cap", 1024)
        .committees(CommitteeSpec::contiguous(16))
        .data(DataSpec::scaled_for(1024))
        .validate()
        .unwrap();
}
