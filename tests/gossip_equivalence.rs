//! Property tests of the gossip-mode contract: `AnnounceFetch`, `Full`, and
//! `Epidemic` must drive *identical* simulations — the same artifact set
//! delivered to every live peer, the same per-round records, the same chain —
//! under randomized churn and timed partitions, while announce/fetch always
//! floods strictly fewer bytes than full-payload flooding and epidemic
//! fan-out undercuts even the announce floods once the mesh is wide.

use blockfed::core::{
    ComputeProfile, Decentralized, DecentralizedConfig, DecentralizedRun, Fault, TimedFault,
};
use blockfed::data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::WaitPolicy;
use blockfed::net::{GossipMode, ANNOUNCE_BYTES};
use blockfed::nn::SimpleNnConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world(n: usize, seed: u64) -> (Vec<Dataset>, Vec<Dataset>) {
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = partition_dataset(&train, n, Partition::Iid, &mut rng);
    (shards, vec![test; n])
}

fn base_config(n: usize, seed: u64, rounds: u32, payload: u64) -> DecentralizedConfig {
    DecentralizedConfig {
        rounds,
        local_epochs: 1,
        batch_size: 16,
        lr: 0.1,
        payload_bytes: payload,
        difficulty: 200_000,
        computes: vec![
            ComputeProfile {
                hashrate: 100_000.0,
                train_rate: 500.0,
                contention: 0.3,
                batch_parallel: false,
            };
            n
        ],
        seed,
        ..Default::default()
    }
}

fn run(mut cfg: DecentralizedConfig, mode: GossipMode, n: usize, seed: u64) -> DecentralizedRun {
    cfg.gossip = mode;
    let (shards, tests) = world(n, seed);
    let driver = Decentralized::new(cfg, &shards, &tests);
    let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
    let mut arch_rng = StdRng::seed_from_u64(seed);
    driver.run(&mut || nn.build(&mut arch_rng))
}

/// The fault-timeline generator: an optional partition-plus-heal isolating
/// peer 0 mid-run, and an optional crash-stop of the last peer — composable
/// churn that exercises in-flight drops, on-demand payload fetches, and the
/// wait-policy re-measurement paths.
fn timeline(
    n: usize,
    partition_on: bool,
    t1: f64,
    dt: f64,
    leave_on: bool,
    leave_at: f64,
) -> Vec<TimedFault> {
    let mut out = Vec::new();
    if partition_on {
        out.push(TimedFault::at_secs(
            t1,
            Fault::Partition {
                left: vec![0],
                right: (1..n).collect(),
            },
        ));
        out.push(TimedFault::at_secs(t1 + dt, Fault::HealAll));
    }
    if leave_on {
        out.push(TimedFault::at_secs(
            leave_at,
            Fault::PeerLeave { peer: n - 1 },
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under randomized churn + timed partitions, both modes deliver the
    /// identical artifact set to every live peer and produce the identical
    /// simulation — records, chain, settle time — while announce/fetch
    /// floods strictly fewer bytes.
    #[test]
    fn modes_agree_under_churn_and_partitions(
        n in 3usize..6,
        partition_on in any::<bool>(),
        t1 in 0.05f64..2.0,
        dt in 2.0f64..6.0,
        leave_on in any::<bool>(),
        leave_at in 0.1f64..2.0,
        seed in 0u64..500,
    ) {
        let mut cfg = base_config(n, seed, 2, 10_000);
        cfg.wait_policy = WaitPolicy::All;
        cfg.timeline = timeline(n, partition_on, t1, dt, leave_on, leave_at);
        let full = run(cfg.clone(), GossipMode::Full, n, seed);
        let af = run(cfg, GossipMode::AnnounceFetch, n, seed);
        // Identical artifact inventory on every peer (live peers included by
        // construction; departed peers froze at the same point either way).
        prop_assert_eq!(&full.artifacts, &af.artifacts);
        prop_assert_eq!(&full.peer_records, &af.peer_records);
        prop_assert_eq!(&full.chain, &af.chain);
        prop_assert_eq!(full.finished_at, af.finished_at);
        prop_assert_eq!(full.blocks_sealed, af.blocks_sealed);
        // Traffic split: Full folds everything into flood bytes;
        // announce/fetch floods digests and pulls payloads.
        prop_assert_eq!(full.fetch_bytes, 0);
        prop_assert!(af.fetch_bytes > 0);
        prop_assert!(
            af.gossip_bytes < full.gossip_bytes,
            "announce floods not cheaper: {} !< {}",
            af.gossip_bytes,
            full.gossip_bytes
        );
    }

    /// On every fault-free N ≥ 3 mesh cell, announce/fetch gossip bytes are
    /// strictly below full-flood gossip bytes for any payload above the
    /// announcement size.
    #[test]
    fn announce_fetch_floods_less_on_every_mesh(
        n in 3usize..9,
        payload in (ANNOUNCE_BYTES + 1)..40_000u64,
        seed in 0u64..500,
    ) {
        let cfg = base_config(n, seed, 1, payload);
        let full = run(cfg.clone(), GossipMode::Full, n, seed);
        let af = run(cfg, GossipMode::AnnounceFetch, n, seed);
        prop_assert!(
            af.gossip_bytes < full.gossip_bytes,
            "n={} payload={}: {} !< {}",
            n,
            payload,
            af.gossip_bytes,
            full.gossip_bytes
        );
        // The payload still reaches every peer — as targeted pulls.
        prop_assert!(af.fetch_bytes >= payload * (n as u64 - 1));
        prop_assert_eq!(&full.artifacts, &af.artifacts);
        prop_assert_eq!(&full.peer_records, &af.peer_records);
    }

    /// On every fault-free N ≥ 3 mesh cell, epidemic fan-out delivers the
    /// identical simulation as announce/fetch — same artifacts, records,
    /// chain, settle time — for any fanout. Only the traffic accounting may
    /// differ: that is the whole gossip-mode contract.
    #[test]
    fn epidemic_agrees_with_announce_fetch_on_every_mesh(
        n in 3usize..9,
        fanout in 1usize..5,
        payload in (ANNOUNCE_BYTES + 1)..40_000u64,
        seed in 0u64..500,
    ) {
        let cfg = base_config(n, seed, 1, payload);
        let af = run(cfg.clone(), GossipMode::AnnounceFetch, n, seed);
        let epi = run(cfg, GossipMode::Epidemic { fanout }, n, seed);
        prop_assert_eq!(&af.artifacts, &epi.artifacts);
        prop_assert_eq!(&af.peer_records, &epi.peer_records);
        prop_assert_eq!(&af.chain, &epi.chain);
        prop_assert_eq!(af.finished_at, epi.finished_at);
        prop_assert_eq!(af.blocks_sealed, epi.blocks_sealed);
        // Bodies still reach every peer — as targeted pulls.
        prop_assert!(epi.fetch_bytes >= payload * (n as u64 - 1));
    }
}

/// At 48 peers the announce term itself scales with the flood tree's edge
/// count; epidemic fan-out caps transmissions per rumor at `fanout` per
/// infected node, so its gossip bytes drop strictly below announce/fetch —
/// while the simulation stays bit-identical.
#[test]
fn epidemic_undercuts_announce_fetch_gossip_at_48_peers() {
    let n = 48;
    let seed = 4_848;
    let mut cfg = base_config(n, seed, 1, 10_000);
    cfg.strategy = blockfed::fl::Strategy::BestK(3);
    let af = run(cfg.clone(), GossipMode::AnnounceFetch, n, seed);
    for fanout in [2, 3] {
        let epi = run(cfg.clone(), GossipMode::Epidemic { fanout }, n, seed);
        assert_eq!(af.artifacts, epi.artifacts);
        assert_eq!(af.peer_records, epi.peer_records);
        assert_eq!(af.chain, epi.chain);
        assert_eq!(af.finished_at, epi.finished_at);
        assert!(
            epi.gossip_bytes < af.gossip_bytes,
            "fanout {fanout}: epidemic announcements not cheaper: {} !< {}",
            epi.gossip_bytes,
            af.gossip_bytes
        );
    }
}
