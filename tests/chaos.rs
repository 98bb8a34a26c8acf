//! Chaos property suite: randomized packet loss (0–20%), timed partitions,
//! churn, and crash–restart faults, all at once. Every sampled run must
//! terminate — either settling through the fetch retry machinery or failing
//! fast through the liveness watchdog — and the two gossip modes must still
//! drive identical simulations (same chains, records, artifacts, drop and
//! retry meters) no matter what the network does to them. A lossy chaotic
//! cell is also bit-identical at 1 and 8 compute threads: loss sampling lives
//! in the single-threaded event loop, never in the parallel training region.
//! At 48 peers, loss costs time and retries but never the outcome: every
//! lossy cell settles with its lossless twin's records and accuracy.

mod common;

use blockfed::core::{
    ComputeProfile, Decentralized, DecentralizedConfig, DecentralizedRun, Fault, TimedFault,
};
use blockfed::data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::WaitPolicy;
use blockfed::net::GossipMode;
use blockfed::nn::SimpleNnConfig;
use blockfed::scenario::{ScenarioRunner, ScenarioSpec};
use common::{bestk48, thread_guard};
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

fn base_config(n: usize, seed: u64, rounds: u32, loss: f64) -> DecentralizedConfig {
    let mut cfg = DecentralizedConfig {
        rounds,
        local_epochs: 1,
        batch_size: 16,
        lr: 0.1,
        wait_policy: WaitPolicy::All,
        payload_bytes: 10_000,
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
    };
    cfg.link.loss_rate = loss;
    cfg
}

fn run(mut cfg: DecentralizedConfig, mode: GossipMode, n: usize, seed: u64) -> DecentralizedRun {
    cfg.gossip = mode;
    let (shards, tests) = world(n, seed);
    let driver = Decentralized::new(cfg, &shards, &tests);
    let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
    let mut arch_rng = StdRng::seed_from_u64(seed);
    driver.run(&mut || nn.build(&mut arch_rng))
}

/// The chaos timeline: an optional partition-plus-heal isolating peer 0, and
/// an optional crash–restart cycle on the last peer — layered on top of
/// whatever per-edge loss the link already applies.
fn chaos_timeline(
    n: usize,
    partition_on: bool,
    t1: f64,
    dt: f64,
    crash_on: bool,
    crash_t: f64,
    down: f64,
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
    if crash_on {
        out.push(TimedFault::at_secs(
            crash_t,
            Fault::PeerCrash { peer: n - 1 },
        ));
        out.push(TimedFault::at_secs(
            crash_t + down,
            Fault::PeerRestart { peer: n - 1 },
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any mix of loss, partition, and crash–restart terminates (the default
    /// watchdog is the backstop) and leaves both gossip modes in byte-perfect
    /// agreement: identical chains, records, artifact inventories, settle
    /// times, and resilience meters.
    #[test]
    fn chaos_runs_terminate_and_modes_converge(
        n in 3usize..6,
        loss in 0.0f64..0.20,
        partition_on in any::<bool>(),
        t1 in 0.05f64..2.0,
        dt in 2.0f64..6.0,
        crash_on in any::<bool>(),
        crash_t in 0.1f64..3.0,
        down in 5.0f64..15.0,
        seed in 0u64..500,
    ) {
        let mut cfg = base_config(n, seed, 2, loss);
        cfg.timeline = chaos_timeline(n, partition_on, t1, dt, crash_on, crash_t, down);
        let full = run(cfg.clone(), GossipMode::Full, n, seed);
        let af = run(cfg, GossipMode::AnnounceFetch, n, seed);
        // Returning at all is the termination proof (the watchdog bounds any
        // genuine stall); a stall must be reported identically either way.
        prop_assert_eq!(full.stall.as_deref(), af.stall.as_deref());
        // Identical simulations, meter for meter.
        prop_assert_eq!(&full.chain, &af.chain);
        prop_assert_eq!(&full.peer_records, &af.peer_records);
        prop_assert_eq!(&full.artifacts, &af.artifacts);
        prop_assert_eq!(full.finished_at, af.finished_at);
        prop_assert_eq!(full.blocks_sealed, af.blocks_sealed);
        prop_assert_eq!(&full.metrics, &af.metrics);
        // The traffic split is the only divergence.
        prop_assert_eq!(full.fetch_bytes, 0);
    }

    /// A lossy chaotic scenario cell replays bit-identically whether local
    /// training runs on 1 thread or 8.
    #[test]
    fn lossy_chaos_cells_are_bit_identical_across_thread_counts(
        loss in 0.01f64..0.20,
        seed in 0u64..100,
    ) {
        let _g = thread_guard();
        let spec = ScenarioSpec::new("chaos", 5)
            .rounds(2)
            .loss(loss)
            .partition_at(1.0, &[0], &[1, 2, 3, 4])
            .heal_at(6.0)
            .crash_at(2.0, 4)
            .restart_at(9.0, 4)
            .seed(seed);
        let run_at = |threads: usize| {
            blockfed::compute::set_threads(threads);
            let cell = ScenarioRunner::new().run(&spec);
            blockfed::compute::set_threads(0);
            cell
        };
        let single = run_at(1);
        let eight = run_at(8);
        prop_assert_eq!(&single, &eight, "thread count leaked into a lossy run");
        prop_assert!(!single.stalled(), "chaos cell must settle: {:?}", single);
    }
}

/// The 48-peer best-k cell across 1 %, 5 % and 20 % loss: every lossy cell
/// settles through the fetch retry machinery — never the watchdog — with the
/// lossless cell's records and final accuracy, nonzero drops, and at most
/// the 8-attempt budget of retries per drop.
#[test]
fn lossy_48_peer_cells_settle_with_the_lossless_outcome() {
    let runner = ScenarioRunner::new();
    let clean = runner.run(&bestk48());
    let mut retries = Vec::new();
    for loss in [0.01, 0.05, 0.20] {
        let cell = runner.run(&bestk48().loss(loss));
        assert!(!cell.stalled(), "{loss} loss hit the watchdog: {cell:?}");
        assert_eq!(cell.records, clean.records, "{loss} loss lost rounds");
        assert_eq!(
            cell.mean_final_accuracy, clean.mean_final_accuracy,
            "{loss} loss changed the wait-all aggregation outcome"
        );
        assert!(cell.dropped_msgs() > 0, "{loss} loss never dropped");
        assert!(
            cell.fetch_retries() <= cell.dropped_msgs() * 8,
            "{loss} loss: {} retries for {} drops",
            cell.fetch_retries(),
            cell.dropped_msgs()
        );
        retries.push(cell.fetch_retries());
    }
    assert!(retries[1] > 0, "5% loss never exercised a fetch retry");
}
