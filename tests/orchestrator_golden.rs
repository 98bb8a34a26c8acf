//! Cross-commit golden digests of the orchestrator's simulated outputs.
//!
//! The bit-identity suites compare two runs of the *same* build (thread
//! counts, gossip modes, traced vs untraced), so a refactor that changes
//! every run the same way passes them all. These four tiny cells pin the
//! simulation itself: each hashes the per-peer round records, both byte
//! meters, the finish time, the on-chain aggregates, the folded `MetricSet`
//! and peer 0's final chain head, and compares against a digest checked in
//! from the commit before the event loop was folded into one run state. A
//! mismatch means an RNG draw, an event ordering, a meter or a metric key
//! moved — re-capture only for a change that intends that.

use std::fmt::Write as _;

use blockfed::core::{CommitteeSpec, ControllerSpec, DecentralizedRun, RuleConfig};
use blockfed::crypto::sha256::Sha256;
use blockfed::data::{partition_dataset, Dataset, SynthCifar};
use blockfed::scenario::ScenarioSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Streams `Debug` output into the hasher without building the string.
struct HashWriter(Sha256);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

fn digest(run: &DecentralizedRun) -> String {
    let mut w = HashWriter(Sha256::new());
    write!(
        w,
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}",
        run.peer_records,
        run.gossip_bytes,
        run.fetch_bytes,
        run.finished_at,
        run.aggregates,
        run.metrics,
        run.final_chain.head(),
    )
    .expect("hashing never fails");
    w.0.finalize().to_hex()
}

fn run(spec: &ScenarioSpec) -> DecentralizedRun {
    let n = spec.peers();
    let (train, test) = SynthCifar::new(spec.data.synth.clone()).generate(spec.seed);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let shards = partition_dataset(&train, n, spec.data.partition, &mut rng);
    let tests: Vec<Dataset> = vec![test; n];
    let model = spec.model;
    let mut arch_rng = StdRng::seed_from_u64(spec.seed ^ 0x5CE0);
    spec.run_with(&shards, &tests, &mut || model.build(&mut arch_rng))
}

/// The paper's setting in miniature: flat, wait-all, exhaustive Consider.
fn flat3() -> ScenarioSpec {
    ScenarioSpec::new("golden-flat3", 3).rounds(2).seed(7)
}

/// Two contiguous committees of three: tier-1 aggregation, committee
/// aggregate floods, tier-2 merges.
fn committee6() -> ScenarioSpec {
    ScenarioSpec::new("golden-committee6", 6)
        .rounds(2)
        .committees(CommitteeSpec::contiguous(2))
        .seed(8)
}

/// Every fault arm at 5 % packet loss: partition + heal, crash + restart,
/// a late join and a leave — drops, fetch retries and reorgs included.
fn churn5() -> ScenarioSpec {
    ScenarioSpec::new("golden-churn5", 5)
        .rounds(3)
        .loss(0.05)
        .partition_at(1.0, &[0], &[1, 2, 3])
        .heal_at(5.0)
        .crash_at(2.0, 3)
        .restart_at(9.0, 3)
        .join_at(6.0, 4)
        .leave_at(12.0, 1)
        .seed(22)
}

/// One slow trainer under the threshold controller, which demotes wait-all
/// once a round's wait crosses the bar.
fn straggler4() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("golden-straggler4", 4)
        .rounds(3)
        .controller(ControllerSpec::threshold(RuleConfig {
            wait_high_secs: 1.0,
            ..Default::default()
        }))
        .seed(10);
    spec.computes[3].train_rate = 60.0;
    spec
}

/// A golden cell: its name, its spec, and the checked-in digest.
type Golden = (&'static str, fn() -> ScenarioSpec, &'static str);

const GOLDEN: [Golden; 4] = [
    (
        "flat3",
        flat3,
        "71f8d5fa6a9f5a831205f98f1709e5b14b6178ef534080e79e41c8a0b840b985",
    ),
    (
        "committee6",
        committee6,
        "77fb40db775ffab1c678f430f5ba11cf28738c90d113a8dc48b98b4373971848",
    ),
    (
        "churn5",
        churn5,
        "d3b0cd410936d8ee27cc3a62f3082d1b808b9adaa9c68e456dee27dd4841c56e",
    ),
    (
        "straggler4",
        straggler4,
        "1036fa476c0f61d4b839c0cf1ff686a0d45bc8fff2c153aad33218757347eac2",
    ),
];

#[test]
fn simulated_outputs_match_the_checked_in_digests() {
    // Every mismatch is reported at once, so an intended re-capture is one run.
    let mut diverged = Vec::new();
    for (name, spec, want) in GOLDEN {
        for threads in [1, 8] {
            blockfed::compute::set_threads(threads);
            let got = digest(&run(&spec()));
            blockfed::compute::set_threads(0);
            if got != want {
                diverged.push(format!("{name} at {threads} threads: {got}"));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "digests moved:\n{}",
        diverged.join("\n")
    );
}

/// The digests only pin behaviour the cells actually reach: check each cell
/// drives the machinery it is named for.
#[test]
fn golden_cells_cover_their_arms() {
    let flat = run(&flat3());
    assert_eq!(flat.peer_records.iter().map(Vec::len).sum::<usize>(), 6);
    assert_eq!(flat.peer_records[0][0].combos.len(), 7, "exhaustive search");

    let com = run(&committee6());
    assert_eq!(com.committee_rounds(), 12);
    assert!(com.tier2_gossip_bytes() > 0);

    let churn = run(&churn5());
    assert!(churn.stall.is_none(), "{:?}", churn.stall);
    assert!(churn.dropped_msgs() > 0);
    assert!(churn.fetch_retries() > 0);
    assert!(churn.metrics.counter("fetch_recoveries") > 0);
    assert!(churn.metrics.counter("reorgs") > 0);
    assert!(!churn.peer_records[4].is_empty(), "the joiner aggregated");

    let slow = run(&straggler4());
    assert!(slow.policy_switches() > 0, "the controller never fired");
}
