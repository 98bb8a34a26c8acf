//! Adaptive-policy invariance: attaching a controller that never fires must
//! be completely free. A run under a threshold rule no round can trip
//! reproduces the static run bit for bit — per-peer records, canonical chain
//! stats, the full folded metric set, and the raw trace bytes — at 1 and 8
//! compute threads, on calm runs and under a chaos timeline (partition +
//! heal, crash + restart). The rule draws no randomness, so a rule that
//! *does* fire is itself bit-identical at any thread count. On a 48-peer
//! churn+shock cell the threshold controller reaches 95 % accuracy no later
//! than every static wait policy.

mod common;

use blockfed::core::{
    ComputeProfile, ControllerSpec, Decentralized, DecentralizedConfig, Fault, RuleConfig,
    TimedFault,
};
use blockfed::data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::WaitPolicy;
use blockfed::nn::SimpleNnConfig;
use blockfed::scenario::{DataSpec, ScenarioReport, ScenarioRunner, ScenarioSpec};
use blockfed::telemetry::MemorySink;
use common::thread_guard;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 2] = [1, 8];

fn world(n: usize, seed: u64) -> (Vec<Dataset>, Vec<Dataset>) {
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = partition_dataset(&train, n, Partition::Iid, &mut rng);
    (shards, vec![test; n])
}

/// The chaos timeline from the fork-replay suite: a partition cutting
/// in-flight deliveries, a heal, and a crash + restart of the last peer.
fn chaos_faults(n: usize) -> Vec<TimedFault> {
    vec![
        TimedFault::at_secs(
            0.5,
            Fault::Partition {
                left: vec![0],
                right: (1..n).collect(),
            },
        ),
        TimedFault::at_secs(4.0, Fault::HealAll),
        TimedFault::at_secs(1.0, Fault::PeerCrash { peer: n - 1 }),
        TimedFault::at_secs(9.0, Fault::PeerRestart { peer: n - 1 }),
    ]
}

/// Everything a run can disagree on: records, chain stats, metrics, settle
/// time, traffic meters, the decision log, and the raw trace bytes.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    records: Vec<Vec<blockfed::core::PeerRoundRecord>>,
    chain: blockfed::core::ChainStats,
    metrics: blockfed::telemetry::MetricSet,
    finished_at: blockfed::sim::SimTime,
    gossip_bytes: u64,
    fetch_bytes: u64,
    policy_events: Vec<blockfed::core::PolicyEvent>,
    trace: String,
}

/// A threshold rule whose thresholds no round can cross.
fn never_firing_rule() -> ControllerSpec {
    ControllerSpec::threshold(RuleConfig {
        wait_high_secs: f64::INFINITY,
        wait_low_secs: 0.0,
        keep_fraction: 1.0,
        staleness_high_secs: f64::INFINITY,
    })
}

fn run_once(n: usize, seed: u64, chaos: bool, controller: Option<ControllerSpec>) -> Fingerprint {
    let cfg = DecentralizedConfig {
        rounds: 2,
        local_epochs: 1,
        batch_size: 16,
        lr: 0.1,
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
        timeline: if chaos { chaos_faults(n) } else { Vec::new() },
        controller,
        seed,
        ..Default::default()
    };
    let (shards, tests) = world(n, seed);
    let driver = Decentralized::new(cfg, &shards, &tests);
    let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
    let mut arch_rng = StdRng::seed_from_u64(seed);
    let mut sink = MemorySink::new();
    let run = driver.run_traced(&mut || nn.build(&mut arch_rng), &mut sink);
    Fingerprint {
        records: run.peer_records,
        chain: run.chain,
        metrics: run.metrics,
        finished_at: run.finished_at,
        gossip_bytes: run.gossip_bytes,
        fetch_bytes: run.fetch_bytes,
        policy_events: run.policy_events,
        trace: sink.to_jsonl(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A never-firing controller is invisible: the run is bit-identical to
    /// the static one — trace bytes included — at 1 and 8 threads, with and
    /// without the chaos timeline.
    #[test]
    fn noop_controller_is_bit_identical_to_static_run(
        seed in 0u64..500,
        chaos in any::<bool>(),
    ) {
        let _g = thread_guard();
        let n = 4;
        let mut baseline: Option<Fingerprint> = None;
        for &threads in &THREAD_COUNTS {
            blockfed::compute::set_threads(threads);
            let fp_static = run_once(n, seed, chaos, None);
            let fp_noop = run_once(n, seed, chaos, Some(never_firing_rule()));
            prop_assert!(
                fp_noop.policy_events.is_empty(),
                "never-firing rule logged a decision"
            );
            prop_assert_eq!(
                fp_noop.metrics.counter("policy_switches"), 0,
                "never-firing rule metered a switch"
            );
            prop_assert_eq!(
                &fp_noop, &fp_static,
                "never-firing-rule run diverged at {} threads (chaos={})",
                threads, chaos
            );
            // And every thread count reproduces the same simulation.
            match &baseline {
                None => baseline = Some(fp_static),
                Some(b) => prop_assert_eq!(b, &fp_static, "thread count {} diverged", threads),
            }
        }
        blockfed::compute::set_threads(0);
    }
}

/// A rule that *does* fire draws no randomness, so controlled runs are
/// bit-identical at 1 and 8 threads, calm or chaotic. Any wait trips this
/// rule, so every run demotes wait-all.
#[test]
fn firing_controllers_are_thread_count_invariant() {
    let _g = thread_guard();
    let ctl = ControllerSpec::threshold(RuleConfig {
        wait_high_secs: 0.0,
        wait_low_secs: 0.0,
        ..Default::default()
    });
    for chaos in [false, true] {
        let mut baseline: Option<Fingerprint> = None;
        for &threads in &THREAD_COUNTS {
            blockfed::compute::set_threads(threads);
            let fp = run_once(4, 11, chaos, Some(ctl.clone()));
            assert!(!fp.policy_events.is_empty(), "the rule never fired");
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(
                    b, &fp,
                    "{ctl} run diverged at {threads} threads (chaos={chaos})"
                ),
            }
        }
    }
    blockfed::compute::set_threads(0);
}

/// The accuracy bar the time-to-accuracy comparison clocks: the first
/// virtual second at which a whole round settled at or above this mean.
const TTA_TARGET: f64 = 0.95;

/// The 48-peer churn + hash-shock cell. Peer 0 holds a label-skewed shard
/// and crawls through training: its round-1 update lands only after ~5
/// virtual seconds (behind a partition window that forks its solo chain),
/// and its round-2 update is still baking when the peer leaves for good at
/// 10 s — so every wait-all round is gated by the straggler, and round 2 can
/// only settle when the leave releases it. A first-k round sails past the
/// straggler but its thin aggregates never see the excluded shards' classes.
/// The cell also joins a late peer and doubles a miner's hash rate — the
/// churn+shock regime the paper's static tables sweep.
fn adaptive48_spec() -> ScenarioSpec {
    let scaled = DataSpec::scaled_for(48);
    // Floods relay around partial cuts, so truly isolating peer 0 means
    // severing it from *every* other peer — minus peer 9, which has not
    // joined yet and may not be referenced before it does.
    let early: Vec<usize> = (1..48).filter(|&p| p != 9).collect();
    let mut spec = ScenarioSpec::new("adaptive48", 48)
        .rounds(3)
        .consider_cutover(6, 40)
        .data(DataSpec {
            partition: Partition::DirichletLabelSkew { alpha: 0.2 },
            synth: SynthCifarConfig {
                train_per_class: 150,
                test_per_class: 150,
                ..scaled.synth
            },
        })
        .partition_at(0.1, &[0], &early)
        .heal_at(4.5)
        .hash_shock_at(2.0, 5, 6.0)
        .join_at(5.5, 9)
        .leave_at(10.0, 0)
        .seed(48);
    // Peer 0 is the churn victim: it trains its (tiny, skewed) shard at a
    // crawl. The tail half of the population is a medium-speed band, so a
    // first-k aggregation deterministically excludes part of its skewed
    // shards.
    spec.computes[0].train_rate = 0.8;
    for c in spec.computes.iter_mut().skip(24) {
        c.train_rate = 60.0;
    }
    spec
}

/// Static wait-all, first-24 and first-36 against the threshold controller
/// on the churn+shock cell. The rule demotes wait-all as soon as a round
/// waited > 0.5 virtual seconds, keeping 90 % of the active peers, never
/// promotes back and leaves staleness decay alone, so the trajectory is
/// purely the wait-policy story. The controller must switch, the statics
/// must not, and the controller must reach [`TTA_TARGET`] no later than
/// every static policy. `--nocapture` prints the comparison table.
#[test]
fn controller_reaches_target_accuracy_no_later_than_any_static_policy() {
    let base = adaptive48_spec();
    let rule = RuleConfig {
        wait_high_secs: 0.5,
        wait_low_secs: 0.0,
        keep_fraction: 0.9,
        staleness_high_secs: f64::INFINITY,
    };
    let specs = [
        base.clone().named("adaptive48-all"),
        base.clone()
            .named("adaptive48-first24")
            .wait(WaitPolicy::FirstK(24)),
        base.clone()
            .named("adaptive48-first36")
            .wait(WaitPolicy::FirstK(36)),
        base.named("adaptive48-ctl")
            .controller(ControllerSpec::threshold(rule)),
    ];
    let runner = ScenarioRunner::new();
    let report = ScenarioReport {
        name: "adaptive48".into(),
        cells: blockfed::compute::par_map(&specs, |spec| runner.run(spec)),
    };
    println!("{}", report.time_to_accuracy_table(TTA_TARGET));

    let (statics, ctl) = report.cells.split_at(3);
    let ctl = &ctl[0];
    assert!(ctl.policy_switches() > 0, "the controller never fired");
    let ctl_tta = ctl
        .time_to_accuracy(TTA_TARGET)
        .expect("the controlled run never reached the target accuracy");
    for cell in statics {
        assert_eq!(cell.policy_switches(), 0, "{} metered a switch", cell.name);
        if let Some(t) = cell.time_to_accuracy(TTA_TARGET) {
            assert!(
                ctl_tta <= t,
                "static {} reached the target at {t:.1}s, before the controller's {ctl_tta:.1}s",
                cell.name
            );
        }
    }
}
