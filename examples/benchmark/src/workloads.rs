//! The five benchmark cells, the drift-guard constants, and data preparation.
//!
//! Three of the cells (`flat128`, `committee256`, `churn48`) are copies of
//! cell definitions that live in `examples/scenarios.rs`, which a benchmark
//! PR may not touch. The drift guards in `measure.rs` pin the copies to the
//! committed byte accounting so they cannot silently diverge.

use blockfed::core::{CommitteeSpec, ControllerSpec, RuleConfig};
use blockfed::data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::Strategy;
use blockfed::net::GossipMode;
use blockfed::nn::Sequential;
use blockfed::scenario::{DataSpec, ScenarioSpec};
use blockfed::sim::RngHub;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One benchmark cell: its name, the reason it exists, and its spec at
/// `--seed 0`.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` / the header: which layer the cell loads.
    pub why: &'static str,
    build: fn() -> ScenarioSpec,
}

impl Workload {
    /// The cell's spec at benchmark seed `s`: the canonical seed plus `s`, so
    /// `--seed 0` reproduces the committed cells exactly.
    pub fn spec(&self, s: u64) -> ScenarioSpec {
        let spec = (self.build)();
        let seed = spec.seed.wrapping_add(s);
        spec.seed(seed)
    }
}

/// Every workload, in reporting order. Names match `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper3",
        why: "the paper's own 3-peer, 10-round, 5-epoch SimpleNN cell: the only one where tensor/nn training dominates",
        build: paper3,
    },
    Workload {
        name: "consider14",
        why: "14 peers, exhaustive Consider over 16383 combinations: fl aggregation and nn scoring dominate, nothing trains for long",
        build: consider14,
    },
    Workload {
        name: "flat128",
        why: "128-peer flat full mesh: n^2 deliveries put the time in mempool inserts, fingerprints, imports and the audit",
        build: flat128,
    },
    Workload {
        name: "committee256",
        why: "256 peers in 16 committees with epidemic gossip: the hierarchical path, n^2 announcements but 16x fewer payloads",
        build: committee256,
    },
    Workload {
        name: "churn48",
        why: "48 peers under partition, churn, hash shock, 5% loss and the policy controller: forks make it chain-import bound",
        build: churn48,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn paper3() -> ScenarioSpec {
    ScenarioSpec::paper_cell("paper3", 3)
        .rounds(10)
        .local_epochs(5)
}

fn consider14() -> ScenarioSpec {
    ScenarioSpec::new("consider14", 14)
        .rounds(4)
        .strategy(Strategy::Consider)
        .consider_cutover(32, 3)
        .data(DataSpec::scaled_for(48))
}

/// `wide_cell(128, 100)` of `examples/scenarios.rs`.
fn flat128() -> ScenarioSpec {
    let n = 128;
    ScenarioSpec::new("flat128", n)
        .rounds(2)
        .consider_cutover(6, 100)
        .difficulty(200_000 * n as u128 / 48)
        .data(DataSpec::scaled_for(n))
        .seed(n as u64)
}

/// `committee_cell(256, 16)` of `examples/scenarios.rs`.
fn committee256() -> ScenarioSpec {
    let n = 256;
    ScenarioSpec::new("committee256", n)
        .rounds(2)
        .consider_cutover(6, 48)
        .difficulty(200_000 * n as u128 / 48)
        .gossip(GossipMode::Epidemic { fanout: 3 })
        .committees(CommitteeSpec::contiguous(16))
        .data(DataSpec::scaled_for(n))
        .seed(n as u64)
}

/// `adaptive48_spec()` of `examples/scenarios.rs` under its `adaptive_rule()`
/// controller, plus 5 % packet loss.
fn churn48() -> ScenarioSpec {
    let scaled = DataSpec::scaled_for(48);
    let early: Vec<usize> = (1..48).filter(|&p| p != 9).collect();
    let mut spec = ScenarioSpec::new("churn48", 48)
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
        .seed(48)
        .loss(0.05)
        .controller(ControllerSpec::threshold(RuleConfig {
            wait_high_secs: 0.5,
            wait_low_secs: 0.0,
            keep_fraction: 0.9,
            staleness_high_secs: f64::INFINITY,
        }));
    spec.computes[0].train_rate = 0.8;
    for c in spec.computes.iter_mut().skip(24) {
        c.train_rate = 60.0;
    }
    spec
}

/// `bestk48_spec()` of `examples/scenarios.rs`: the lossless 48-peer cell the
/// committed byte guards are stated on. Not a workload — run once by the
/// drift guard.
pub fn bestk48() -> ScenarioSpec {
    ScenarioSpec::new("bestk48", 48)
        .rounds(2)
        .consider_cutover(6, 40)
        .data(DataSpec::scaled_for(48))
        .seed(48)
}

/// Committed byte accounting (`BENCH_history.jsonl` / `BENCH_scenarios.json`).
pub const BESTK48_GOSSIP_BYTES: u64 = 6_593_536;
pub const BESTK48_FETCH_BYTES: u64 = 45_120_000;
pub const COMMITTEE256_GOSSIP_BYTES: u64 = 78_499_968;
pub const COMMITTEE256_FETCH_BYTES: u64 = 252_468_480;

/// Everything a run needs besides the spec: what `ScenarioRunner::run_cell`
/// prepares before it calls the orchestrator.
pub struct Prepared {
    pub shards: Vec<Dataset>,
    pub tests: Vec<Dataset>,
}

/// Pool synthesis (the `data.synth` layer op): the training draw and the
/// per-peer test pool.
pub fn synth(spec: &ScenarioSpec) -> (Dataset, Dataset) {
    let gen = SynthCifar::new(spec.data.synth.clone());
    let (train, _held_out) = gen.generate(spec.seed);
    let mut peer_draw = RngHub::new(spec.seed).stream("scenario-peer-tests");
    let pool = gen.sample(&mut peer_draw, spec.data.synth.test_per_class);
    (train, pool)
}

/// Sharding (the `data.partition` layer op): one training shard and one
/// contiguous test slice per peer.
pub fn partition(spec: &ScenarioSpec, train: &Dataset, pool: &Dataset) -> Prepared {
    let n = spec.peers();
    let per = pool.len() / n;
    let tests = (0..n)
        .map(|i| pool.subset(&(i * per..(i + 1) * per).collect::<Vec<_>>()))
        .collect();
    let mut part_rng = RngHub::new(spec.seed).stream("scenario-partition");
    let shards = partition_dataset(train, n, spec.data.partition, &mut part_rng);
    Prepared { shards, tests }
}

/// The same datasets `blockfed::scenario::ScenarioRunner` would synthesize for
/// `spec` (its `prepare_data` is private, so the steps are repeated here; the
/// drift guards prove the copy is exact).
pub fn prepare(spec: &ScenarioSpec) -> Prepared {
    let (train, pool) = synth(spec);
    partition(spec, &train, &pool)
}

/// The model factory `ScenarioRunner` hands the orchestrator.
pub fn model_factory(spec: &ScenarioSpec) -> impl FnMut() -> Sequential {
    let mut arch_rng = StdRng::seed_from_u64(spec.seed ^ 0x5CE0);
    let model = spec.model;
    move || model.build(&mut arch_rng)
}

/// One full preparation as a user pays it before the first event: data,
/// validation, lowering and the first model build. `setup_s` times this.
pub fn setup_once(spec: &ScenarioSpec) {
    std::hint::black_box(prepare(spec));
    spec.validate().expect("benchmark specs are valid");
    std::hint::black_box(spec.decentralized_config());
    std::hint::black_box(model_factory(spec)());
}
