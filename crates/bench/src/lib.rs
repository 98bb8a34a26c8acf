//! The experiment harness: everything needed to regenerate the paper's
//! Tables I–IV and Figures 3–4, plus the trade-off, chain-performance and
//! contention studies. Used by the `experiments` binary and the criterion
//! benches.

// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod asyncopt;
pub mod poisoning;
pub mod sweep;

pub use asyncopt::{run_asyncopt, AsyncOptOutput};
pub use poisoning::{run_poisoning, PoisoningOutput};
pub use sweep::{run_tradeoff_sweep, SweepOutput};

use blockfed_core::{ComputeProfile, DecentralizedRun};
use blockfed_data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed_fl::{ClientId, Strategy, VanillaFl, VanillaFlConfig, VanillaRun, WaitPolicy};
use blockfed_net::LinkSpec;
use blockfed_nn::{EffNetLite, EffNetLiteConfig, ModelKind, Sequential, SimpleNnConfig};
use blockfed_report::{fmt_acc, LinePlot, Table};
use blockfed_scenario::ScenarioSpec;
use blockfed_sim::RngHub;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Experiment scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Display name.
    pub name: &'static str,
    /// Dataset generator configuration.
    pub synth: SynthCifarConfig,
    /// SimpleNN architecture.
    pub simple: SimpleNnConfig,
    /// EfficientNet-B0 stand-in architecture.
    pub effnet: EffNetLiteConfig,
    /// Communication rounds.
    pub rounds: u32,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for the from-scratch model.
    pub lr_simple: f32,
    /// Learning rate for the transfer head.
    pub lr_head: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Dirichlet label-skew concentration across the three clients.
    pub alpha: f64,
    /// Master seed.
    pub seed: u64,
    /// Run every local-training loop batch-parallel
    /// (`blockfed_nn::Sequential::par_train_epochs`). Bit-identical to the
    /// sequential loop, so tables and figures never depend on it; it only
    /// buys host wall-clock on multicore machines.
    pub batch_parallel: bool,
}

impl Profile {
    /// The default profile: paper-scale protocol (3 clients, 10 rounds,
    /// 5 epochs, ~62 K-parameter SimpleNN) with a backbone width that keeps a
    /// full regeneration to a couple of minutes.
    pub fn quick() -> Self {
        Profile {
            name: "quick",
            synth: SynthCifarConfig::default(),
            simple: SimpleNnConfig::paper(),
            effnet: EffNetLiteConfig::quick(),
            rounds: 10,
            local_epochs: 5,
            batch_size: 32,
            lr_simple: 0.008,
            lr_head: 0.08,
            momentum: 0.9,
            alpha: 0.8,
            seed: 42,
            batch_parallel: true,
        }
    }

    /// The paper-scale profile: the full 5.3 M-parameter (21.2 MB) backbone.
    pub fn full() -> Self {
        Profile {
            name: "full",
            effnet: EffNetLiteConfig::paper(),
            ..Profile::quick()
        }
    }

    /// A miniature profile for tests and criterion benches.
    pub fn tiny() -> Self {
        let synth = SynthCifarConfig::tiny();
        Profile {
            name: "tiny",
            simple: SimpleNnConfig::tiny(synth.feature_dim, synth.num_classes),
            effnet: EffNetLiteConfig::tiny(synth.feature_dim, synth.num_classes),
            synth,
            rounds: 3,
            local_epochs: 2,
            batch_size: 16,
            lr_simple: 0.1,
            lr_head: 0.1,
            momentum: 0.9,
            alpha: 0.8,
            seed: 42,
            batch_parallel: false,
        }
    }

    /// Overrides the seed (for seed-sweep ablations).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Which of the paper's two models to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSel {
    /// The from-scratch SimpleNN.
    Simple,
    /// The transfer-learned Efficient-B0 stand-in.
    EffNet,
}

impl ModelSel {
    /// The display name used in the paper's tables.
    pub fn kind(self) -> ModelKind {
        match self {
            ModelSel::Simple => ModelKind::SimpleNn,
            ModelSel::EffNet => ModelKind::EffNetLite,
        }
    }
}

/// Datasets and pretrained components shared by all experiments of a profile.
pub struct PreparedData {
    /// The profile that produced this data.
    pub profile: Profile,
    /// Per-client training shards (raw feature space).
    pub train_shards: Vec<Dataset>,
    /// The full held-out test set (the aggregator's selection set).
    pub global_test: Dataset,
    /// Per-peer test sets (disjoint thirds of a second held-out draw).
    pub peer_tests: Vec<Dataset>,
    /// The pretrained, frozen backbone.
    pub effnet: EffNetLite,
    /// Training shards in backbone-feature space (head training).
    pub head_shards: Vec<Dataset>,
    /// Global test set in feature space.
    pub head_global_test: Dataset,
    /// Per-peer test sets in feature space.
    pub head_peer_tests: Vec<Dataset>,
}

/// Generates datasets, partitions them across the three clients, and
/// pretrains + freezes the backbone — one call shared by every experiment.
pub fn prepare(profile: Profile) -> PreparedData {
    let hub = RngHub::new(profile.seed);
    let gen = SynthCifar::new(profile.synth.clone());
    let (train, global_test) = gen.generate(profile.seed);
    // A second, disjoint draw provides per-peer test data.
    let mut peer_draw = hub.stream("peer-tests");
    let peer_pool = gen.sample(&mut peer_draw, profile.synth.test_per_class);
    let third = peer_pool.len() / 3;
    let peer_tests: Vec<Dataset> = (0..3)
        .map(|i| {
            let idx: Vec<usize> = (i * third..(i + 1) * third).collect();
            peer_pool.subset(&idx)
        })
        .collect();

    let mut part_rng = hub.stream("partition");
    let train_shards = partition_dataset(
        &train,
        3,
        Partition::DirichletLabelSkew {
            alpha: profile.alpha,
        },
        &mut part_rng,
    );

    // "Pretrained on ImageNet" analog: a disjoint draw from the same
    // observation process pretrains the backbone, which is then frozen.
    let mut pretext_rng = hub.stream("pretext");
    let pretext = gen.sample(&mut pretext_rng, profile.synth.train_per_class);
    let mut bb_rng = hub.stream("backbone");
    let mut effnet = EffNetLite::pretrained(profile.effnet, &pretext, &mut bb_rng);

    let head_shards = train_shards
        .iter()
        .map(|s| effnet.extract_features(s))
        .collect();
    let head_global_test = effnet.extract_features(&global_test);
    let head_peer_tests = peer_tests
        .iter()
        .map(|s| effnet.extract_features(s))
        .collect();

    PreparedData {
        profile,
        train_shards,
        global_test,
        peer_tests,
        effnet,
        head_shards,
        head_global_test,
        head_peer_tests,
    }
}

impl PreparedData {
    /// A model factory for the selected architecture, seeded from the profile.
    pub fn model_factory(&self, sel: ModelSel) -> Box<dyn FnMut() -> Sequential> {
        let hub = RngHub::new(self.profile.seed);
        match sel {
            ModelSel::Simple => {
                let cfg = self.profile.simple;
                let mut rng = hub.stream("arch-simple");
                Box::new(move || cfg.build(&mut rng))
            }
            ModelSel::EffNet => {
                let width = self.profile.effnet.width;
                let classes = self.profile.effnet.num_classes;
                let mut rng = hub.stream("arch-head");
                Box::new(move || {
                    let mut head = Sequential::new();
                    head.push(blockfed_nn::Linear::new(&mut rng, width, classes));
                    head
                })
            }
        }
    }

    /// Learning rate for the selected architecture.
    pub fn lr(&self, sel: ModelSel) -> f32 {
        match sel {
            ModelSel::Simple => self.profile.lr_simple,
            ModelSel::EffNet => self.profile.lr_head,
        }
    }

    /// Training shards in the selected model's input space.
    pub fn shards(&self, sel: ModelSel) -> &[Dataset] {
        match sel {
            ModelSel::Simple => &self.train_shards,
            ModelSel::EffNet => &self.head_shards,
        }
    }

    /// The global test set in the selected model's input space.
    pub fn test(&self, sel: ModelSel) -> &Dataset {
        match sel {
            ModelSel::Simple => &self.global_test,
            ModelSel::EffNet => &self.head_global_test,
        }
    }

    /// Per-peer test sets in the selected model's input space.
    pub fn peer_tests(&self, sel: ModelSel) -> &[Dataset] {
        match sel {
            ModelSel::Simple => &self.peer_tests,
            ModelSel::EffNet => &self.head_peer_tests,
        }
    }

    /// The on-chain payload size of the selected model's artifact.
    pub fn payload_bytes(&self, sel: ModelSel) -> u64 {
        match sel {
            ModelSel::Simple => self.profile.simple.payload_bytes(),
            ModelSel::EffNet => self.profile.effnet.payload_bytes(),
        }
    }

    /// Runs `spec` through the scenario engine on the selected model's
    /// shards and per-peer test sets, with its model factory.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or does not have three peers.
    pub fn run(&self, sel: ModelSel, spec: &ScenarioSpec) -> DecentralizedRun {
        let mut factory = self.model_factory(sel);
        spec.run_with(self.shards(sel), self.peer_tests(sel), &mut *factory)
    }
}

/// Runs the Vanilla (centralized) FL baseline for one model and strategy.
pub fn vanilla_run(data: &PreparedData, sel: ModelSel, strategy: Strategy) -> VanillaRun {
    let p = &data.profile;
    let config = VanillaFlConfig {
        rounds: p.rounds,
        local_epochs: p.local_epochs,
        batch_size: p.batch_size,
        lr: data.lr(sel),
        momentum: p.momentum,
        strategy,
        batch_parallel: p.batch_parallel,
    };
    // All clients evaluate the distributed global model on the shared test
    // data, as in Table I (identical per-client rows).
    let tests = vec![
        data.test(sel).clone(),
        data.test(sel).clone(),
        data.test(sel).clone(),
    ];
    let driver = VanillaFl::new(config, data.shards(sel), &tests, data.test(sel));
    let mut factory = data.model_factory(sel);
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5A5A);
    driver.run(&mut *factory, &mut rng)
}

/// Per-peer compute heterogeneity: one fast, one nominal, one straggling peer.
/// This is the regime where the "wait or not" question has teeth — with
/// identical peers every model arrives in the same block anyway.
pub fn straggler_profiles() -> Vec<ComputeProfile> {
    vec![
        ComputeProfile {
            train_rate: 1_100.0,
            ..ComputeProfile::paper_vm()
        },
        ComputeProfile {
            train_rate: 700.0,
            ..ComputeProfile::paper_vm()
        },
        // The straggler: slower than a block interval, so faster peers see its
        // model one or two blocks later than their own.
        ComputeProfile {
            train_rate: 100.0,
            ..ComputeProfile::paper_vm()
        },
    ]
}

/// The declarative scenario every decentralized experiment starts from: the
/// paper's protocol (10 rounds × 5 epochs), ~13 s blocks, LAN links, three
/// identical peers. Experiments refine the spec (adversaries, gates,
/// `.computes(straggler_profiles())`) and run it with [`PreparedData::run`].
pub fn decentralized_scenario(
    data: &PreparedData,
    sel: ModelSel,
    wait_policy: WaitPolicy,
) -> ScenarioSpec {
    let p = &data.profile;
    ScenarioSpec::new("paper-decentralized", 3)
        .rounds(p.rounds)
        .local_epochs(p.local_epochs)
        .batch_size(p.batch_size)
        .lr(data.lr(sel))
        .momentum(p.momentum)
        .wait(wait_policy)
        .strategy(Strategy::Consider)
        .payload_bytes(data.payload_bytes(sel))
        .difficulty(3_000_000)
        .computes(vec![ComputeProfile::paper_vm(); 3])
        .batch_parallel(p.batch_parallel)
        .link(LinkSpec::lan())
        .seed(p.seed)
}

/// Output of the Table I / Figure 3 regeneration.
pub struct Table1Output {
    /// The paper's Table I.
    pub table: Table,
    /// Figure 3's panels (one per model).
    pub figures: Vec<LinePlot>,
    /// Raw runs keyed `(model, strategy)`.
    pub runs: Vec<(ModelSel, Strategy, VanillaRun)>,
}

/// Regenerates **Table I** and **Figure 3**: Vanilla FL clients' test accuracy
/// under "consider" vs "not consider" for both models.
pub fn run_table1(data: &PreparedData) -> Table1Output {
    let rounds = data.profile.rounds as usize;
    let mut cols: Vec<String> = vec!["Model".into(), "Client".into(), "Params".into()];
    cols.extend((1..=rounds).map(|r| r.to_string()));
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table I — Vanilla FL: clients' test accuracy on two aggregation types",
        &col_refs,
    );
    let mut figures = Vec::new();
    let mut runs = Vec::new();

    for sel in [ModelSel::Simple, ModelSel::EffNet] {
        let mut plot = LinePlot::new(
            format!("Figure 3 ({}) — accuracy vs round", sel.kind()),
            60,
            14,
        );
        for strategy in [Strategy::Consider, Strategy::NotConsider] {
            let run = vanilla_run(data, sel, strategy);
            for client in 0..3 {
                let series = run.client_series(ClientId(client));
                let mut row = vec![
                    sel.kind().to_string(),
                    ClientId(client).to_string(),
                    strategy.to_string(),
                ];
                row.extend(series.iter().map(|a| fmt_acc(*a)));
                table.row_owned(row);
                if client == 0 {
                    plot.series(format!("{strategy}"), &series);
                }
            }
            runs.push((sel, strategy, run));
        }
        figures.push(plot);
    }
    Table1Output {
        table,
        figures,
        runs,
    }
}

/// Output of the Tables II–IV / Figure 4 regeneration.
pub struct Tables234Output {
    /// Tables II, III, IV (clients A, B, C).
    pub tables: Vec<Table>,
    /// Figure 4's panels (client × model).
    pub figures: Vec<LinePlot>,
    /// The raw decentralized runs keyed by model.
    pub runs: Vec<(ModelSel, DecentralizedRun)>,
}

/// The row labels of the paper's per-client tables, owner-first.
pub fn paper_combo_labels(owner: usize) -> Vec<String> {
    let me = ClientId(owner);
    let others: Vec<ClientId> = (0..3).filter(|&i| i != owner).map(ClientId).collect();
    vec![
        format!("{me}"),
        format!("{me},{}", others[0]),
        format!("{me},{}", others[1]),
        format!("{},{}", others[0], others[1]),
        "A,B,C".to_string(),
    ]
}

/// Regenerates **Tables II–IV** and **Figure 4**: per-peer accuracy of every
/// model combination across rounds in the blockchain-based decentralized
/// setting.
pub fn run_tables234(data: &PreparedData) -> Tables234Output {
    let rounds = data.profile.rounds as usize;
    let mut runs = Vec::new();
    for sel in [ModelSel::Simple, ModelSel::EffNet] {
        let spec = decentralized_scenario(data, sel, WaitPolicy::All);
        runs.push((sel, data.run(sel, &spec)));
    }

    let mut tables = Vec::new();
    let mut figures = Vec::new();
    for client in 0..3 {
        let mut cols: Vec<String> = vec!["Model".into(), "Params from".into()];
        cols.extend((1..=rounds).map(|r| r.to_string()));
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let numeral = ["II", "III", "IV"][client];
        let mut table = Table::new(
            format!(
                "Table {numeral} — Blockchain-based FL: accuracy per model combination — Client {}",
                ClientId(client)
            ),
            &col_refs,
        );
        for (sel, run) in &runs {
            let mut plot = LinePlot::new(
                format!(
                    "Figure 4 (Client {}, {}) — accuracy vs round",
                    ClientId(client),
                    sel.kind()
                ),
                60,
                14,
            );
            for label in paper_combo_labels(client) {
                let series: Vec<f64> = run.peer_records[client]
                    .iter()
                    .map(|r| {
                        r.accuracy_of(&label)
                            // Normalize alternate orderings of the full set.
                            .or_else(|| full_set_fallback(r, &label))
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                let mut row = vec![sel.kind().to_string(), label.clone()];
                row.extend(series.iter().map(|a| {
                    if a.is_nan() {
                        "-".to_string()
                    } else {
                        fmt_acc(*a)
                    }
                }));
                table.row_owned(row);
                plot.series(label, &series);
            }
            figures.push(plot);
        }
        tables.push(table);
    }
    Tables234Output {
        tables,
        figures,
        runs,
    }
}

fn full_set_fallback(record: &blockfed_core::PeerRoundRecord, label: &str) -> Option<f64> {
    if label != "A,B,C" {
        return None;
    }
    // The owner-first labelling writes the full set e.g. "B,A,C".
    record
        .combos
        .iter()
        .find(|(l, _)| l.split(',').count() == 3)
        .map(|(_, a)| a)
}

/// One row of the trade-off study.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffRow {
    /// Which model.
    pub model: ModelKind,
    /// The wait policy evaluated.
    pub policy: WaitPolicy,
    /// Mean final-round accuracy across the three peers.
    pub final_accuracy: f64,
    /// Accuracy delta versus wait-all (percentage points).
    pub accuracy_delta_pp: f64,
    /// Mean per-round aggregation wait (seconds).
    pub mean_wait_secs: f64,
    /// Virtual time when all peers finished (seconds).
    pub makespan_secs: f64,
}

/// Output of the trade-off study.
pub struct TradeoffOutput {
    /// The rendered table.
    pub table: Table,
    /// The raw rows.
    pub rows: Vec<TradeoffRow>,
}

/// Regenerates the paper's title question as a measurement: final accuracy
/// versus aggregation wait for `wait-k ∈ {all, 2, 1}` on both models.
pub fn run_tradeoff(data: &PreparedData) -> TradeoffOutput {
    let mut rows = Vec::new();
    for sel in [ModelSel::Simple, ModelSel::EffNet] {
        let mut baseline_acc = None;
        for policy in [
            WaitPolicy::All,
            WaitPolicy::FirstK(2),
            WaitPolicy::FirstK(1),
        ] {
            let spec = decentralized_scenario(data, sel, policy).computes(straggler_profiles());
            let run = data.run(sel, &spec);
            let final_accuracy = (0..3).map(|p| run.final_accuracy(p)).sum::<f64>() / 3.0;
            let baseline = *baseline_acc.get_or_insert(final_accuracy);
            rows.push(TradeoffRow {
                model: sel.kind(),
                policy,
                final_accuracy,
                accuracy_delta_pp: (final_accuracy - baseline) * 100.0,
                mean_wait_secs: run.mean_wait().as_secs_f64(),
                makespan_secs: run.finished_at.as_secs_f64(),
            });
        }
    }
    let mut table = Table::new(
        "Trade-off — wait or not to wait: accuracy vs aggregation latency",
        &[
            "Model",
            "Policy",
            "Final acc",
            "Δacc (pp)",
            "Mean wait (s)",
            "Makespan (s)",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.model.to_string(),
            r.policy.to_string(),
            fmt_acc(r.final_accuracy),
            format!("{:+.2}", r.accuracy_delta_pp),
            format!("{:.2}", r.mean_wait_secs),
            format!("{:.1}", r.makespan_secs),
        ]);
    }
    TradeoffOutput { table, rows }
}

/// One row of the chain-performance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPerfRow {
    /// Number of participants submitting and mining.
    pub participants: usize,
    /// Declared model payload per transaction (bytes).
    pub payload_bytes: u64,
    /// Total successful submissions per virtual second.
    pub throughput_tps: f64,
    /// Throughput each participant observes.
    pub per_peer_tps: f64,
    /// Mean block interval (seconds).
    pub block_interval_secs: f64,
    /// Mean gas per block.
    pub gas_per_block: f64,
}

/// Output of the chain-performance sweep.
pub struct ChainPerfOutput {
    /// The rendered table.
    pub table: Table,
    /// The raw rows.
    pub rows: Vec<ChainPerfRow>,
}

/// The chain-only workload behind §II-A2's accepted findings: participants
/// submit model-sized transactions while mining; doubling the participants
/// roughly halves the per-peer throughput (Peng et al.), and big payloads
/// stretch gas and block intervals.
pub fn run_chainperf(
    participant_counts: &[usize],
    payloads: &[u64],
    txs_per_peer: usize,
    seed: u64,
) -> ChainPerfOutput {
    run_chainperf_with_gas_limit(participant_counts, payloads, txs_per_peer, seed, 25_000_000)
}

/// [`run_chainperf`] with an explicit block gas limit. The limit is what makes
/// chain capacity the bottleneck: the block cadence self-stabilizes at ~13 s
/// via difficulty (independent of the miner count), so total throughput is
/// capacity-bound and *per-peer* throughput halves when participants double.
pub fn run_chainperf_with_gas_limit(
    participant_counts: &[usize],
    payloads: &[u64],
    txs_per_peer: usize,
    seed: u64,
    block_gas_limit: u64,
) -> ChainPerfOutput {
    use blockfed_chain::{pow, Blockchain, GenesisSpec, Mempool};
    use blockfed_crypto::KeyPair;
    use blockfed_vm::{BlockfedRuntime, NativeContract, RegistryCall, NATIVE_REGISTRY_CODE};

    let mut rows = Vec::new();
    for &payload in payloads {
        for &n in participant_counts {
            let hub = RngHub::new(seed ^ ((n as u64) << 8) ^ payload);
            let mut key_rng = hub.stream("keys");
            let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&mut key_rng)).collect();
            let addrs: Vec<_> = keys.iter().map(KeyPair::address).collect();
            let mut reg = [0u8; 20];
            reg[0] = 0xFE;
            let registry = blockfed_crypto::H160::from_bytes(reg);
            let per_peer_hashrate = 80_000.0;
            // Equilibrium difficulty for ~13 s blocks at this miner count
            // (what the retarget rule would converge to anyway).
            let difficulty = (13.0 * per_peer_hashrate * n as f64) as u128;
            let mut spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
                .with_difficulty(difficulty)
                .with_code(registry, NATIVE_REGISTRY_CODE.to_vec());
            spec.gas_limit = block_gas_limit;
            let mut chain = Blockchain::new(&spec);
            let mut runtime = BlockfedRuntime::new();
            runtime.register_native(registry, NativeContract::FlRegistry);
            let mut mempool = Mempool::new();

            // All registrations + submissions enter the (shared) pool up
            // front; miners drain it. Per-peer hash rate is fixed, so more
            // peers mine faster but carry proportionally more load.
            let state0 = chain.state().clone();
            for (i, k) in keys.iter().enumerate() {
                mempool
                    .insert(blockfed_core::register_tx(registry, k, 0), &state0)
                    .expect("valid registration");
                for t in 0..txs_per_peer {
                    let call = RegistryCall::SubmitModel {
                        round: t as u32,
                        model_hash: blockfed_crypto::sha256::sha256(
                            format!("m-{i}-{t}").as_bytes(),
                        ),
                        payload_bytes: payload,
                        sample_count: 100,
                    };
                    let tx = blockfed_chain::Transaction::call(
                        k.address(),
                        registry,
                        call.encode(),
                        1 + t as u64,
                    )
                    .with_payload_bytes(payload)
                    .with_gas_limit(100_000_000)
                    .signed(k);
                    mempool.insert(tx, &state0).expect("valid submission");
                }
            }
            let total_txs = n * (1 + txs_per_peer);

            let mut mine_rng = hub.stream("mining");
            let mut now_ns: u64 = 0;
            let mut included = 0usize;
            let mut blocks = 0usize;
            let mut gas_total: u64 = 0;
            while included < total_txs {
                let difficulty = chain.head_block().header.difficulty;
                let delay = pow::sample_mining_delay(
                    difficulty,
                    per_peer_hashrate * n as f64,
                    &mut mine_rng,
                );
                now_ns = now_ns
                    .saturating_add(delay.as_nanos())
                    .max(chain.head_block().header.timestamp_ns + 1);
                let state = chain.state().clone();
                mempool.prune(&state);
                let gas_limit = chain.head_block().header.gas_limit;
                // Real chains cap block size; 16 txs/block keeps capacity (not
                // single-block quantization) the binding constraint.
                let txs = mempool.select(&state, gas_limit, 16);
                let block = chain.build_candidate(addrs[blocks % n], txs, now_ns, &mut runtime);
                gas_total += block.header.gas_used;
                chain.import(block, &mut runtime).expect("self-built block");
                let state = chain.state().clone();
                mempool.prune(&state);
                included = total_txs - mempool.len();
                blocks += 1;
                assert!(blocks < 100_000, "chainperf livelock");
            }
            let makespan = now_ns as f64 / 1e9;
            let submissions = (n * txs_per_peer) as f64;
            let throughput = submissions / makespan;
            rows.push(ChainPerfRow {
                participants: n,
                payload_bytes: payload,
                throughput_tps: throughput,
                per_peer_tps: throughput / n as f64,
                block_interval_secs: makespan / blocks as f64,
                gas_per_block: gas_total as f64 / blocks as f64,
            });
        }
    }

    let mut table = Table::new(
        "Chain performance — participants × payload sweep (§II-A2 shapes)",
        &[
            "Peers",
            "Payload",
            "TPS",
            "Per-peer TPS",
            "Block interval (s)",
            "Gas/block",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.participants.to_string(),
            format!("{:.1} MB", r.payload_bytes as f64 / 1e6),
            format!("{:.3}", r.throughput_tps),
            format!("{:.4}", r.per_peer_tps),
            format!("{:.2}", r.block_interval_secs),
            format!("{:.0}", r.gas_per_block),
        ]);
    }
    ChainPerfOutput { table, rows }
}

/// One row of the contention study.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionRow {
    /// The contention coefficient.
    pub contention: f64,
    /// Mean block interval (seconds).
    pub block_interval_secs: f64,
    /// Virtual completion time of the whole run (seconds).
    pub makespan_secs: f64,
    /// Mean aggregation wait (seconds).
    pub mean_wait_secs: f64,
}

/// Output of the contention study.
pub struct ContentionOutput {
    /// The rendered table.
    pub table: Table,
    /// The raw rows.
    pub rows: Vec<ContentionRow>,
}

/// The "resource exhaustion from dual tasks" study: sweep the mining⇄training
/// contention coefficient and watch block intervals and round times inflate.
pub fn run_contention(data: &PreparedData, coefficients: &[f64]) -> ContentionOutput {
    let p = &data.profile;
    let mut rows = Vec::new();
    for &c in coefficients {
        let spec = decentralized_scenario(data, ModelSel::Simple, WaitPolicy::All)
            .named(format!("contention-{c:.2}"))
            .rounds(p.rounds.min(3))
            .uniform_compute(ComputeProfile {
                contention: c,
                ..ComputeProfile::paper_vm()
            });
        let run = data.run(ModelSel::Simple, &spec);
        rows.push(ContentionRow {
            contention: c,
            block_interval_secs: run
                .chain
                .mean_block_interval
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0),
            makespan_secs: run.finished_at.as_secs_f64(),
            mean_wait_secs: run.mean_wait().as_secs_f64(),
        });
    }
    let mut table = Table::new(
        "Contention — mining vs training resource exhaustion",
        &[
            "Contention",
            "Block interval (s)",
            "Makespan (s)",
            "Mean wait (s)",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            format!("{:.2}", r.contention),
            format!("{:.2}", r.block_interval_secs),
            format!("{:.1}", r.makespan_secs),
            format!("{:.2}", r.mean_wait_secs),
        ]);
    }
    ContentionOutput { table, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_profile_prepares_consistently() {
        let data = prepare(Profile::tiny());
        assert_eq!(data.train_shards.len(), 3);
        assert_eq!(data.peer_tests.len(), 3);
        assert_eq!(data.head_shards.len(), 3);
        assert_eq!(data.head_shards[0].feature_dim(), data.profile.effnet.width);
        // Feature extraction preserves labels.
        assert_eq!(data.head_shards[0].labels(), data.train_shards[0].labels());
    }

    #[test]
    fn table1_has_twelve_rows() {
        let data = prepare(Profile::tiny());
        let out = run_table1(&data);
        // 2 models × 2 strategies × 3 clients.
        assert_eq!(out.table.len(), 12);
        assert_eq!(out.figures.len(), 2);
        assert_eq!(out.runs.len(), 4);
    }

    #[test]
    fn tables234_have_paper_rows() {
        let data = prepare(Profile::tiny());
        let out = run_tables234(&data);
        assert_eq!(out.tables.len(), 3);
        for t in &out.tables {
            // 2 models × 5 combination rows.
            assert_eq!(t.len(), 10);
        }
        assert_eq!(out.figures.len(), 6);
    }

    #[test]
    fn combo_labels_match_paper() {
        assert_eq!(
            paper_combo_labels(0),
            vec!["A", "A,B", "A,C", "B,C", "A,B,C"]
        );
        assert_eq!(
            paper_combo_labels(1),
            vec!["B", "B,A", "B,C", "A,C", "A,B,C"]
        );
        assert_eq!(
            paper_combo_labels(2),
            vec!["C", "C,A", "C,B", "A,B", "A,B,C"]
        );
    }

    #[test]
    fn tradeoff_orders_waits() {
        let data = prepare(Profile::tiny());
        let out = run_tradeoff(&data);
        assert_eq!(out.rows.len(), 6);
        // Within each model, wait-1 must not wait longer than wait-all.
        for sel in [ModelKind::SimpleNn, ModelKind::EffNetLite] {
            let waits: Vec<f64> = out
                .rows
                .iter()
                .filter(|r| r.model == sel)
                .map(|r| r.mean_wait_secs)
                .collect();
            assert!(waits[2] <= waits[0] + 1e-9, "{sel}: {waits:?}");
        }
    }

    #[test]
    fn chainperf_shapes() {
        // 21.2 MB payloads: one submission per block, so chain capacity (not
        // mining power) bounds throughput, as in the referenced measurements.
        let out = run_chainperf(&[3, 6], &[21_200_000], 4, 7);
        assert_eq!(out.rows.len(), 2);
        let three = &out.rows[0];
        let six = &out.rows[1];
        // Per-peer throughput roughly halves when participants double.
        assert!(
            six.per_peer_tps < three.per_peer_tps * 0.7,
            "3 peers {:.4} vs 6 peers {:.4}",
            three.per_peer_tps,
            six.per_peer_tps
        );
        // Total throughput stays roughly flat (capacity-bound).
        let ratio = six.throughput_tps / three.throughput_tps;
        assert!((0.5..=1.6).contains(&ratio), "total tps ratio {ratio}");
    }

    #[test]
    fn contention_inflates_times() {
        let data = prepare(Profile::tiny());
        let out = run_contention(&data, &[0.0, 0.6]);
        assert_eq!(out.rows.len(), 2);
        assert!(
            out.rows[1].makespan_secs > out.rows[0].makespan_secs,
            "contention should slow the run: {:?}",
            out.rows
        );
    }
}
