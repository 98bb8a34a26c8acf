//! The traced pass: census + per-layer replay.
//!
//! After one untraced and one traced run of the cell, each layer's public
//! functions are called directly, in a loop, at the workload's real shapes and
//! on inputs taken from the finished run — its published updates, peer 0's
//! canonical blocks, the spec's topology and link, the peers' test sets. Each
//! loop sits in a benchmark-side span; a layer metric is the span's *self*
//! time over the operations it made. Everything is measured from outside.
//!
//! `<layer>.est_share` multiplies those per-operation costs by the call census
//! and divides by `run_s`. It is an estimate: a replay runs its calls back to
//! back with warm caches, the census counts only what public outputs reveal,
//! and whatever the orchestrator does between layer calls is in none of them.
//! `core.unattributed_share` is what remains, reported as it is.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blockfed::chain::{
    Block, Blockchain, CallContext, ChainStore, GenesisSpec, Mempool, SealPolicy, State,
    Transaction,
};
use blockfed::core::{
    collect_evidence, confirmed_submissions, model_fingerprint, registry_address, submit_model_tx,
    verify_evidence, DecentralizedRun,
};
use blockfed::crypto::sha256::sha256;
use blockfed::crypto::{KeyPair, H160};
use blockfed::data::{Batcher, Dataset};
use blockfed::fl::{aggregate_with, fed_avg, CandidateEvaluator, ModelUpdate, Strategy};
use blockfed::net::{FloodScratch, GossipMode, Network, NodeId};
use blockfed::nn::{Sequential, Sgd};
use blockfed::scenario::ScenarioSpec;
use blockfed::sim::{RngHub, Scheduler, SimDuration};
use blockfed::telemetry::{MemorySink, NoopSink};
use blockfed::tensor::{matmul, matmul_at, matmul_bt, Tensor};
use blockfed::vm::{
    BlockfedRuntime, ComboMask, NativeContract, RegistryCall, NATIVE_REGISTRY_CODE,
};
use rand::Rng;

use crate::census::Census;
use crate::measure::{self, SimOutputs};
use crate::metrics::PER_LAYER;
use crate::spans::{self, Recorder, Span};
use crate::workloads::{self, Prepared};

/// What one replayed operation cost: how many calls the loop made and the
/// span's self time.
#[derive(Debug, Clone, Copy)]
struct OpStat {
    ops: u64,
    self_ns: u64,
    /// The loop's span, for callers that account its child spans separately.
    span: usize,
}

impl OpStat {
    fn ns(self) -> f64 {
        self.self_ns as f64 / self.ops.max(1) as f64
    }
    fn us(self) -> f64 {
        self.ns() / 1e3
    }
    fn ms(self) -> f64 {
        self.ns() / 1e6
    }
    fn secs(self) -> f64 {
        self.ns() / 1e9
    }
}

/// Calls `op(rec, i)` for `i = 0, 1, …` inside one `name` span until `cap`
/// has elapsed (always at least once). `op` returns how many operations the
/// call performed; work it wraps in a child span is not charged to `name`.
fn looped(
    rec: &mut Recorder,
    name: &str,
    cap: Duration,
    mut op: impl FnMut(&mut Recorder, usize) -> u64,
) -> OpStat {
    let (ops, id) = rec.scope(name, |rec| {
        let started = Instant::now();
        let (mut ops, mut i) = (0, 0);
        loop {
            ops += op(rec, i);
            i += 1;
            if started.elapsed() >= cap {
                return ops;
            }
        }
    });
    OpStat {
        ops,
        self_ns: rec.self_ns(id),
        span: id,
    }
}

/// Scores candidates exactly as the orchestrator's private `PoolScorer` does —
/// one scratch model per compute worker — inside an `nn.eval` span, so the
/// scoring an aggregation triggers is charged to `nn`, not to `fl`.
struct SpanScorer<'a> {
    rec: &'a mut Recorder,
    pool: &'a mut [Sequential],
    test: &'a Dataset,
    scored: &'a mut u64,
}

impl CandidateEvaluator for SpanScorer<'_> {
    fn score_batch(&mut self, candidates: &[&[f32]]) -> Vec<f64> {
        let id = self.rec.open("nn.eval");
        let test = self.test;
        let scores = blockfed::compute::par_map_with(self.pool, candidates, |model, params| {
            model.set_params_flat(params);
            model.evaluate(test).accuracy
        });
        self.rec.close(id);
        *self.scored += candidates.len() as u64;
        scores
    }
}

/// The run's identities and genesis, rebuilt from the seed the way the
/// orchestrator derives them (`RngHub::stream("keys")`).
struct ChainInputs {
    keys: Vec<KeyPair>,
    addrs: Vec<H160>,
    registry: H160,
    genesis: GenesisSpec,
    /// Peer 0's canonical blocks, genesis excluded, in order.
    blocks: Vec<Arc<Block>>,
    /// Every transaction those blocks carry.
    txs: Vec<Transaction>,
}

impl ChainInputs {
    fn of(spec: &ScenarioSpec, run: &DecentralizedRun) -> Self {
        let mut key_rng = RngHub::new(spec.seed).stream("keys");
        let keys: Vec<KeyPair> = (0..spec.peers())
            .map(|_| KeyPair::generate(&mut key_rng))
            .collect();
        let addrs: Vec<H160> = keys.iter().map(KeyPair::address).collect();
        let registry = registry_address();
        let genesis = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
            .with_difficulty(spec.difficulty)
            .with_code(registry, NATIVE_REGISTRY_CODE.to_vec());
        let chain = &run.final_chain;
        let blocks: Vec<Arc<Block>> = chain
            .canonical_chain()
            .iter()
            .skip(1)
            .map(|h| chain.block_arc(h).expect("canonical block exists"))
            .collect();
        let txs = blocks
            .iter()
            .flat_map(|b| b.transactions.iter().cloned())
            .collect();
        ChainInputs {
            keys,
            addrs,
            registry,
            genesis,
            blocks,
            txs,
        }
    }

    fn fresh_chain(&self, store: ChainStore) -> (Blockchain, BlockfedRuntime) {
        let mut runtime = BlockfedRuntime::new();
        runtime.register_native(self.registry, NativeContract::FlRegistry);
        (
            Blockchain::with_store(&self.genesis, SealPolicy::Simulated, store),
            runtime,
        )
    }
}

/// The result of the traced pass.
pub struct Traced {
    /// Every per-layer metric, keyed by its `BENCHMARK.json` name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub census: Census,
    pub spans: Vec<Span>,
    pub sim: SimOutputs,
    /// Host seconds of the untraced runs before and after the traced one.
    pub untraced_s: (f64, f64),
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Runs the cell untraced and traced, derives the census, replays every layer
/// (each operation capped at `seconds / 80`) and assembles the per-layer
/// metrics.
pub fn traced_pass(spec: &ScenarioSpec, seconds: f64) -> Traced {
    let cap = Duration::from_secs_f64(seconds / 80.0);
    let mut problems = Vec::new();
    let prepared = workloads::prepare(spec);

    // Replays that need nothing from a finished run go first; they also bring
    // the process to a steady state (allocator, page cache, clocks) before the
    // two runs whose difference is reported as the tracing overhead.
    let mut rec = Recorder::new("workload");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    replay_data(&mut rec, &mut m, spec, cap);
    replay_scenario(&mut rec, &mut m, spec, cap);
    replay_tensor(&mut rec, &mut m, spec, cap);
    let crypto = replay_crypto(&mut rec, &mut m, spec, cap);
    let net = replay_net(&mut rec, &mut m, spec, cap);
    replay_sim(&mut rec, &mut m, spec, cap);
    replay_compute(&mut rec, &mut m, cap);

    // Tracing off, on, off again: a process's first run of a cell is up to
    // 10 % slower than its later ones, so the traced run is compared with the
    // mean of the untraced runs on either side of it. The simulated outputs
    // of all three must be the same.
    let untraced = |rec: &mut Recorder| {
        rec.scope("run.untraced", |_| {
            let (plain, secs) = measure::run_once(spec, &prepared, &mut NoopSink);
            (SimOutputs::of(spec, &plain), secs)
        })
        .0
    };
    let (plain_out, before_s) = untraced(&mut rec);
    let mut sink = MemorySink::new();
    let ((run, run_traced_s), _) = rec.scope("run.traced", |_| {
        measure::run_once(spec, &prepared, &mut sink)
    });
    let (again_out, after_s) = untraced(&mut rec);
    let run_s = (before_s + after_s) / 2.0;
    let sim = SimOutputs::of(spec, &run);
    let attempted = sim.owed;
    let mut failed = attempted.saturating_sub(sim.records);
    if sim.stalled {
        problems.push("the traced run stalled on the watchdog".into());
        failed = attempted;
    }
    if sim != plain_out || sim != again_out {
        problems.push(format!(
            "traced outputs differ from untraced ({} vs {} and {})",
            sim.digest, plain_out.digest, again_out.digest
        ));
        failed = attempted;
    }
    let census = Census::of(spec, &run, &sink);

    // Replays on the finished run's own artifacts.
    let train = replay_nn(&mut rec, &mut m, spec, &prepared, cap);
    let fl = replay_fl(&mut rec, &mut m, spec, &prepared, &run, cap);
    let inputs = ChainInputs::of(spec, &run);
    let core = replay_core(&mut rec, &mut m, spec, &run, &inputs, cap, &mut problems);
    let chain = replay_chain(&mut rec, &mut m, &run, &inputs, cap, &mut problems);
    replay_vm(&mut rec, &mut m, spec, &run, &inputs, cap, &mut problems);
    let (export, _) = rec.scope("replay.telemetry", |rec| {
        looped(rec, "telemetry.export", Duration::ZERO, |_, _| {
            black_box(sink.to_jsonl().len());
            1
        })
    });
    let spans = rec.finish();
    if let Err(e) = spans::check_tree(&spans) {
        problems.push(format!("span tree malformed: {e}"));
    }

    // Census counts.
    let c = &census;
    for (name, count) in [
        ("nn.train_calls", c.train_calls),
        ("nn.eval_calls", c.eval_calls),
        ("fl.aggregate_calls", c.aggregate_calls),
        ("core.fingerprint_calls", c.fingerprint_calls),
        ("core.audit_calls", c.audit_calls),
        ("chain.sig_misses", c.sig_misses),
        ("chain.sig_hits", c.sig_hits),
        ("chain.exec_misses", c.exec_misses),
        ("chain.exec_hits", c.exec_hits),
        ("chain.blocks_sealed", c.blocks_sealed),
        ("net.flood_calls", c.flood_calls),
        ("net.fetch_retries", c.fetch_retries),
        ("telemetry.records", c.telemetry_records),
        ("core.peer_rounds", sim.records as u64),
    ] {
        m.insert(name, count as f64);
    }
    m.insert(
        "fl.candidates_per_call",
        c.eval_calls as f64 / c.aggregate_calls.max(1) as f64,
    );
    m.insert(
        "net.dropped_share",
        c.dropped_msgs as f64 / c.deliveries.max(1) as f64,
    );

    // Census × self time per operation ÷ run_s.
    let n = |count: u64| count as f64;
    let fingerprint_bytes = 14.0 + 4.0 * spec.model.param_count() as f64;
    let hashing = n(c.fingerprint_calls) * fingerprint_bytes / crypto.sha_bytes_per_sec;
    let shares = [
        (
            "nn.est_share",
            n(c.train_calls) * train.secs() + n(c.eval_calls) * fl.eval.secs(),
        ),
        ("fl.est_share", n(c.aggregate_calls) * fl.aggregate.secs()),
        (
            // Key generation, one signature per distinct transaction, and the
            // SHA-256 inside every model fingerprint.
            "crypto.est_share",
            n(spec.peers() as u64) * crypto.keygen.secs()
                + n(c.sig_misses) * crypto.sign.secs()
                + hashing,
        ),
        (
            // Fingerprints minus their hashing (charged to crypto above),
            // plus the audit. Confirmed-submission rescans are not countable
            // from outside, so they stay in the unattributed share.
            "core.est_share",
            (n(c.fingerprint_calls) * core.fingerprint.secs() - hashing).max(0.0)
                + n(c.audit_calls) * core.audit.secs(),
        ),
        (
            // Signature verification runs inside admissions, where no span
            // can be opened from outside; it is charged here, to the layer
            // whose verdict cache decides how often it runs
            // (`chain.sig_misses × crypto.verify_us` is its size).
            "chain.est_share",
            n(c.sig_misses) * chain.insert_cold.secs()
                + n(c.sig_hits) * chain.insert_warm.secs()
                + n(c.exec_misses) * chain.import_cold.secs()
                + n(c.exec_hits) * chain.import_warm.secs()
                + n(c.blocks_sealed) * chain.build_candidate.secs(),
        ),
        (
            "net.est_share",
            n(c.flood_calls)
                * (net.flood.secs()
                    + match spec.gossip {
                        GossipMode::Epidemic { .. } => net.epidemic.secs(),
                        _ => 0.0,
                    }),
        ),
    ];
    let mut attributed = 0.0;
    for (name, secs) in shares {
        m.insert(name, secs / run_s);
        attributed += secs / run_s;
    }
    m.insert("core.unattributed_share", 1.0 - attributed);

    m.insert("core.run_s", run_s);
    m.insert("core.run_traced_s", run_traced_s);
    m.insert("core.final_accuracy", sim.final_accuracy);
    m.insert("core.sim_wait_s", sim.sim_wait_s);
    m.insert("core.sim_makespan_s", sim.sim_makespan_s);
    m.insert("telemetry.overhead_share", (run_traced_s - run_s) / run_s);
    m.insert("telemetry.export_ms", export.ms());

    for def in &PER_LAYER {
        match m.get(def.name) {
            None => problems.push(format!("per-layer metric {} was not measured", def.name)),
            Some(v) if !v.is_finite() => {
                problems.push(format!("per-layer metric {} is {v}", def.name));
            }
            Some(_) => {}
        }
    }
    Traced {
        metrics: m,
        census,
        spans,
        sim,
        untraced_s: (before_s, after_s),
        attempted,
        failed,
        problems,
    }
}

type Metrics = BTreeMap<&'static str, f64>;

fn replay_data(rec: &mut Recorder, m: &mut Metrics, spec: &ScenarioSpec, cap: Duration) {
    rec.scope("replay.data", |rec| {
        let synth = looped(rec, "data.synth", cap, |_, _| {
            black_box(workloads::synth(spec));
            1
        });
        let (train, pool) = workloads::synth(spec);
        let partition = looped(rec, "data.partition", cap, |_, _| {
            black_box(workloads::partition(spec, &train, &pool));
            1
        });
        m.insert("data.synth_ms", synth.ms());
        m.insert("data.partition_ms", partition.ms());
    });
}

fn replay_scenario(rec: &mut Recorder, m: &mut Metrics, spec: &ScenarioSpec, cap: Duration) {
    rec.scope("replay.scenario", |rec| {
        let lower = looped(rec, "scenario.lower", cap, |_, _| {
            spec.validate().expect("benchmark specs are valid");
            black_box(spec.decentralized_config());
            1
        });
        m.insert("scenario.lower_us", lower.us());
    });
}

/// The three matmul variants a `Linear` layer uses (forward `x·Wᵀ`, weight
/// gradient `gᵀ·x`, input gradient `g·W`) at the model's three layer shapes
/// and the spec's batch size.
fn replay_tensor(rec: &mut Recorder, m: &mut Metrics, spec: &ScenarioSpec, cap: Duration) {
    let cfg = spec.model;
    let b = spec.batch_size;
    let filled = |rows: usize, cols: usize| {
        let data = (0..rows * cols).map(|i| (i % 17) as f32 * 0.01).collect();
        Tensor::from_vec(data, &[rows, cols])
    };
    let layers: Vec<(Tensor, Tensor, Tensor)> = [
        (cfg.input_dim, cfg.hidden1),
        (cfg.hidden1, cfg.hidden2),
        (cfg.hidden2, cfg.num_classes),
    ]
    .iter()
    .map(|&(fan_in, fan_out)| {
        (
            filled(b, fan_in),
            filled(fan_out, fan_in),
            filled(b, fan_out),
        )
    })
    .collect();
    let flops_per_pass: f64 = layers
        .iter()
        .map(|(x, w, _)| 3.0 * 2.0 * (b * x.shape()[1] * w.shape()[0]) as f64)
        .sum();
    rec.scope("replay.tensor", |rec| {
        let stat = looped(rec, "tensor.matmul", cap, |_, _| {
            for (x, w, g) in &layers {
                black_box(matmul_bt(x, w));
                black_box(matmul_at(g, x));
                black_box(matmul(g, w));
            }
            1
        });
        m.insert("tensor.matmul_gflops", flops_per_pass / stat.ns());
    });
}

fn replay_nn(
    rec: &mut Recorder,
    m: &mut Metrics,
    spec: &ScenarioSpec,
    prepared: &Prepared,
    cap: Duration,
) -> OpStat {
    let n = spec.peers();
    let hub = RngHub::new(spec.seed);
    let computes = spec.effective_computes();
    let mut factory = workloads::model_factory(spec);
    let init = factory().params_flat();
    let ((train, copy), _) = rec.scope("replay.nn", |rec| {
        // One operation = one peer's local training for one round, exactly
        // as the orchestrator's TrainDone arm runs it.
        let train = looped(rec, "nn.train", cap, |_, i| {
            let peer = i % n;
            let mut model = factory();
            model.set_params_flat(&init);
            let mut opt = Sgd::new(spec.lr, spec.momentum);
            let mut rng = hub.indexed_stream("train", (peer as u64) << 32 | 1);
            black_box(model.train_epochs_maybe_par(
                computes[peer].batch_parallel,
                &prepared.shards[peer],
                spec.local_epochs,
                &Batcher::new(spec.batch_size),
                &mut opt,
                &mut rng,
            ));
            1
        });
        let mut scratch = factory();
        let copy = looped(rec, "nn.params_copy", cap, |_, _| {
            let flat = scratch.params_flat();
            scratch.set_params_flat(&flat);
            1
        });
        (train, copy)
    });
    m.insert("nn.train_ms", train.ms());
    m.insert("nn.params_copy_us", copy.us());
    train
}

struct FlCosts {
    aggregate: OpStat,
    /// Candidate scoring as the aggregation really batches it across the
    /// compute pool: the `nn.eval` spans under `fl.aggregate`, per candidate.
    eval: OpStat,
}

fn replay_fl(
    rec: &mut Recorder,
    m: &mut Metrics,
    spec: &ScenarioSpec,
    prepared: &Prepared,
    run: &DecentralizedRun,
    cap: Duration,
) -> FlCosts {
    let n = spec.peers();
    // What peer 0 aggregates in round 1: every round-1 update of its own
    // committee (of everyone, in a flat run).
    let committee_of = spec
        .committees
        .filter(|c| c.count > 1)
        .map_or_else(|| vec![0; n], |c| c.assign(n));
    let members: Vec<usize> = (0..n)
        .filter(|&p| committee_of[p] == committee_of[0])
        .collect();
    let candidates: Vec<&ModelUpdate> = run
        .published_updates
        .iter()
        .filter(|u| u.round == 1 && committee_of[u.client.0] == committee_of[0])
        .collect();
    let strategy = spec.resolved_strategy();
    let averaged = match strategy {
        Strategy::BestK(k) => k.min(candidates.len()),
        _ => candidates.len(),
    };
    let hub = RngHub::new(spec.seed);
    let mut factory = workloads::model_factory(spec);
    let mut pool = vec![factory()];
    while pool.len() < blockfed::compute::num_threads().min(8) {
        let dup = pool[0].duplicate();
        pool.push(dup);
    }
    let mut scored = 0;
    let ((aggregate, fedavg), _) = rec.scope("replay.fl", |rec| {
        let aggregate = looped(rec, "fl.aggregate", cap, |rec, i| {
            let peer = members[i % members.len()];
            let mut rng = hub.indexed_stream("aggregate", (peer as u64) << 32 | 1);
            let mut scorer = SpanScorer {
                rec,
                pool: &mut pool,
                test: &prepared.tests[peer],
                scored: &mut scored,
            };
            black_box(
                aggregate_with(strategy, &candidates, &mut scorer, &mut rng)
                    .expect("round-1 updates aggregate"),
            );
            1
        });
        let fedavg = looped(rec, "fl.fedavg", cap, |_, _| {
            black_box(fed_avg(&candidates[..averaged]).expect("round-1 updates average"));
            1
        });
        (aggregate, fedavg)
    });
    let eval = OpStat {
        ops: scored,
        self_ns: rec.children_ns(aggregate.span),
        span: aggregate.span,
    };
    m.insert("fl.aggregate_ms", aggregate.ms());
    m.insert("fl.fedavg_us", fedavg.us());
    m.insert("nn.eval_us", eval.us());
    FlCosts { aggregate, eval }
}

struct CryptoCosts {
    sha_bytes_per_sec: f64,
    keygen: OpStat,
    sign: OpStat,
}

fn replay_crypto(
    rec: &mut Recorder,
    m: &mut Metrics,
    spec: &ScenarioSpec,
    cap: Duration,
) -> CryptoCosts {
    // A buffer the size of one serialized model: what a fingerprint hashes.
    let buffer = vec![0xA5u8; 14 + 4 * spec.model.param_count()];
    let mut rng = RngHub::new(spec.seed).stream("benchmark-crypto");
    let key = KeyPair::generate(&mut rng);
    let message = vec![7u8; 96];
    let signature = key.sign(&message);
    let public = key.public();
    let ((sha, keygen, sign, verify), _) = rec.scope("replay.crypto", |rec| {
        let sha = looped(rec, "crypto.sha256", cap, |_, _| {
            black_box(sha256(black_box(&buffer)));
            1
        });
        let keygen = looped(rec, "crypto.keygen", cap, |_, _| {
            black_box(KeyPair::generate(&mut rng));
            1
        });
        let sign = looped(rec, "crypto.sign", cap, |_, _| {
            black_box(key.sign(black_box(&message)));
            1
        });
        let verify = looped(rec, "crypto.verify", cap, |_, _| {
            public
                .verify(black_box(&message), &signature)
                .expect("own signature verifies");
            1
        });
        (sha, keygen, sign, verify)
    });
    let sha_bytes_per_sec = buffer.len() as f64 / sha.secs();
    m.insert("crypto.sha256_mb_s", sha_bytes_per_sec / 1e6);
    m.insert("crypto.keygen_us", keygen.us());
    m.insert("crypto.sign_us", sign.us());
    m.insert("crypto.verify_us", verify.us());
    CryptoCosts {
        sha_bytes_per_sec,
        keygen,
        sign,
    }
}

struct CoreCosts {
    fingerprint: OpStat,
    audit: OpStat,
}

fn replay_core(
    rec: &mut Recorder,
    m: &mut Metrics,
    spec: &ScenarioSpec,
    run: &DecentralizedRun,
    inputs: &ChainInputs,
    cap: Duration,
    problems: &mut Vec<String>,
) -> CoreCosts {
    let updates = &run.published_updates;
    let chain = &run.final_chain;
    let registry = inputs.registry;
    let mut audit_mismatches = 0;
    let ((fingerprint, submit, scan, audit), _) = rec.scope("replay.core", |rec| {
        let fingerprint = looped(rec, "core.fingerprint", cap, |_, i| {
            black_box(model_fingerprint(&updates[i % updates.len()]));
            1
        });
        let submit = looped(rec, "core.submit_tx", cap, |_, i| {
            let u = &updates[i % updates.len()];
            black_box(submit_model_tx(u, registry, &inputs.keys[u.client.0], 1));
            1
        });
        let scan = looped(rec, "core.confirmed_scan", cap, |_, i| {
            let round = 1 + (i as u32) % spec.rounds;
            black_box(confirmed_submissions(chain, registry, round));
            1
        });
        // One operation = the audit of one published update, as the
        // orchestrator runs it after the last event; the verdict must match.
        let audit = looped(rec, "core.audit", cap, |_, i| {
            let at = i % updates.len();
            let u = &updates[at];
            let verified = collect_evidence(chain, registry, inputs.addrs[u.client.0], u)
                .and_then(|evidence| verify_evidence(chain, &evidence, u))
                .is_ok();
            if verified != run.audits[at].verified {
                audit_mismatches += 1;
            }
            1
        });
        (fingerprint, submit, scan, audit)
    });
    if audit_mismatches > 0 {
        problems.push(format!(
            "{audit_mismatches} replayed audits disagree with the run's own verdicts"
        ));
    }
    m.insert("core.fingerprint_us", fingerprint.us());
    m.insert("core.submit_tx_us", submit.us());
    m.insert("core.confirmed_scan_us", scan.us());
    m.insert("core.audit_ms", audit.ms());
    CoreCosts { fingerprint, audit }
}

struct ChainCosts {
    insert_cold: OpStat,
    insert_warm: OpStat,
    import_cold: OpStat,
    import_warm: OpStat,
    build_candidate: OpStat,
}

fn replay_chain(
    rec: &mut Recorder,
    m: &mut Metrics,
    run: &DecentralizedRun,
    inputs: &ChainInputs,
    cap: Duration,
    problems: &mut Vec<String>,
) -> ChainCosts {
    let blocks = &inputs.blocks;
    let txs = &inputs.txs;
    let (genesis_chain, _) = inputs.fresh_chain(ChainStore::new());
    if genesis_chain.genesis() != run.final_chain.genesis() {
        problems.push("replayed genesis differs from the run's".into());
    }
    let genesis_state = genesis_chain.state();
    let import_all = |chain: &mut Blockchain, runtime: &mut BlockfedRuntime| {
        for block in blocks {
            chain
                .import_arc(Arc::clone(block), runtime)
                .expect("canonical block imports");
        }
        blocks.len() as u64
    };
    let insert_all = |pool: &mut Mempool| {
        for tx in txs {
            pool.insert(tx.clone(), genesis_state)
                .expect("a canonical transaction is admissible at genesis");
        }
        txs.len() as u64
    };
    let warm_store = ChainStore::new();
    let mut heads_ok = true;
    let (costs, _) = rec.scope("replay.chain", |rec| {
        // Cold import: the store has never executed these blocks, but — as in
        // a run, where every transaction passed a mempool first — it already
        // holds their signature verdicts. Warm: a second chain on a store
        // that has executed them, which is what every peer after the first
        // pays.
        let import_cold = looped(rec, "chain.import_cold", cap, |rec, i| {
            let store = if i == 0 {
                warm_store.clone()
            } else {
                ChainStore::new()
            };
            let ((mut chain, mut runtime), _) = rec.scope("chain.fresh", |_| {
                insert_all(&mut Mempool::with_sig_cache(store.sig_cache()));
                inputs.fresh_chain(store)
            });
            let imported = import_all(&mut chain, &mut runtime);
            heads_ok &= chain.head() == run.final_chain.head();
            imported
        });
        let import_warm = looped(rec, "chain.import_warm", cap, |rec, _| {
            let ((mut chain, mut runtime), _) =
                rec.scope("chain.fresh", |_| inputs.fresh_chain(warm_store.clone()));
            import_all(&mut chain, &mut runtime)
        });
        // A miner building on each canonical parent the block that was
        // actually sealed there; advancing the chain is not charged.
        let build_candidate = looped(rec, "chain.build_candidate", cap, |rec, _| {
            let ((mut chain, mut runtime), _) =
                rec.scope("chain.fresh", |_| inputs.fresh_chain(warm_store.clone()));
            for block in blocks {
                black_box(chain.build_candidate(
                    block.header.miner,
                    block.transactions.clone(),
                    block.header.timestamp_ns,
                    &mut runtime,
                ));
                rec.scope("chain.advance", |_| {
                    chain
                        .import_arc(Arc::clone(block), &mut runtime)
                        .expect("canonical block imports");
                });
            }
            blocks.len() as u64
        });
        let insert_cold = looped(rec, "chain.mempool_insert_cold", cap, |_, _| {
            insert_all(&mut Mempool::with_sig_cache(ChainStore::new().sig_cache()))
        });
        // The warm store holds every verdict since import pass 0, so these
        // admissions are verdict-cache hits.
        let insert_warm = looped(rec, "chain.mempool_insert_warm", cap, |_, _| {
            insert_all(&mut Mempool::with_sig_cache(warm_store.sig_cache()))
        });
        ChainCosts {
            insert_cold,
            insert_warm,
            import_cold,
            import_warm,
            build_candidate,
        }
    });
    if !heads_ok {
        problems.push("re-importing the canonical blocks did not reach the run's head".into());
    }
    m.insert("chain.mempool_insert_cold_us", costs.insert_cold.us());
    m.insert("chain.mempool_insert_warm_us", costs.insert_warm.us());
    m.insert("chain.import_cold_us", costs.import_cold.us());
    m.insert("chain.import_warm_us", costs.import_warm.us());
    m.insert("chain.build_candidate_us", costs.build_candidate.us());
    costs
}

/// The two registry calls a round executes, against the run's final contract
/// state: a submission, and an aggregate record whose mask is as wide as the
/// population.
fn replay_vm(
    rec: &mut Recorder,
    m: &mut Metrics,
    spec: &ScenarioSpec,
    run: &DecentralizedRun,
    inputs: &ChainInputs,
    cap: Duration,
    problems: &mut Vec<String>,
) {
    let n = spec.peers();
    let mut state = run.final_chain.state().clone();
    let hash = sha256(b"benchmark");
    let mask = ComboMask::from_members(0..n);
    let mut rejected = 0u64;
    let call = |state: &mut State, i: usize, call: RegistryCall| {
        let ctx = CallContext {
            caller: inputs.addrs[i % n],
            contract: inputs.registry,
            calldata: call.encode(),
            gas_budget: 100_000_000,
            block_number: 1,
            timestamp_ns: 1,
        };
        blockfed::vm::registry::execute_registry(&ctx, state).success
    };
    rec.scope("replay.vm", |rec| {
        // Rounds past the run's last, a fresh one per lap over the peers, so
        // no call is a refused double submission.
        let submit = looped(rec, "vm.registry_submit", cap, |_, i| {
            let round = spec.rounds + 1 + (i / n) as u32;
            let submission = RegistryCall::SubmitModel {
                round,
                model_hash: hash,
                payload_bytes: spec.payload_bytes,
                sample_count: 100,
            };
            rejected += u64::from(!call(&mut state, i, submission));
            1
        });
        let record = looped(rec, "vm.record_aggregate", cap, |_, i| {
            let round = spec.rounds + 1 + (i / n) as u32;
            let record = RegistryCall::RecordAggregate {
                round,
                combo_mask: mask.clone(),
                agg_hash: hash,
            };
            rejected += u64::from(!call(&mut state, i, record));
            1
        });
        // A peer whose registration never confirmed is refused; a run where
        // that is more than the odd churned peer points at a broken replay.
        let calls = submit.ops + record.ops;
        if rejected * 10 > calls {
            problems.push(format!(
                "registry refused {rejected} of {calls} replayed calls"
            ));
        }
        m.insert("vm.registry_submit_us", submit.us());
        m.insert("vm.record_aggregate_us", record.us());
    });
}

struct NetCosts {
    flood: OpStat,
    epidemic: OpStat,
}

fn replay_net(rec: &mut Recorder, m: &mut Metrics, spec: &ScenarioSpec, cap: Duration) -> NetCosts {
    let n = spec.peers();
    let network = Network::new(n, spec.topology.clone(), spec.link);
    let mut scratch = FloodScratch::new();
    let mut rng = RngHub::new(spec.seed).stream("net");
    let fanout = match spec.gossip {
        GossipMode::Epidemic { fanout } => fanout,
        _ => 3,
    };
    let ((flood, epidemic), _) = rec.scope("replay.net", |rec| {
        // One operation = routing one message from one origin to everyone.
        let flood = looped(rec, "net.flood", cap, |_, i| {
            black_box(network.flood_with(
                NodeId(i % n),
                spec.payload_bytes,
                &mut rng,
                &mut scratch,
                |node, delay, path| {
                    black_box((node, delay, path.len()));
                },
            ));
            1
        });
        let epidemic = looped(rec, "net.epidemic", cap, |_, i| {
            black_box(network.epidemic_transmissions(
                NodeId(i % n),
                fanout,
                &mut scratch,
                &mut rng,
            ));
            1
        });
        (flood, epidemic)
    });
    m.insert("net.flood_us", flood.us());
    m.insert("net.epidemic_us", epidemic.us());
    NetCosts { flood, epidemic }
}

/// Schedule + pop with as many events pending as one all-to-all delivery
/// burst leaves in the queue (`peers²`, capped at 2¹⁶).
fn replay_sim(rec: &mut Recorder, m: &mut Metrics, spec: &ScenarioSpec, cap: Duration) {
    const BATCH: usize = 1024;
    let pending = (spec.peers() * spec.peers()).min(1 << 16);
    let mut rng = RngHub::new(spec.seed).stream("benchmark-sim");
    let delays: Vec<SimDuration> = (0..BATCH)
        .map(|_| SimDuration::from_micros(rng.gen_range(1..2_000_000)))
        .collect();
    let mut sched: Scheduler<u32> = Scheduler::with_capacity(pending + 1);
    for i in 0..pending {
        sched.schedule_after(delays[i % BATCH], i as u32);
    }
    rec.scope("replay.sim", |rec| {
        let stat = looped(rec, "sim.event", cap, |_, _| {
            for (i, &delay) in delays.iter().enumerate() {
                sched.schedule_after(delay, i as u32);
                black_box(sched.next());
            }
            BATCH as u64
        });
        m.insert("sim.event_ns", stat.ns());
    });
}

/// What one fan-out over the compute pool costs before any work is done.
fn replay_compute(rec: &mut Recorder, m: &mut Metrics, cap: Duration) {
    let threads = blockfed::compute::num_threads();
    let items: Vec<u64> = (0..threads as u64).collect();
    rec.scope("replay.compute", |rec| {
        let stat = looped(rec, "compute.par_map_dispatch", cap, |_, _| {
            black_box(blockfed::compute::par_map(&items, |x| x + 1));
            1
        });
        m.insert("compute.threads", threads as f64);
        m.insert("compute.par_map_dispatch_us", stat.us());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pass_on_a_three_peer_cell_measures_every_metric() {
        let spec = ScenarioSpec::new("tiny", 3).rounds(2).seed(11);
        let traced = traced_pass(&spec, 0.5);
        assert_eq!(traced.problems, Vec::<String>::new());
        assert_eq!((traced.attempted, traced.failed), (6, 0));
        for def in &PER_LAYER {
            let v = traced.metrics[def.name];
            assert!(v.is_finite(), "{} = {v}", def.name);
        }
        assert_eq!(traced.metrics.len(), PER_LAYER.len(), "no unlisted metric");
        assert_eq!(traced.metrics["nn.train_calls"], 6.0);
        assert_eq!(traced.metrics["fl.candidates_per_call"], 7.0);

        // Shares are positive and add up to one with the unattributed rest.
        let layers = ["nn", "fl", "crypto", "core", "chain", "net"];
        let attributed: f64 = layers
            .iter()
            .map(|l| {
                let share = traced.metrics[format!("{l}.est_share").as_str()];
                assert!(share >= 0.0, "{l}.est_share = {share}");
                share
            })
            .sum();
        let rest = traced.metrics["core.unattributed_share"];
        assert!((attributed + rest - 1.0).abs() < 1e-9);

        // The span tree: one root, one replay.<layer> per layer under it,
        // every op under its layer, scoring under the aggregation.
        spans::check_tree(&traced.spans).unwrap();
        assert_eq!(traced.spans[0].name, "workload");
        let named = |name: &str| traced.spans.iter().position(|s| s.name == name).unwrap();
        for layer in crate::metrics::LAYERS {
            let id = named(&format!("replay.{layer}"));
            assert_eq!(traced.spans[id].parent, Some(0), "replay.{layer}");
        }
        let aggregate = named("fl.aggregate");
        assert_eq!(traced.spans[aggregate].parent, Some(named("replay.fl")));
        assert!(traced
            .spans
            .iter()
            .any(|s| s.name == "nn.eval" && s.parent == Some(aggregate)));
    }
}
