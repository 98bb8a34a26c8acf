//! The scenario engine, end to end.
//!
//! ```text
//! cargo run --release --example scenarios               # 10-peer churn demo
//! cargo run --release --example scenarios -- --smoke    # CI: tiny 5-peer churn+partition matrix
//! cargo run --release --example scenarios -- --bestk    # best-k vs consider wall-clock sweep (incl. n=48..256)
//! cargo run --release --example scenarios -- --bestk48  # CI: one 48-peer best-k cell past the u32 mask
//! cargo run --release --example scenarios -- --gossip128 # CI: announce/fetch byte guards + 128-peer cell
//! cargo run --release --example scenarios -- --committees # CI: hierarchical 256/512/1024-peer committee cells + flat-byte reproduction guard
//! cargo run --release --example scenarios -- --paper    # CI: paper-scale SimpleNN cell, batch-parallel vs sequential
//! cargo run --release --example scenarios -- --chaos    # CI: lossy 48-peer cells (loss 0/1/5/20%) + byte-accounting guard
//! cargo run --release --example scenarios -- --adaptive # CI: churn+shock cell, policy controller vs static wait policies (time-to-accuracy)
//! cargo run --release --example scenarios -- --trace    # CI: traced runs bit-identical to untraced; JSONL + Chrome trace export
//! cargo run --release --example scenarios -- --memcheck # CI: 48-peer cell twice in-process; chain-store entries stay bounded
//! ```
//!
//! Every scenario mode prints the matrix table and writes the
//! machine-readable `BENCH_scenarios.json` (per-cell bytes, accuracy and a
//! single-run wall clock) to the working directory. `--trace` writes
//! `TRACE_bestk48.jsonl` (schema-validated) and `TRACE_bestk48.json` (open in
//! Perfetto / `chrome://tracing`). Wall-clock claims belong to the repo
//! benchmark (`examples/benchmark`), not to these single runs.

use blockfed::core::{CommitteeSpec, ControllerSpec, RuleConfig};
use blockfed::data::Partition;
use blockfed::fl::{Strategy, WaitPolicy};
use blockfed::net::{GossipMode, LinkSpec};
use blockfed::scenario::{
    CellReport, DataSpec, ScenarioMatrix, ScenarioReport, ScenarioRunner, ScenarioSpec,
};
use blockfed::sim::{SimDuration, SimTime, UniformJitter};
use blockfed::telemetry::MemorySink;

/// Committed regression ceiling for the 48-peer best-k cell's *flood* bytes
/// under announce/fetch. The legacy full-payload flood recorded ~51 MB for
/// this cell; announcements keep it under this bound, and CI fails if a
/// change pushes flood traffic back above it.
const GOSSIP48_CEILING_BYTES: u64 = 12_000_000;

/// The committed byte accounting of the lossless 48-peer announce/fetch cell
/// (`BENCH_scenarios.json`). `--chaos` asserts a `loss_rate: 0.0` run still
/// reproduces these exactly: the loss machinery must be invisible when the
/// links are clean.
const BESTK48_GOSSIP_BYTES: u64 = 6_593_536;
const BESTK48_FETCH_BYTES: u64 = 45_120_000;

/// Committed regression ceilings for the 512-/1024-peer committee cells'
/// gossip bytes: epidemic fan-out bounds announcement traffic by
/// `digest × fanout × nodes` per rumor, so the flood term scales with the
/// rumor count instead of the mesh's edge count. CI fails if a change
/// pushes committee-mode gossip back onto the edge-count curve (a flat
/// 512-peer announce/fetch extrapolation already crosses 750 MB).
const COM512_GOSSIP_CEILING_BYTES: u64 = 380_000_000;
const COM1024_GOSSIP_CEILING_BYTES: u64 = 1_500_000_000;

/// A small, fully featured churn scenario: heterogeneous compute, one
/// mid-run partition + heal, a late join and an early leave.
fn churn_spec(peers: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("churn", peers)
        .rounds(2)
        .consider_cutover(6, 3)
        .partition_at(3.0, &[0], &[1, 2])
        .heal_at(8.0)
        .join_at(10.0, peers - 1)
        .leave_at(14.0, 1);
    for (i, c) in spec.computes.iter_mut().enumerate() {
        c.train_rate = 700.0 - 40.0 * i as f64; // fast head, straggling tail
    }
    spec
}

fn smoke() {
    println!("scenario smoke — 5-peer churn + partition matrix\n");
    let matrix = ScenarioMatrix::new(churn_spec(5))
        .vary_wait(&[WaitPolicy::All, WaitPolicy::FirstK(3)])
        .vary_seed(&[1, 2]);
    let runner = ScenarioRunner::new();
    let report = runner.run_matrix(&matrix);
    println!("{}", report.table());
    assert_eq!(report.cells.len(), 4, "smoke matrix must expand to 4 cells");
    for cell in &report.cells {
        assert!(cell.records > 0, "cell {} never aggregated", cell.name);
        assert!(
            cell.mean_final_accuracy > 0.0,
            "cell {} learned nothing",
            cell.name
        );
    }
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("scenario smoke OK");
}

/// The 48-peer best-k cell: past the old 32-peer (u32 combo-mask) ceiling, a
/// requested `Consider` forced through the cutover onto `BestK(40)` so the
/// linear arm runs and every recorded aggregate's mask spans bits ≥ 32.
fn bestk48_spec() -> ScenarioSpec {
    ScenarioSpec::new("bestk48", 48)
        .rounds(2)
        .consider_cutover(6, 40)
        .data(DataSpec::scaled_for(48))
        .seed(48)
}

/// A wide announce/fetch cell at `n` peers: best-k keeps aggregation linear,
/// and `k` large enough that recorded masks must reach into the population's
/// upper half. Difficulty scales with the population so the block cadence —
/// and with it the fork rate — stays at the 48-peer cell's level instead of
/// shrinking toward the link latency.
fn wide_cell(n: usize, k: usize) -> ScenarioSpec {
    ScenarioSpec::new(format!("scale{n}"), n)
        .rounds(2)
        .consider_cutover(6, k)
        .difficulty(200_000 * n as u128 / 48)
        .data(DataSpec::scaled_for(n))
        .seed(n as u64)
}

/// Runs a wide announce/fetch cell and asserts every peer finished every
/// round.
fn run_wide(runner: &ScenarioRunner, n: usize, k: usize) -> CellReport {
    let cell = runner.run(&wide_cell(n, k));
    assert_eq!(cell.records, n * 2, "{n}-peer cell incomplete");
    assert!(cell.mean_final_accuracy > 0.0);
    cell
}

/// The 48-peer certification pair — the best-k cell under announce/fetch and
/// its Full-mode twin — asserted to be the identical simulation (the modes
/// may only move bytes between the meters). Shared by the `--bestk`
/// feed and the `--gossip128` CI guard so they can never drift apart.
fn certified_48_pair(runner: &ScenarioRunner) -> (CellReport, CellReport) {
    let af = runner.run(&bestk48_spec());
    let full = runner.run(
        &bestk48_spec()
            .named("bestk48-full")
            .gossip(GossipMode::Full),
    );
    assert_eq!(
        af.mean_final_accuracy, full.mean_final_accuracy,
        "gossip mode changed the simulation"
    );
    assert_eq!(af.makespan_secs, full.makespan_secs);
    assert_eq!(af.blocks, full.blocks);
    assert_eq!(af.records, full.records);
    assert_eq!(full.fetch_bytes, 0, "full flooding never meters fetches");
    (af, full)
}

/// Prints and writes the full best-k/consider sweep report, including the
/// gossip-mode pair at 48 peers and the 128/256-peer announce/fetch cells.
fn bestk() {
    println!("best-k vs consider — wall-clock of the aggregation search\n");
    let runner = ScenarioRunner::new();
    // Both sweeps share the same 48-peer-capable datasets so their
    // wall-clocks compare apples to apples at every N.
    let data = DataSpec::scaled_for(48);

    // The linear-cost path scales to peer counts where the exponential
    // search is unthinkable — including 48 peers, past the old u32
    // combo-mask ceiling: force each strategy explicitly (no cutover).
    let bestk = ScenarioMatrix::new(
        ScenarioSpec::new("bestk-sweep", 3)
            .rounds(2)
            .strategy(Strategy::BestK(3))
            .data(data.clone()),
    )
    .vary_peers_default();
    let bestk_report = runner.run_matrix(&bestk);
    println!("{}", bestk_report.table());

    // The exponential search is only run where it terminates in reasonable
    // time; at N = 20 it would evaluate 2^20 − 1 combinations per peer
    // per round.
    let consider = ScenarioMatrix::new(
        ScenarioSpec::new("consider-sweep", 3)
            .rounds(2)
            .strategy(Strategy::Consider)
            .consider_cutover(32, 3) // explicitly disable the cutover
            .data(data),
    )
    .vary_peers(&[3, 5, 10, 15]);
    let consider_report = runner.run_matrix(&consider);
    println!("{}", consider_report.table());

    // Plus the wide-mask certification cell — in both gossip modes, so the
    // JSON feed documents the announce/fetch flood-byte delta at 48 peers.
    let (wide, wide_full) = certified_48_pair(&runner);
    assert!(
        wide.max_mask_bit.unwrap_or(0) >= 32,
        "48-peer cell never recorded a >32-bit mask: {wide:?}"
    );

    // The 128- and 256-peer announce/fetch cells: past the old 128-peer
    // orchestrator ceiling, up to the combination mask's native width.
    let scale128 = run_wide(&runner, 128, 100);
    let scale256 = run_wide(&runner, 256, 200);
    assert!(
        scale256.max_mask_bit.unwrap_or(0) >= 128,
        "256-peer cell never crossed mask bit 128: {scale256:?}"
    );

    // The paper-scale cell, batch-parallel and sequential: identical
    // simulations (the equality below), so the wall-clock delta between the
    // two rows is exactly what batch-parallel training buys (or, on one
    // core, its shard overhead).
    let paper_par = runner.run(&paper_spec(true));
    let paper_seq = runner.run(&paper_spec(false));
    assert_eq!(
        paper_par.mean_final_accuracy, paper_seq.mean_final_accuracy,
        "batch-parallel training changed the simulation"
    );

    // Merge everything into the JSON feed.
    let mut merged = bestk_report.clone();
    merged.name = "bestk-vs-consider".into();
    merged.cells.extend(consider_report.cells);
    merged.cells.push(wide);
    merged.cells.push(wide_full);
    merged.cells.push(scale128);
    merged.cells.push(scale256);
    merged.cells.push(paper_par);
    merged.cells.push(paper_seq);
    println!("{}", merged.table());
    let path = merged.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
}

fn bestk48() {
    println!("48-peer best-k cell — the >32-peer combination-mask path\n");
    let spec = bestk48_spec();
    assert_eq!(
        spec.resolved_strategy(),
        Strategy::BestK(40),
        "the cutover must force the linear arm"
    );
    let runner = ScenarioRunner::new();
    let cell = runner.run(&spec);
    let report = blockfed::scenario::ScenarioReport {
        name: spec.name.clone(),
        cells: vec![cell],
    };
    println!("{}", report.table());
    let cell = &report.cells[0];
    assert!(cell.records > 0, "nobody aggregated");
    assert!(cell.mean_final_accuracy > 0.0, "cell learned nothing");
    let widest = cell.max_mask_bit.expect("aggregates recorded on chain");
    assert!(
        widest >= 32,
        "no aggregate mask crossed the u32 boundary (max bit {widest})"
    );
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("widest recorded mask bit: {widest} — 48-peer scenario OK");
}

/// CI certification of the announce/fetch protocol: the 48-peer best-k cell
/// must flood ≥ 5× fewer bytes than its full-flood twin (and stay under the
/// committed ceiling), the two modes must drive the identical simulation,
/// and a 128-peer announce/fetch cell — past the old orchestrator ceiling —
/// must run green with masks in the population's upper half.
fn gossip128() {
    println!("announce/fetch gossip — 48-peer byte guards + 128-peer cell\n");
    let runner = ScenarioRunner::new();
    let (af, full) = certified_48_pair(&runner);
    assert!(
        af.gossip_bytes * 5 <= full.gossip_bytes,
        "announce/fetch flood bytes not ≥5× below full flooding: {} vs {}",
        af.gossip_bytes,
        full.gossip_bytes
    );
    assert!(
        af.gossip_bytes <= GOSSIP48_CEILING_BYTES,
        "48-peer flood bytes regressed past the committed ceiling: {} > {}",
        af.gossip_bytes,
        GOSSIP48_CEILING_BYTES
    );

    let scale128 = run_wide(&runner, 128, 100);
    let widest = scale128.max_mask_bit.expect("aggregates recorded");
    assert!(
        widest >= 64,
        "128-peer masks never reached the upper half (max bit {widest})"
    );

    let report = blockfed::scenario::ScenarioReport {
        name: "gossip128".into(),
        cells: vec![af, full, scale128],
    };
    println!("{}", report.table());
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("announce/fetch certification OK (widest 128-peer mask bit: {widest})");
}

/// A hierarchical cell at `n` peers sharded into `committees` contiguous
/// committees: tier-1 aggregation stays linear via the `BestK(48)` cutover
/// inside each committee, the tier-2 merge records a union mask over every
/// participating member, and epidemic fan-out keeps announcement traffic off
/// the edge-count curve. Difficulty scales with the population so block
/// cadence stays at the 48-peer cell's level.
fn committee_cell(n: usize, committees: usize) -> ScenarioSpec {
    ScenarioSpec::new(format!("scale{n}-committee"), n)
        .rounds(2)
        .consider_cutover(6, 48)
        .difficulty(200_000 * n as u128 / 48)
        .gossip(GossipMode::Epidemic { fanout: 3 })
        .committees(CommitteeSpec::contiguous(committees))
        .data(DataSpec::scaled_for(n))
        .seed(n as u64)
}

/// The hierarchical-aggregation certification (`--committees`):
///
/// 1. Hierarchy off **is** the flat path, byte for byte: a single-committee,
///    full-fan-out run of the 48-peer best-k cell reproduces the committed
///    flat byte accounting exactly.
/// 2. The 256-peer flat-vs-committee pair: sharding the same population into
///    16 committees under epidemic fan-out must cut total traffic
///    (gossip + fetch) to ≤ 50 % of the flat baseline.
/// 3. 512- and 1024-peer committee cells — past the old mask ceiling — run
///    green (every peer merges every round) under the committed gossip-byte
///    ceiling, with on-chain masks crossing bit 256 at 1024 peers.
fn committees() {
    println!("hierarchical committees — flat reproduction guard + 256/512/1024 cells\n");
    let runner = ScenarioRunner::new();

    // 1. The exact-reproduction guard: one committee, default announce/fetch
    //    fan-out. The committee layer must normalize itself away entirely.
    let one = runner.run(
        &bestk48_spec()
            .named("bestk48-c1")
            .committees(CommitteeSpec::contiguous(1)),
    );
    assert_eq!(
        one.gossip_bytes, BESTK48_GOSSIP_BYTES,
        "a single-committee run must reproduce the committed flat gossip bytes exactly"
    );
    assert_eq!(
        one.fetch_bytes, BESTK48_FETCH_BYTES,
        "a single-committee run must reproduce the committed flat fetch bytes exactly"
    );
    assert_eq!(
        one.committee_rounds(),
        0,
        "a single committee must lower to the flat path, not merge"
    );

    // 2. The 256-peer pair: the flat announce/fetch baseline (the committed
    //    scale256 cell) against the same population in 16 committees.
    let flat = run_wide(&runner, 256, 200);
    let com256 = runner.run(&committee_cell(256, 16));
    assert_eq!(
        com256.records,
        256 * 2,
        "256-peer committee cell incomplete"
    );
    assert_eq!(
        com256.committee_rounds(),
        256 * 2,
        "every peer must complete a tier-2 merge every round"
    );
    assert!(com256.mean_final_accuracy > 0.0);
    let flat_total = flat.gossip_bytes + flat.fetch_bytes;
    let com_total = com256.gossip_bytes + com256.fetch_bytes;
    assert!(
        com_total * 2 <= flat_total,
        "committee mode must cut gossip+fetch to ≤ 50% of flat: {com_total} vs {flat_total}"
    );

    // 3. Past the old 256-peer ceiling: 512 and 1024 peers, green and cheap.
    let com512 = runner.run(&committee_cell(512, 16));
    let com1024 = runner.run(&committee_cell(1024, 16));
    for (cell, n, ceiling) in [
        (&com512, 512u64, COM512_GOSSIP_CEILING_BYTES),
        (&com1024, 1024u64, COM1024_GOSSIP_CEILING_BYTES),
    ] {
        assert_eq!(
            cell.records as u64,
            n * 2,
            "{}-peer committee cell incomplete",
            n
        );
        assert_eq!(
            cell.committee_rounds(),
            n * 2,
            "{}-peer cell: merges incomplete",
            n
        );
        assert!(cell.mean_final_accuracy > 0.0);
        assert!(
            cell.gossip_bytes <= ceiling,
            "{}-peer committee gossip regressed past the ceiling: {} > {}",
            n,
            cell.gossip_bytes,
            ceiling
        );
    }
    let widest = com1024.max_mask_bit.expect("1024-peer aggregates recorded");
    assert!(
        widest >= 256,
        "no 1024-peer mask crossed the old 256-bit ceiling (max bit {widest})"
    );

    let report = ScenarioReport {
        name: "committees".into(),
        cells: vec![one, flat, com256, com512, com1024],
    };
    println!("{}", report.table());
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("hierarchical committee certification OK (widest 1024-peer mask bit: {widest})");
}

/// The paper-scale cell: three peers training the ~62 K-parameter SimpleNN on
/// the full SynthCifar generator — the workload scenario cells used to be too
/// slow for before batch-parallel training. One shared preset
/// ([`ScenarioSpec::paper_cell`]) backs this CI cell and the thread-sweep
/// equivalence suite.
fn paper_spec(batch_parallel: bool) -> ScenarioSpec {
    ScenarioSpec::paper_cell(
        if batch_parallel {
            "paper-par"
        } else {
            "paper-seq"
        },
        3,
    )
    .batch_parallel(batch_parallel)
}

fn paper() {
    println!("paper-scale cell — SimpleNN (~62 K params) on full SynthCifar\n");
    let runner = ScenarioRunner::new();
    let par = runner.run(&paper_spec(true));
    let seq = runner.run(&paper_spec(false));
    // The batch-parallel loop is bit-identical to the sequential one: the
    // two cells differ only in name and host wall-clock.
    assert_eq!(
        par.mean_final_accuracy, seq.mean_final_accuracy,
        "batch-parallel training changed the simulation"
    );
    assert_eq!(par.makespan_secs, seq.makespan_secs);
    assert_eq!(par.blocks, seq.blocks);
    assert!(par.records > 0, "nobody aggregated");
    assert!(
        par.mean_final_accuracy > 0.15,
        "paper-scale model learned nothing: {par:?}"
    );
    let report = blockfed::scenario::ScenarioReport {
        name: "paper-scale".into(),
        cells: vec![par, seq],
    };
    println!("{}", report.table());
    let threads = blockfed::compute::num_threads();
    println!(
        "host workers: {threads} (speedup needs >1; on one core the delta is the shard overhead)"
    );
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("paper-scale scenario OK");
}

/// The lossy-network certification: the 48-peer announce/fetch cell across
/// loss ∈ {0, 1%, 5%, 20%}. The lossless run must reproduce the committed
/// byte accounting exactly (the loss machinery is invisible on clean links);
/// every lossy run must settle through the fetch retry machinery — never the
/// watchdog — with the same records and final accuracy as the lossless twin,
/// nonzero drop/retry meters, and a retry count bounded by the attempt
/// budget per drop.
fn chaos() {
    println!("lossy 48-peer cells — loss sweep over the announce/fetch best-k cell\n");
    let runner = ScenarioRunner::new();
    let clean = runner.run(&bestk48_spec());
    assert_eq!(
        clean.gossip_bytes, BESTK48_GOSSIP_BYTES,
        "loss_rate 0.0 must reproduce the committed gossip bytes exactly"
    );
    assert_eq!(
        clean.fetch_bytes, BESTK48_FETCH_BYTES,
        "loss_rate 0.0 must reproduce the committed fetch bytes exactly"
    );
    assert_eq!(clean.dropped_msgs(), 0, "clean links never drop");
    assert_eq!(clean.fetch_retries(), 0, "clean links never retry");
    assert!(!clean.stalled());

    let mut cells = vec![clean.clone()];
    for (label, loss) in [
        ("bestk48-loss1", 0.01),
        ("bestk48-loss5", 0.05),
        ("bestk48-loss20", 0.20),
    ] {
        let cell = runner.run(&bestk48_spec().named(label).loss(loss));
        assert!(
            !cell.stalled(),
            "{label} hit the watchdog instead of settling"
        );
        assert_eq!(
            cell.records, clean.records,
            "{label} settled with fewer round records than the lossless twin"
        );
        assert_eq!(
            cell.mean_final_accuracy, clean.mean_final_accuracy,
            "{label}: loss changed the wait-all aggregation outcome"
        );
        assert!(cell.dropped_msgs() > 0, "{label} never dropped a delivery");
        assert!(
            cell.fetch_retries() <= cell.dropped_msgs() * 8,
            "{label}: retries unbounded — {} retries for {} drops",
            cell.fetch_retries(),
            cell.dropped_msgs()
        );
        cells.push(cell);
    }
    assert!(
        cells[2].fetch_retries() > 0,
        "5% loss never exercised a fetch retry"
    );

    let report = blockfed::scenario::ScenarioReport {
        name: "chaos48".into(),
        cells,
    };
    println!("{}", report.table());
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("lossy 48-peer certification OK");
}

/// The accuracy bar the adaptive certification clocks: the first virtual
/// second at which a whole round settled at or above this mean accuracy.
const ADAPTIVE_TTA_TARGET: f64 = 0.95;

/// The 48-peer churn + hash-shock cell behind `--adaptive`. Peer 0 holds a
/// label-skewed shard and crawls through training: its round-1 update lands
/// only after ~5 virtual seconds (behind a partition window that forks its
/// solo chain), and its round-2 update is still baking when the peer leaves
/// for good at 10 s — so every wait-all round is gated by the straggler, and
/// round 2 can only settle when the leave releases it. A first-k round sails
/// past the straggler but its thin aggregates never see the excluded shards'
/// classes. The cell also joins a late peer and doubles a miner's hash rate —
/// the churn+shock regime the paper's static tables sweep.
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
            synth: blockfed::data::SynthCifarConfig {
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
    // crawl, so round 1 settles only when its update finally lands and its
    // round-2 update is still unfinished when it leaves at 10 s. The tail
    // half of the population is a medium-speed band, so a first-k
    // aggregation deterministically excludes part of its skewed shards.
    spec.computes[0].train_rate = 0.8;
    for c in spec.computes.iter_mut().skip(24) {
        c.train_rate = 60.0;
    }
    spec
}

/// The rule the `--adaptive` controller runs: demote wait-all as soon as a
/// round waited > 0.5 virtual seconds (every peer's round-1 wait clears that
/// bar, whichever one aggregates first), keeping 90 % of the active peers;
/// never promote back (`wait_low_secs: 0.0`) and leave staleness decay
/// alone, so the certified trajectory is purely the wait-policy story.
fn adaptive_rule() -> RuleConfig {
    RuleConfig {
        wait_high_secs: 0.5,
        wait_low_secs: 0.0,
        keep_fraction: 0.9,
        staleness_high_secs: f64::INFINITY,
    }
}

/// The adaptive-policy certification: the churn+shock cell under static
/// wait-all, static first-k, and the threshold controller. The controller
/// must switch at least once and reach [`ADAPTIVE_TTA_TARGET`] no later than
/// *every* static wait policy — the "wait or not to wait" question answered
/// online instead of per run.
fn adaptive() {
    println!("adaptive policy — 48-peer churn+shock cell: controller vs static wait policies\n");
    let runner = ScenarioRunner::new();
    let base = adaptive48_spec();
    let all = runner.run(&base.clone().named("adaptive48-all"));
    let first24 = runner.run(
        &base
            .clone()
            .named("adaptive48-first24")
            .wait(WaitPolicy::FirstK(24)),
    );
    let first36 = runner.run(
        &base
            .clone()
            .named("adaptive48-first36")
            .wait(WaitPolicy::FirstK(36)),
    );
    let ctl = runner.run(
        &base
            .named("adaptive48-ctl")
            .controller(ControllerSpec::threshold(adaptive_rule())),
    );

    let report = ScenarioReport {
        name: "adaptive48".into(),
        cells: vec![all, first24, first36, ctl],
    };
    println!("{}", report.time_to_accuracy_table(ADAPTIVE_TTA_TARGET));
    for cell in &report.cells {
        let traj: Vec<String> = cell
            .round_accuracy
            .iter()
            .map(|(t, a)| format!("{t:.1}s→{a:.3}"))
            .collect();
        println!("{:<22} {}", cell.name, traj.join("  "));
    }
    println!("\n{}", report.table());

    let ctl = &report.cells[3];
    assert!(
        ctl.policy_switches() > 0,
        "the controller never fired on the churn+shock cell"
    );
    assert_eq!(
        report.cells[0].policy_switches(),
        0,
        "a static cell metered a switch"
    );
    let ctl_tta = ctl
        .time_to_accuracy(ADAPTIVE_TTA_TARGET)
        .expect("the controlled run never reached the target accuracy");
    for cell in &report.cells[..3] {
        match cell.time_to_accuracy(ADAPTIVE_TTA_TARGET) {
            Some(t) => assert!(
                ctl_tta <= t,
                "static {} reached {:.0}% accuracy at {t:.1}s, before the controller's {ctl_tta:.1}s",
                cell.name,
                ADAPTIVE_TTA_TARGET * 100.0
            ),
            None => println!(
                "static {} never reached {:.0}% accuracy",
                cell.name,
                ADAPTIVE_TTA_TARGET * 100.0
            ),
        }
    }
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("adaptive policy certification OK (controller TTA {ctl_tta:.1}s)");
}

/// The telemetry certification:
///
/// 1. With telemetry off (the default no-op sink), the lossless 48-peer cell
///    still reproduces the committed byte accounting exactly — tracing
///    machinery is invisible when unused.
/// 2. A lossy 48-peer cell traced into a real sink folds the *identical*
///    report (bit for bit) as the untraced run — attaching a sink never
///    perturbs the simulation.
/// 3. The captured trace carries the round lifecycle (round ⊃ train → wait),
///    flood/fetch network spans, and PoW seals, stamped with virtual time;
///    the JSONL export passes its schema validator and the Chrome-trace
///    export is written for Perfetto.
/// 4. A deliberately stalled mini-cell's trace carries the watchdog firing.
fn trace() {
    println!("telemetry — traced vs untraced bit-identity + JSONL/Perfetto export\n");
    let runner = ScenarioRunner::new();

    // Telemetry off must reproduce the committed byte accounting.
    let clean = runner.run(&bestk48_spec());
    assert_eq!(
        clean.gossip_bytes, BESTK48_GOSSIP_BYTES,
        "telemetry-off run must reproduce the committed gossip bytes"
    );
    assert_eq!(
        clean.fetch_bytes, BESTK48_FETCH_BYTES,
        "telemetry-off run must reproduce the committed fetch bytes"
    );

    // A lossy cell, traced and untraced: the identical report.
    let lossy = bestk48_spec().named("bestk48-loss5").loss(0.05);
    let plain = runner.run(&lossy);
    let mut sink = MemorySink::new();
    let traced = runner.run_traced(&lossy, &mut sink);
    assert_eq!(plain, traced, "a trace sink perturbed the simulation");
    assert!(traced.dropped_msgs() > 0, "the lossy cell never dropped");

    // The trace carries every span family the acceptance bar names, with
    // virtual-time stamps.
    for name in [
        "round",
        "round.train",
        "round.wait",
        "net.flood",
        "fetch",
        "pow.sealed",
        "round.aggregated",
        "watchdog.armed",
    ] {
        assert!(sink.contains(name), "trace missing {name}");
    }
    assert!(
        sink.records().iter().any(|r| r.time > SimTime::ZERO),
        "no record carries a nonzero virtual timestamp"
    );

    // Exports: schema-validated JSONL + a Chrome-trace document.
    let jsonl = sink.to_jsonl();
    let lines = blockfed::telemetry::jsonl::validate_jsonl(&jsonl)
        .expect("JSONL export failed its own schema validator");
    assert_eq!(lines, sink.records().len());
    std::fs::write("TRACE_bestk48.jsonl", &jsonl).expect("write TRACE_bestk48.jsonl");
    let chrome = sink.to_chrome_trace();
    std::fs::write("TRACE_bestk48.json", &chrome).expect("write TRACE_bestk48.json");
    println!(
        "wrote TRACE_bestk48.jsonl ({} records) and TRACE_bestk48.json ({} bytes)",
        lines,
        chrome.len()
    );

    // A watchdog-stalled mini-cell: peer 0 is isolated before anything
    // crosses the 2 s links, so wait-all can never complete; the watchdog
    // fires and the trace records it.
    let stall_spec = ScenarioSpec::new("stall-demo", 3)
        .rounds(2)
        .difficulty(1_000_000)
        .link(LinkSpec {
            latency: UniformJitter::constant(SimDuration::from_millis(2_000)),
            bandwidth: None,
            loss_rate: 0.0,
        })
        .watchdog_secs(60.0)
        .partition_at(0.15, &[0], &[1, 2])
        .seed(74);
    let mut stall_sink = MemorySink::new();
    let stalled = runner.run_traced(&stall_spec, &mut stall_sink);
    assert!(
        stalled.stalled(),
        "the partitioned wait-all cell must stall"
    );
    assert!(
        stall_sink.contains("watchdog.stalled"),
        "stall never reached the trace"
    );

    let report = blockfed::scenario::ScenarioReport {
        name: "trace".into(),
        cells: vec![clean, traced, stalled],
    };
    println!("{}", report.table());
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("telemetry certification OK");
}

/// The chain-store memory guard — the regression that motivated replacing the
/// process-wide memos. Runs the 48-peer best-k cell **twice in one process**
/// against an explicitly shared [`blockfed::core::ChainStore`] and asserts:
///
/// 1. the store's cached entry counts are identical after run 1 and run 2 —
///    re-running the same cell re-uses the cache instead of growing it (the
///    old global memos doubled here);
/// 2. the second run is the identical simulation (accuracy, blocks, records)
///    and served its unchanged prefix from the execution memo;
/// 3. two idle epoch ticks age every entry out, so a dropped-and-reused
///    handle cannot pin a dead run's state forever.
fn memcheck() {
    println!("chain-store memory guard — 48-peer cell twice in one process\n");
    let runner = ScenarioRunner::new();
    let store = blockfed::core::ChainStore::new();

    let first = runner.run_with_store(&bestk48_spec(), &store);
    let exec_entries = store.exec_entries();
    let sig_entries = store.sig_entries();
    assert!(exec_entries > 0, "the cell cached no block executions");
    assert!(sig_entries > 0, "the cell cached no signature verdicts");

    let second = runner.run_with_store(&bestk48_spec(), &store);
    assert_eq!(
        store.exec_entries(),
        exec_entries,
        "re-running the same cell must not grow the execution memo"
    );
    assert_eq!(
        store.sig_entries(),
        sig_entries,
        "re-running the same cell must not grow the signature cache"
    );
    assert_eq!(first.mean_final_accuracy, second.mean_final_accuracy);
    assert_eq!(first.blocks, second.blocks);
    assert_eq!(first.records, second.records);
    assert!(
        second.metrics.counter("store_exec_hits") > first.metrics.counter("store_exec_hits"),
        "the second run never hit the warm memo"
    );
    assert_eq!(
        second.metrics.counter("store_exec_misses"),
        0,
        "every block execution was already cached"
    );

    // Two idle epochs: everything last touched in run 2 ages past the
    // keep-window and is evicted — the store cannot pin dead runs.
    store.begin_epoch();
    store.begin_epoch();
    assert_eq!(store.exec_entries(), 0, "idle epochs must drain the memo");
    assert_eq!(
        store.sig_entries(),
        0,
        "idle epochs must drain the verdicts"
    );

    let report = blockfed::scenario::ScenarioReport {
        name: "memcheck".into(),
        cells: vec![first, second],
    };
    println!("{}", report.table());
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!(
        "chain-store memory guard OK (exec entries: {exec_entries}, sig entries: {sig_entries}, \
         drained to 0 after two idle epochs)"
    );
}

fn demo() {
    println!("10-peer heterogeneous churn scenario — deterministic replay\n");
    let spec = churn_spec(10).named("demo-10-peer-churn").seed(33);
    let runner = ScenarioRunner::new();
    let a = runner.run(&spec);
    let b = runner.run(&spec);
    assert_eq!(a, b, "same seed must replay bit-identically");
    let report = blockfed::scenario::ScenarioReport {
        name: spec.name.clone(),
        cells: vec![a],
    };
    println!("{}", report.table());
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
    println!("replayed bit-identically from seed {}", spec.seed);
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "--smoke" => smoke(),
        "--bestk" => bestk(),
        "--bestk48" => bestk48(),
        "--gossip128" => gossip128(),
        "--committees" => committees(),
        "--paper" => paper(),
        "--chaos" => chaos(),
        "--adaptive" => adaptive(),
        "--trace" => trace(),
        "--memcheck" => memcheck(),
        "" | "--demo" => demo(),
        other => {
            eprintln!(
                "unknown mode {other}; use --smoke, --bestk, --bestk48, --gossip128, \
                 --committees, --paper, --chaos, --adaptive, --trace, --memcheck, or --demo"
            );
            std::process::exit(2);
        }
    }
}
