//! The scenario engine, end to end.
//!
//! ```text
//! cargo run --release --example scenarios               # 10-peer churn demo
//! cargo run --release --example scenarios -- --bestk    # best-k vs consider wall-clock sweep (incl. n=48..256)
//! cargo run --release --example scenarios -- --committees # flat vs hierarchical 256/512/1024-peer cells → BENCH_scenarios.json
//! cargo run --release --example scenarios -- --trace    # lossy 48-peer cell → TRACE_bestk48.jsonl + Perfetto TRACE_bestk48.json
//! ```
//!
//! Every mode only prints its cells as a table: the claims these cells back
//! are checked by `cargo test` (see `tests/`).
//! `--committees` writes the committed `BENCH_scenarios.json` (per-cell bytes,
//! accuracy and a single-run wall clock) to the working directory; `--trace`
//! writes the gitignored `TRACE_bestk48.jsonl` and `TRACE_bestk48.json` (open
//! in Perfetto / `chrome://tracing`). Wall-clock claims belong to the repo
//! benchmark (`examples/benchmark`), not to these single runs.

use blockfed::core::CommitteeSpec;
use blockfed::fl::Strategy;
use blockfed::net::GossipMode;
use blockfed::scenario::{DataSpec, ScenarioMatrix, ScenarioReport, ScenarioRunner, ScenarioSpec};
use blockfed::telemetry::MemorySink;

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

/// The 48-peer best-k cell (`tests/common/mod.rs` holds the same cell):
/// past the old 32-peer (u32 combo-mask) ceiling, a requested `Consider`
/// forced through the cutover onto `BestK(40)`.
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

/// Prints the best-k/consider sweep, the 48-peer cell in both gossip modes
/// and the 128/256-peer announce/fetch cells.
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
    println!("{}", runner.run_matrix(&bestk).table());

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
    println!("{}", runner.run_matrix(&consider).table());

    // The wide-mask cells: 48 peers in both gossip modes (the flood-byte
    // delta of announce/fetch), then 128 and 256 peers under announce/fetch.
    let wide = ScenarioReport {
        name: "wide-masks".into(),
        cells: vec![
            runner.run(&bestk48_spec()),
            runner.run(
                &bestk48_spec()
                    .named("bestk48-full")
                    .gossip(GossipMode::Full),
            ),
            runner.run(&wide_cell(128, 100)),
            runner.run(&wide_cell(256, 200)),
        ],
    };
    println!("{}", wide.table());
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

/// The hierarchical-aggregation cells behind the committed
/// `BENCH_scenarios.json`: the single-committee 48-peer cell (the flat path),
/// the flat 256-peer announce/fetch cell, and 16-committee cells at 256, 512
/// and 1024 peers. Takes ten minutes or more.
fn committees() {
    println!("hierarchical committees — flat reproduction + 256/512/1024 cells\n");
    let runner = ScenarioRunner::new();
    let report = ScenarioReport {
        name: "committees".into(),
        cells: vec![
            runner.run(
                &bestk48_spec()
                    .named("bestk48-c1")
                    .committees(CommitteeSpec::contiguous(1)),
            ),
            runner.run(&wide_cell(256, 200)),
            runner.run(&committee_cell(256, 16)),
            runner.run(&committee_cell(512, 16)),
            runner.run(&committee_cell(1024, 16)),
        ],
    };
    println!("{}", report.table());
    let path = report.write_json(".").expect("write BENCH_scenarios.json");
    println!("wrote {}", path.display());
}

/// Traces the lossy 48-peer cell and exports the trace as JSONL and as a
/// Chrome trace document.
fn trace() {
    println!("telemetry — lossy 48-peer cell, JSONL + Perfetto export\n");
    let spec = bestk48_spec().named("bestk48-loss5").loss(0.05);
    let mut sink = MemorySink::new();
    let cell = ScenarioRunner::new().run_traced(&spec, &mut sink);
    let report = ScenarioReport {
        name: "trace".into(),
        cells: vec![cell],
    };
    println!("{}", report.table());
    std::fs::write("TRACE_bestk48.jsonl", sink.to_jsonl()).expect("write TRACE_bestk48.jsonl");
    let chrome = sink.to_chrome_trace();
    std::fs::write("TRACE_bestk48.json", &chrome).expect("write TRACE_bestk48.json");
    println!(
        "wrote TRACE_bestk48.jsonl ({} records) and TRACE_bestk48.json ({} bytes)",
        sink.records().len(),
        chrome.len()
    );
}

fn demo() {
    println!("10-peer heterogeneous churn scenario\n");
    let spec = churn_spec(10).named("demo-10-peer-churn").seed(33);
    let report = ScenarioReport {
        name: spec.name.clone(),
        cells: vec![ScenarioRunner::new().run(&spec)],
    };
    println!("{}", report.table());
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "--bestk" => bestk(),
        "--committees" => committees(),
        "--trace" => trace(),
        "" | "--demo" => demo(),
        other => {
            eprintln!("unknown mode {other}; use --bestk, --committees, --trace, or --demo");
            std::process::exit(2);
        }
    }
}
