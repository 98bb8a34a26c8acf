//! Telemetry invariance suite: a trace sink only *observes*. Attaching a
//! real sink (MemorySink, bound for JSONL/Perfetto export) to any run must
//! leave the simulation bit-identical to the same run under the no-op sink —
//! telemetry draws no simulation RNG, never alters scheduling, and span ids
//! are allocated identically whether tracing is on or off. The trace bytes
//! themselves are also deterministic: same seed, same JSONL, at any compute
//! thread count. A cell that cannot finish ends its trace with the watchdog.

mod common;

use blockfed::net::LinkSpec;
use blockfed::scenario::{ScenarioRunner, ScenarioSpec};
use blockfed::sim::{SimDuration, SimTime, UniformJitter};
use blockfed::telemetry::{MemorySink, RecordKind};
use common::{bestk48, thread_guard};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any sampled mix of loss, partition + heal, and crash + restart folds
    /// the identical cell report whether its spans land in a MemorySink or
    /// the no-op sink; the captured trace balances every span and its JSONL
    /// export passes the schema validator.
    #[test]
    fn traced_cells_are_bit_identical_to_untraced(
        loss in 0.0f64..0.20,
        partition_on in any::<bool>(),
        crash_on in any::<bool>(),
        seed in 0u64..200,
    ) {
        let mut spec = ScenarioSpec::new("tele", 4).rounds(2).loss(loss).seed(seed);
        if partition_on {
            spec = spec.partition_at(1.0, &[0], &[1, 2, 3]).heal_at(6.0);
        }
        if crash_on {
            spec = spec.crash_at(2.0, 3).restart_at(9.0, 3);
        }
        let runner = ScenarioRunner::new();
        let plain = runner.run(&spec);
        let mut sink = MemorySink::new();
        let traced = runner.run_traced(&spec, &mut sink);
        prop_assert_eq!(&plain, &traced, "the sink perturbed the simulation");

        let begins = sink.records().iter().filter(|r| r.kind == RecordKind::Begin).count();
        let ends = sink.records().iter().filter(|r| r.kind == RecordKind::End).count();
        prop_assert_eq!(begins, ends, "unbalanced spans");
        let lines = blockfed::telemetry::jsonl::validate_jsonl(&sink.to_jsonl())
            .map_err(|e| TestCaseError::Fail(format!("invalid JSONL: {e}")))?;
        prop_assert_eq!(lines, sink.records().len());
    }
}

/// The lossy 48-peer cell is bit-identical with a JSONL-bound sink vs the
/// no-op sink, at 1 and 8 compute threads — and the exported trace bytes are
/// identical at both thread counts (loss sampling and span emission live in
/// the single-threaded event loop, never in the parallel training region).
#[test]
fn lossy_48_peer_cell_is_sink_and_thread_invariant() {
    let _g = thread_guard();
    let spec = bestk48().named("bestk48-loss5").loss(0.05);
    let runner = ScenarioRunner::new();
    let run_at = |threads: usize| {
        blockfed::compute::set_threads(threads);
        let plain = runner.run(&spec);
        let mut sink = MemorySink::new();
        let traced = runner.run_traced(&spec, &mut sink);
        blockfed::compute::set_threads(0);
        (plain, traced, sink)
    };
    let (plain1, traced1, sink1) = run_at(1);
    let (plain8, traced8, sink8) = run_at(8);
    let jsonl = sink1.to_jsonl();
    assert_eq!(plain1, traced1, "sink changed the 1-thread run");
    assert_eq!(plain8, traced8, "sink changed the 8-thread run");
    assert_eq!(plain1, plain8, "thread count leaked into the simulation");
    assert_eq!(
        jsonl,
        sink8.to_jsonl(),
        "trace bytes depend on thread count"
    );
    // The trace covers the lossy cell's machinery — the round lifecycle
    // (round ⊃ train → wait), floods, fetch episodes and PoW seals — stamped
    // with virtual time, and its JSONL export passes the schema validator.
    assert!(traced1.dropped_msgs() > 0, "5% loss never dropped");
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
        assert!(sink1.contains(name), "trace missing {name}");
    }
    assert!(
        sink1.records().iter().any(|r| r.time > SimTime::ZERO),
        "no record carries a nonzero virtual timestamp"
    );
    let lines = blockfed::telemetry::jsonl::validate_jsonl(&jsonl)
        .expect("JSONL export failed its own schema validator");
    assert_eq!(lines, sink1.records().len());
}

/// Peer 0 is isolated before anything crosses the 2 s links, so wait-all can
/// never complete: the 60 s watchdog stops the cell as stalled, and the trace
/// records the firing.
#[test]
fn partitioned_wait_all_cell_stalls_into_the_trace() {
    let spec = ScenarioSpec::new("stall-demo", 3)
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
    let mut sink = MemorySink::new();
    let cell = ScenarioRunner::new().run_traced(&spec, &mut sink);
    assert!(cell.stalled(), "the partitioned wait-all cell must stall");
    assert!(
        sink.contains("watchdog.stalled"),
        "the stall never reached the trace"
    );
}
