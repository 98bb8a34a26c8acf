//! The scenario runner: self-contained cell execution and parallel matrices.
//!
//! Each cell is an independent deterministic simulation seeded from its spec,
//! so a matrix fans out across `blockfed-compute` workers with `par_map` —
//! one worker per cell chunk — while every *cell's* internals stay
//! single-threaded inside the parallel region (the compute layer runs nested
//! primitives inline), which keeps reports bit-identical at any worker count.

use std::time::Instant;

use blockfed_core::ChainStore;
use blockfed_data::{partition_dataset, Dataset, SynthCifar};
use blockfed_fl::Strategy;
use blockfed_sim::RngHub;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::matrix::ScenarioMatrix;
use crate::report::{CellReport, ScenarioReport};
use crate::spec::ScenarioSpec;

/// Executes scenario specs and matrices.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioRunner;

impl ScenarioRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        ScenarioRunner
    }

    /// Runs one cell end to end: synthesizes and partitions the data from the
    /// spec's seed, builds the model, drives the decentralized orchestrator,
    /// and folds the result into a [`CellReport`].
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ScenarioSpec::validate`].
    pub fn run(&self, spec: &ScenarioSpec) -> CellReport {
        let mut sink = blockfed_telemetry::NoopSink;
        self.run_traced(spec, &mut sink)
    }

    /// [`ScenarioRunner::run`] with a trace sink attached: the cell's spans
    /// and events (round lifecycle, floods, fetch episodes, faults, watchdog)
    /// land in `sink` stamped with virtual sim time. The simulation itself is
    /// bit-identical with or without a sink.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ScenarioSpec::validate`].
    pub fn run_traced(
        &self,
        spec: &ScenarioSpec,
        sink: &mut dyn blockfed_telemetry::TraceSink,
    ) -> CellReport {
        self.run_cell(spec, sink, None)
    }

    /// [`ScenarioRunner::run`] against an explicit [`ChainStore`]: every peer
    /// of the cell shares `store` for block-execution and signature-verdict
    /// caching, and *sequential* cells handed the same handle reuse each
    /// other's cached work — the memory-check and fork-replay paths. The
    /// simulation itself is bit-identical to a private-store run; only the
    /// cell's `store_*` counters observe the sharing.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ScenarioSpec::validate`].
    pub fn run_with_store(&self, spec: &ScenarioSpec, store: &ChainStore) -> CellReport {
        let mut sink = blockfed_telemetry::NoopSink;
        self.run_cell(spec, &mut sink, Some(store.clone()))
    }

    /// Replays the suffix of a finished run under a different aggregation
    /// strategy — "replay round `at_round` under BestK instead of Consider"
    /// as a first-class operation. Runs `spec` to completion against a fresh
    /// store, then runs a derived spec (named `{name}+replay@{at_round}`)
    /// that switches to `strategy` from round `at_round` (1-based) onward
    /// against the *same* store, so the unchanged prefix of blocks is served
    /// from the execution memo instead of being re-executed. Returns the
    /// (base, replay) reports.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ScenarioSpec::validate`] or `at_round` is 0.
    pub fn run_fork_replay(
        &self,
        spec: &ScenarioSpec,
        at_round: u32,
        strategy: Strategy,
    ) -> (CellReport, CellReport) {
        let store = ChainStore::new();
        let base = self.run_with_store(spec, &store);
        let replay_spec = spec
            .clone()
            .named(format!("{}+replay@{at_round}", spec.name))
            .strategy_switch_at(at_round, strategy);
        let replay = self.run_with_store(&replay_spec, &store);
        (base, replay)
    }

    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        sink: &mut dyn blockfed_telemetry::TraceSink,
        store: Option<ChainStore>,
    ) -> CellReport {
        spec.validate().expect("invalid scenario spec");
        let started = Instant::now();
        let (shards, tests) = prepare_data(spec);
        let mut arch_rng = StdRng::seed_from_u64(spec.seed ^ 0x5CE0);
        let model = spec.model;
        let run = spec.run_traced_with_store(
            &shards,
            &tests,
            &mut || model.build(&mut arch_rng),
            sink,
            store,
        );

        let finished: Vec<&Vec<blockfed_core::PeerRoundRecord>> =
            run.peer_records.iter().filter(|r| !r.is_empty()).collect();
        let mean_final_accuracy = if finished.is_empty() {
            0.0
        } else {
            finished
                .iter()
                .map(|r| r.last().expect("non-empty").chosen_accuracy)
                .sum::<f64>()
                / finished.len() as f64
        };
        let records = run.peer_records.iter().map(Vec::len).sum();
        let max_mask_bit = run.max_mask_bit().map(|b| b as u32);
        // Accuracy-over-time trajectory: a round counts from the moment its
        // last finisher aggregated, at the mean accuracy the finishers saw.
        let mut round_accuracy = Vec::new();
        for round in 1..=spec.rounds {
            let finishers: Vec<&blockfed_core::PeerRoundRecord> = run
                .peer_records
                .iter()
                .flatten()
                .filter(|r| r.round == round)
                .collect();
            if finishers.is_empty() {
                continue;
            }
            let done_at = finishers
                .iter()
                .map(|r| r.aggregated_at)
                .max()
                .expect("non-empty");
            let mean_acc =
                finishers.iter().map(|r| r.chosen_accuracy).sum::<f64>() / finishers.len() as f64;
            round_accuracy.push((done_at.as_secs_f64(), mean_acc));
        }
        CellReport {
            name: spec.name.clone(),
            peers: spec.peers(),
            rounds: spec.rounds,
            wait_policy: spec.wait_policy,
            strategy: spec.resolved_strategy(),
            controller: spec.controller.as_ref().map(ToString::to_string),
            seed: spec.seed,
            mean_final_accuracy,
            mean_wait_secs: run.mean_wait().as_secs_f64(),
            makespan_secs: run.finished_at.as_secs_f64(),
            fork_rate: run.fork_rate(),
            gossip_bytes: run.gossip_bytes,
            fetch_bytes: run.fetch_bytes,
            metrics: run.metrics,
            blocks: run.chain.blocks,
            records,
            max_mask_bit,
            round_accuracy,
            wall_clock_secs: started.elapsed().as_secs_f64(),
        }
    }

    /// Expands the matrix and runs every cell, fanning the cells across the
    /// `blockfed-compute` worker pool.
    ///
    /// # Panics
    ///
    /// Panics if any cell spec is invalid (validate cells up front via
    /// [`ScenarioMatrix::cells`] to report errors without burning compute).
    pub fn run_matrix(&self, matrix: &ScenarioMatrix) -> ScenarioReport {
        let cells = matrix.cells();
        for c in &cells {
            c.validate().expect("invalid matrix cell");
        }
        // Run each *distinct* cell exactly once and clone its report into
        // every duplicate slot. Spec equality implies equal seeds, so a
        // deduplicated cell is bit-identical to what the duplicate would have
        // produced; distinct cells keep fully isolated fresh stores, so
        // parallel cells can never observe each other's cached executions.
        let mut unique: Vec<&ScenarioSpec> = Vec::new();
        let mut slot: Vec<usize> = Vec::with_capacity(cells.len());
        for c in &cells {
            match unique.iter().position(|u| *u == c) {
                Some(i) => slot.push(i),
                None => {
                    unique.push(c);
                    slot.push(unique.len() - 1);
                }
            }
        }
        let unique_reports = blockfed_compute::par_map(&unique, |spec| self.run(spec));
        let reports = slot.iter().map(|&i| unique_reports[i].clone()).collect();
        ScenarioReport {
            name: matrix.base.name.clone(),
            cells: reports,
        }
    }
}

/// Synthesizes the cell's datasets: one Dirichlet/IID shard per peer from a
/// fresh training draw, and per-peer test sets cut from a disjoint draw.
fn prepare_data(spec: &ScenarioSpec) -> (Vec<Dataset>, Vec<Dataset>) {
    let n = spec.peers();
    let gen = SynthCifar::new(spec.data.synth.clone());
    let (train, _held_out) = gen.generate(spec.seed);
    let hub = RngHub::new(spec.seed);
    let mut peer_draw = hub.stream("scenario-peer-tests");
    let pool = gen.sample(&mut peer_draw, spec.data.synth.test_per_class);
    let per = pool.len() / n;
    let tests: Vec<Dataset> = (0..n)
        .map(|i| {
            let idx: Vec<usize> = (i * per..(i + 1) * per).collect();
            pool.subset(&idx)
        })
        .collect();
    let mut part_rng = hub.stream("scenario-partition");
    let shards = partition_dataset(&train, n, spec.data.partition, &mut part_rng);
    (shards, tests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::never_firing_rule;
    use blockfed_fl::{Strategy, WaitPolicy};

    /// A small but fully featured churn cell: heterogeneous compute, one
    /// partition + heal, one join and one leave.
    fn churn_spec(peers: usize, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("churn", peers)
            .rounds(2)
            .consider_cutover(4, 3)
            .partition_at(3.0, &[0], &[1, 2])
            .heal_at(8.0)
            .join_at(10.0, peers - 1)
            .leave_at(14.0, 1)
            .seed(seed);
        // Heterogeneous peers: a fast head, a straggling tail.
        for (i, c) in spec.computes.iter_mut().enumerate() {
            c.train_rate = 700.0 - 40.0 * i as f64;
        }
        spec
    }

    #[test]
    fn acceptance_ten_peer_churn_cell_replays_deterministically() {
        // The PR's acceptance bar: a single spec expresses a 10-peer
        // heterogeneous run with a mid-run partition and a join + leave, and
        // the same seed reproduces the identical report.
        let spec = churn_spec(10, 33);
        assert_eq!(spec.resolved_strategy(), Strategy::BestK(3));
        let runner = ScenarioRunner::new();
        let a = runner.run(&spec);
        let b = runner.run(&spec);
        assert_eq!(a, b, "same seed must replay bit-identically");
        assert!(a.records > 0, "nobody aggregated: {a:?}");
        assert!(a.mean_final_accuracy > 0.0);
        // A different seed diverges.
        let c = runner.run(&churn_spec(10, 34));
        assert_ne!(a, c);
    }

    #[test]
    fn lossy_cell_records_resilience_meters_and_replays() {
        // A lossy cell settles through the retry machinery, meters its drops,
        // and still replays bit-identically; its lossless twin keeps every
        // resilience meter at zero.
        let spec = churn_spec(5, 70).loss(0.2);
        let runner = ScenarioRunner::new();
        let a = runner.run(&spec);
        assert!(a.dropped_msgs() > 0, "20% loss must drop something: {a:?}");
        assert!(!a.stalled(), "the lossy cell must settle, not stall: {a:?}");
        assert!(a.records > 0);
        let b = runner.run(&spec);
        assert_eq!(a, b, "lossy runs must replay bit-identically");
        // The lossless twin drops nothing on its links; the mid-run partition
        // may still force on-demand fetch recoveries (deliveries cut in
        // flight), which is the machinery working, not loss.
        let clean = runner.run(&churn_spec(5, 70));
        assert_eq!(clean.dropped_msgs(), 0, "lossless links drop nothing");
        assert!(!clean.stalled());
        // A fault-free lossless cell keeps every resilience meter at zero.
        let calm = runner.run(&ScenarioSpec::new("calm", 3).rounds(2).seed(70));
        assert_eq!(calm.dropped_msgs(), 0);
        assert_eq!(calm.fetch_retries(), 0);
        assert_eq!(calm.recovery_ms(), 0.0);
        assert!(!calm.stalled());
        // The folded timing distributions ride along on every cell.
        assert!(calm.metrics.histogram("wait_secs").is_some());
        assert!(calm.wait_max_secs() >= 0.0);
    }

    #[test]
    fn traced_cell_matches_untraced_and_captures_round_spans() {
        // ScenarioRunner::run_traced is run() with a sink: same report bit
        // for bit, plus the full span stream in the sink.
        let spec = churn_spec(5, 70).loss(0.2);
        let runner = ScenarioRunner::new();
        let plain = runner.run(&spec);
        let mut sink = blockfed_telemetry::MemorySink::new();
        let traced = runner.run_traced(&spec, &mut sink);
        assert_eq!(plain, traced, "a sink must never perturb the cell");
        for name in ["round", "round.train", "round.wait", "net.flood"] {
            assert!(sink.contains(name), "trace missing {name}");
        }
    }

    #[test]
    fn sequential_runs_share_nothing_unless_handed_a_store() {
        // The memo-growth regression: two sequential in-process runs must not
        // share or accumulate cached verdicts. With private (default) stores
        // the second run starts cold — bit-identical reports, including the
        // store_* counters, prove it re-verified and re-executed everything.
        let spec = ScenarioSpec::new("iso", 3).rounds(2).seed(7);
        let runner = ScenarioRunner::new();
        let a = runner.run(&spec);
        let b = runner.run(&spec);
        assert_eq!(a, b, "private stores must leave no trace between runs");
        // Within one run the cell's peers share its store, so sibling imports
        // of the same block hit the memo; but every block was *executed*
        // exactly once (a miss), so misses track the canonical chain.
        assert!(a.metrics.counter("store_exec_misses") > 0);
        // An explicitly shared store is the opt-in: the second run reuses the
        // first's work, visible in its counters and nowhere else.
        let store = blockfed_core::ChainStore::new();
        let c = runner.run_with_store(&spec, &store);
        let entries = (store.exec_entries(), store.sig_entries());
        assert!(entries.0 > 0 && entries.1 > 0, "the run cached nothing");
        let d = runner.run_with_store(&spec, &store);
        assert_eq!(
            (store.exec_entries(), store.sig_entries()),
            entries,
            "re-running the same cell must reuse the cache, not grow it"
        );
        assert_eq!(c, a, "an empty shared store behaves like a private one");
        assert!(
            d.metrics.counter("store_exec_hits") > c.metrics.counter("store_exec_hits"),
            "the second run over a shared store must hit the warm memo: {d:?}"
        );
        assert_eq!(
            d.metrics.counter("store_exec_misses"),
            0,
            "every block execution was cached by the first run"
        );
        assert_eq!(
            d.metrics.counter("store_sig_misses"),
            0,
            "every verdict was cached by the first run"
        );
        // Sharing never changes simulation results.
        assert_eq!(c.mean_final_accuracy, d.mean_final_accuracy);
        assert_eq!(c.blocks, d.blocks);
        assert_eq!(c.records, d.records);
        // Two idle epochs age every entry out: a shared handle cannot pin a
        // dead run's state forever.
        store.begin_epoch();
        store.begin_epoch();
        assert_eq!((store.exec_entries(), store.sig_entries()), (0, 0));
    }

    #[test]
    fn fork_replay_reuses_prefix_and_switches_strategy() {
        let spec = ScenarioSpec::new("fr", 5).rounds(3).seed(9);
        let runner = ScenarioRunner::new();
        let (base, replay) = runner.run_fork_replay(&spec, 2, Strategy::NotConsider);
        assert_eq!(replay.name, "fr+replay@2");
        // The base leg against the (initially empty) shared store matches a
        // plain private-store run bit for bit.
        assert_eq!(base, runner.run(&spec));
        // The replay's unchanged prefix is served from the execution memo.
        assert!(
            replay.metrics.counter("store_exec_hits") > 0,
            "replay must reuse the base run's prefix: {replay:?}"
        );
        // Replaying is itself deterministic.
        let (base2, replay2) = runner.run_fork_replay(&spec, 2, Strategy::NotConsider);
        assert_eq!(base, base2);
        assert_eq!(replay, replay2);
    }

    #[test]
    fn matrix_dedups_identical_cells() {
        // vary_seed(&[1, 1]) expands to two bit-identical cells; the runner
        // executes one and clones the report into both slots, and the
        // duplicate is indistinguishable from running it again from scratch.
        let base = ScenarioSpec::new("dup", 3).rounds(2);
        let matrix = ScenarioMatrix::new(base.clone()).vary_seed(&[1, 1]);
        let runner = ScenarioRunner::new();
        let report = runner.run_matrix(&matrix);
        assert_eq!(report.cells.len(), 2, "every slot keeps its report");
        assert_eq!(report.cells[0], report.cells[1]);
        let solo = runner.run(&base.seed(1).named(report.cells[0].name.clone()));
        assert_eq!(report.cells[0], solo, "dedup must not change any cell");
    }

    #[test]
    fn dedup_key_covers_controller_committee_and_gossip_fields() {
        // Regression: the matrix dedup keys on *spec equality*. Cells that
        // differ only in the controller, the committee layout, or the gossip
        // mode would be silently merged if any of those fields escaped
        // PartialEq — each must keep the pair distinct.
        let base = ScenarioSpec::new("key", 3).rounds(1);
        let variants = [
            base.clone().controller(never_firing_rule()),
            base.clone()
                .committees(blockfed_core::CommitteeSpec::contiguous(2)),
            base.clone()
                .gossip(blockfed_net::GossipMode::Epidemic { fanout: 2 }),
        ];
        for v in &variants {
            assert_ne!(base, *v, "field must be part of spec identity: {}", v.name);
        }
        // End to end: a matrix whose controller axis is (static, a rule that
        // never fires) runs both cells instead of cloning one report —
        // visible in the reports' controller columns.
        let matrix =
            ScenarioMatrix::new(base.clone()).vary_controller(&[None, Some(never_firing_rule())]);
        let report = ScenarioRunner::new().run_matrix(&matrix);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].controller, None);
        assert_eq!(report.cells[1].controller, Some("rule".into()));
        assert!(report.cells[1].name.ends_with("/ctl=rule"));
        // Same end to end for the hierarchical axes: flat vs committee runs
        // both cells (visible in the committee meters), never one clone.
        let hier = ScenarioMatrix::new(base.rounds(1))
            .vary_committees(&[None, Some(blockfed_core::CommitteeSpec::contiguous(2))]);
        let hier_report = ScenarioRunner::new().run_matrix(&hier);
        assert_eq!(hier_report.cells.len(), 2);
        assert!(hier_report.cells[0].name.ends_with("/flat"));
        assert_eq!(hier_report.cells[0].committee_rounds(), 0);
        assert!(hier_report.cells[1].name.ends_with("/c2"));
        assert!(
            hier_report.cells[1].committee_rounds() > 0,
            "the committee cell must actually merge: {:?}",
            hier_report.cells[1]
        );
    }

    #[test]
    fn matrix_runs_four_churn_cells_in_parallel() {
        // ≥ 4 such cells through the compute-pool fan-out, still
        // deterministic end to end.
        let matrix = ScenarioMatrix::new(churn_spec(5, 1))
            .vary_wait(&[WaitPolicy::All, WaitPolicy::FirstK(3)])
            .vary_seed(&[1, 2]);
        let runner = ScenarioRunner::new();
        let report = runner.run_matrix(&matrix);
        assert_eq!(report.cells.len(), 4);
        let again = runner.run_matrix(&matrix);
        assert_eq!(report, again, "matrix replay must be deterministic");
        for cell in &report.cells {
            assert!(cell.records > 0, "{} never aggregated", cell.name);
            assert!(
                cell.mean_final_accuracy > 0.0,
                "{} learned nothing",
                cell.name
            );
        }
        // JSON feed covers every cell.
        let json = report.to_json();
        for cell in &report.cells {
            assert!(json.contains(&format!("\"name\": \"{}\"", cell.name)));
        }
    }
}
