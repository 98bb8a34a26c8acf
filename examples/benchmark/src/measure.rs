//! The untraced pass: end-to-end metrics of one workload.
//!
//! Every rep is an independent cold run — fresh datasets, fresh model
//! factory, fresh private `ChainStore` — because that is what a user pays.
//! Host time is read from outside, around the one public entry point.
//!
//! Each rep draws its own sub-seed (`--seed S` → spec seeds
//! `canonical + S·SEED_STRIDE + rep`). How many blocks a cell seals, and so
//! how much host work it is, swings ±12 % with the mining randomness; a median
//! over reps of one seed would carry that swing into every comparison between
//! runs of different seeds, a median over several seeds averages it out.
//! Determinism (same seed ⇒ same digest) is checked where two runs of one
//! seed exist anyway: traced against untraced, and `--selfcheck`'s two sets.

use std::fmt::Write as _;
use std::time::Instant;

use blockfed::core::{DecentralizedRun, Fault};
use blockfed::crypto::sha256::Sha256;
use blockfed::scenario::ScenarioSpec;
use blockfed::telemetry::{NoopSink, TraceSink};

use crate::stats::{self, Summary};
use crate::workloads::{self, Prepared, Workload};

/// How many back-to-back preparations `setup_s` is the median of. One
/// preparation takes 1–15 ms, so a single reading would be mostly noise.
pub const SETUP_REPS: usize = 50;

/// No workload reports a median over fewer runs than this.
pub const MIN_REPS: usize = 3;

/// Distance between the sub-seed blocks of consecutive `--seed` values; no
/// run makes this many reps, so two `--seed`s never share a spec seed.
pub const SEED_STRIDE: u64 = 16;

/// The spec seed offset of rep `rep` under `--seed seed`.
pub fn sub_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(SEED_STRIDE)
        .wrapping_add(rep as u64 % SEED_STRIDE)
}

/// The simulated outputs of one run that the report carries forward.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutputs {
    /// SHA-256 over every simulated output (nothing host-timed goes in).
    pub digest: String,
    pub records: usize,
    /// Peer-rounds the run was expected to complete (see [`owed`]).
    pub owed: usize,
    pub stalled: bool,
    pub final_accuracy: f64,
    pub sim_wait_s: f64,
    pub sim_makespan_s: f64,
    pub gossip_bytes: u64,
    pub fetch_bytes: u64,
    pub committee_rounds: u64,
}

impl SimOutputs {
    pub fn of(spec: &ScenarioSpec, run: &DecentralizedRun) -> Self {
        let finals: Vec<f64> = run
            .peer_records
            .iter()
            .filter_map(|r| r.last())
            .map(|r| r.chosen_accuracy)
            .collect();
        SimOutputs {
            digest: sim_digest(run),
            records: run.peer_records.iter().map(Vec::len).sum(),
            owed: owed(spec, run),
            stalled: run.stall.is_some(),
            final_accuracy: finals.iter().sum::<f64>() / finals.len().max(1) as f64,
            sim_wait_s: run.mean_wait().as_secs_f64(),
            sim_makespan_s: run.finished_at.as_secs_f64(),
            gossip_bytes: run.gossip_bytes,
            fetch_bytes: run.fetch_bytes,
            committee_rounds: run.committee_rounds(),
        }
    }

    pub fn traffic_mb(&self) -> f64 {
        (self.gossip_bytes + self.fetch_bytes) as f64 / 1e6
    }
}

/// Streams `Debug` output straight into the hasher: the Consider cells carry
/// ~10^6 scored combinations, far too many to format into one string.
struct HashWriter(Sha256);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

/// SHA-256 over the run's simulated outputs: per-peer round records, byte
/// meters, the folded `MetricSet`, the finish time and the on-chain
/// aggregates. Two commits that print the same digest for the same seed
/// simulated the same system.
pub fn sim_digest(run: &DecentralizedRun) -> String {
    let mut w = HashWriter(Sha256::new());
    write!(
        w,
        "{:?}|{}|{}|{:?}|{:?}|{:?}",
        run.peer_records,
        run.gossip_bytes,
        run.fetch_bytes,
        run.metrics,
        run.finished_at,
        run.aggregates
    )
    .expect("hashing never fails");
    w.0.finalize().to_hex()
}

/// One cold orchestrator run. Returns the run and its host wall clock, data
/// preparation excluded.
pub fn run_once(
    spec: &ScenarioSpec,
    prepared: &Prepared,
    sink: &mut dyn TraceSink,
) -> (DecentralizedRun, f64) {
    let mut make_model = workloads::model_factory(spec);
    let started = Instant::now();
    let run = spec.run_traced_with_store(
        &prepared.shards,
        &prepared.tests,
        &mut make_model,
        sink,
        None,
    );
    (run, started.elapsed().as_secs_f64())
}

/// Peer-rounds the run was expected to complete. Without a fault timeline
/// that is every peer in every round. With one, every peer owes the rounds it
/// trained and published (a late joiner owes nothing for the rounds before it
/// joined), except that a peer the timeline removes owes no more than it
/// recorded: it may leave between publishing a round and aggregating it.
fn owed(spec: &ScenarioSpec, run: &DecentralizedRun) -> usize {
    if spec.timeline.is_empty() {
        return spec.peers() * spec.rounds as usize;
    }
    (0..spec.peers())
        .map(|peer| {
            let published = run
                .published_updates
                .iter()
                .filter(|u| u.client.0 == peer)
                .count();
            let removed = spec.timeline.iter().any(|tf| {
                matches!(tf.fault, Fault::PeerLeave { peer: p } | Fault::PeerCrash { peer: p } if p == peer)
            });
            if removed {
                published.min(run.peer_records[peer].len())
            } else {
                published
            }
        })
        .sum()
}

/// Everything the untraced pass learned about one workload.
pub struct EndToEnd {
    pub run_s: Summary,
    pub setup_s: Summary,
    pub peer_rounds_per_s: Summary,
    pub traffic_mb: Summary,
    pub peak_rss_mb: f64,
    /// One entry per rep, in order: the rep's spec seed and what it simulated.
    pub reps: Vec<(u64, SimOutputs)>,
    pub attempted: usize,
    pub failed: usize,
    /// Human-readable reasons `correct` is false; empty when all is well.
    pub problems: Vec<String>,
}

/// Runs the untraced pass: cold reps until `seconds` of measurement have
/// elapsed (never fewer than [`MIN_REPS`]), then `SETUP_REPS` timed
/// preparations.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> EndToEnd {
    let mut problems = Vec::new();

    let measuring = Instant::now();
    let (mut times, mut rates, mut traffic) = (Vec::new(), Vec::new(), Vec::new());
    let mut reps = Vec::new();
    let (mut attempted_total, mut failed) = (0, 0);
    while times.len() < MIN_REPS
        || measuring.elapsed().as_secs_f64() + stats::median(&times) / 2.0 < seconds
    {
        let rep = times.len();
        let spec = workload.spec(sub_seed(seed, rep));
        let prepared = workloads::prepare(&spec);
        let (run, secs) = run_once(&spec, &prepared, &mut NoopSink);
        let out = SimOutputs::of(&spec, &run);
        drop(run);
        times.push(secs);
        rates.push(out.records as f64 / secs);
        traffic.push(out.traffic_mb());
        let owed = out.owed;
        attempted_total += owed;
        if out.stalled {
            problems.push(format!(
                "rep {rep} (seed {}) stalled on the watchdog",
                spec.seed
            ));
            failed += owed;
        } else if out.records < owed {
            problems.push(format!(
                "rep {rep} (seed {}) recorded {} of {owed} peer-rounds",
                spec.seed, out.records
            ));
            failed += owed - out.records;
        }
        reps.push((spec.seed, out));
    }
    let peak_rss_mb = peak_rss_mb();

    // Timed after the runs, once the process is warm: at process start the
    // sub-millisecond preparations of the tiny cells read up to 40 % slower
    // from one process to the next.
    let first_spec = workload.spec(sub_seed(seed, 0));
    let setup_times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let started = Instant::now();
            workloads::setup_once(&first_spec);
            started.elapsed().as_secs_f64()
        })
        .collect();

    if seed == 0 {
        problems.extend(drift_guard(workload, &reps[0].1));
    }

    EndToEnd {
        run_s: Summary::of(&times),
        setup_s: Summary::of(&setup_times),
        peer_rounds_per_s: Summary::of(&rates),
        traffic_mb: Summary::of(&traffic),
        peak_rss_mb,
        reps,
        attempted: attempted_total,
        failed,
        problems,
    }
}

/// The copied cell definitions must still be the committed cells: at
/// `--seed 0`, rep 0 of `committee256` reproduces its `BENCH_scenarios.json`
/// row, and a one-off lossless `bestk48` run (made with `churn48`, which is
/// that cell plus faults) reproduces the 48-peer byte guards.
fn drift_guard(workload: &Workload, sim: &SimOutputs) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("drift guard: {what} = {got}, committed {want}"));
        }
    };
    match workload.name {
        "committee256" => {
            expect(
                "committee256 gossip bytes",
                sim.gossip_bytes,
                workloads::COMMITTEE256_GOSSIP_BYTES,
            );
            expect(
                "committee256 fetch bytes",
                sim.fetch_bytes,
                workloads::COMMITTEE256_FETCH_BYTES,
            );
            expect("committee256 records", sim.records as u64, 512);
            expect("committee256 committee rounds", sim.committee_rounds, 512);
        }
        "churn48" => {
            let spec = workloads::bestk48();
            let (run, _) = run_once(&spec, &workloads::prepare(&spec), &mut NoopSink);
            expect(
                "bestk48 gossip bytes",
                run.gossip_bytes,
                workloads::BESTK48_GOSSIP_BYTES,
            );
            expect(
                "bestk48 fetch bytes",
                run.fetch_bytes,
                workloads::BESTK48_FETCH_BYTES,
            );
        }
        _ => {}
    }
    problems
}

/// This process's peak resident set (`VmHWM`), in MB. Each workload runs in
/// a process of its own, so the figure is per workload. Zero where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_reps_and_moves_with_the_seed() {
        let spec = ScenarioSpec::new("tiny", 3).rounds(1).seed(5);
        let prepared = workloads::prepare(&spec);
        let (a, _) = run_once(&spec, &prepared, &mut NoopSink);
        let (b, _) = run_once(&spec, &prepared, &mut NoopSink);
        assert_eq!(SimOutputs::of(&spec, &a), SimOutputs::of(&spec, &b));
        let other = spec.clone().seed(6);
        let (c, _) = run_once(&other, &workloads::prepare(&other), &mut NoopSink);
        assert_ne!(sim_digest(&a), sim_digest(&c));
        assert_eq!(sim_digest(&a).len(), 64);
    }

    #[test]
    fn owed_counts_every_peer_round_unless_the_timeline_removes_the_peer() {
        let spec = ScenarioSpec::new("tiny", 3).rounds(2).seed(5);
        let (run, _) = run_once(&spec, &workloads::prepare(&spec), &mut NoopSink);
        let out = SimOutputs::of(&spec, &run);
        assert_eq!((out.owed, out.records), (6, 6));
        assert!(!out.stalled);
        // A peer that leaves owes only what it recorded; the others still owe
        // every round they published.
        let churny = spec.leave_at(0.001, 2);
        let (run, _) = run_once(&churny, &workloads::prepare(&churny), &mut NoopSink);
        let out = SimOutputs::of(&churny, &run);
        assert_eq!(out.owed, 4 + run.peer_records[2].len());
        assert_eq!(out.records, out.owed);
    }

    #[test]
    fn peak_rss_reads_a_positive_figure_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 1.0);
        }
    }
}
