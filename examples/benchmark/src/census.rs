//! The call census: how often the traced run entered each layer, derived from
//! public outputs only — trace-sink record counts, the run's `MetricSet`, its
//! round records and byte meters. Deterministic per seed (it repeats exactly),
//! so a later change can be judged on these counts alone where it claims to
//! remove work rather than speed it up.

use blockfed::core::DecentralizedRun;
use blockfed::scenario::ScenarioSpec;
use blockfed::telemetry::{AttrValue, MemorySink, RecordKind};

#[derive(Debug, Clone, PartialEq)]
pub struct Census {
    /// Local trainings that ran on the host: one per published update.
    pub train_calls: u64,
    /// `fl::aggregate_with` calls: one per `round.aggregated` instant.
    pub aggregate_calls: u64,
    /// Candidate models scored on a test set: every combination of a Consider
    /// search; every standalone model plus the chosen average under best-k.
    pub eval_calls: u64,
    /// `Network::flood_with` dissemination calls (`net.flood` instants).
    pub flood_calls: u64,
    /// Deliveries the floods attempted (delivered + lost to packet loss).
    pub deliveries: u64,
    /// Model payloads handed to a receiving peer (`fetch_bytes ÷ payload_bytes`,
    /// exact on a full mesh where every pull is one hop).
    pub payload_deliveries: u64,
    /// `core::model_fingerprint` calls outside the audit: one per publication,
    /// per payload delivery and per update consumed by an aggregation.
    pub fingerprint_calls: u64,
    /// Post-run non-repudiation audits: one per published update.
    pub audit_calls: u64,
    pub fetch_episodes: u64,
    pub fetch_retries: u64,
    pub dropped_msgs: u64,
    pub reorgs: u64,
    pub blocks_sealed: u64,
    pub sig_hits: u64,
    /// Signature verifications that ran. The run's peers share one verdict
    /// cache, so this is also the number of distinct transactions signed.
    pub sig_misses: u64,
    pub exec_hits: u64,
    pub exec_misses: u64,
    pub telemetry_records: u64,
}

impl Census {
    pub fn of(spec: &ScenarioSpec, run: &DecentralizedRun, sink: &MemorySink) -> Self {
        let instants = |name: &str| {
            sink.records()
                .iter()
                .filter(|r| r.name == name && r.kind != RecordKind::End)
                .count() as u64
        };
        let flood_attr = |key: &str| -> u64 {
            sink.records()
                .iter()
                .filter(|r| r.name == "net.flood")
                .flat_map(|r| &r.attrs)
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    AttrValue::U64(n) => *n,
                    _ => 0,
                })
                .sum()
        };
        let records = || run.peer_records.iter().flatten();
        let published = run.published_updates.len() as u64;
        let payload_deliveries = run.fetch_bytes / spec.payload_bytes.max(1);
        let updates_used: u64 = records().map(|r| r.updates_used as u64).sum();
        let aggregate_calls = instants("round.aggregated");
        Census {
            train_calls: published,
            aggregate_calls,
            eval_calls: records()
                .map(|r| match r.combos.len() {
                    0 | 1 => r.updates_used as u64 + 1,
                    n => n as u64,
                })
                .sum(),
            flood_calls: instants("net.flood"),
            deliveries: flood_attr("delivered") + flood_attr("dropped"),
            payload_deliveries,
            fingerprint_calls: published + payload_deliveries + updates_used,
            audit_calls: run.audits.len() as u64,
            fetch_episodes: instants("fetch"),
            fetch_retries: run.fetch_retries(),
            dropped_msgs: run.dropped_msgs(),
            reorgs: run.metrics.counter("reorgs"),
            blocks_sealed: run.blocks_sealed as u64,
            sig_hits: run.metrics.counter("store_sig_hits"),
            sig_misses: run.metrics.counter("store_sig_misses"),
            exec_hits: run.metrics.counter("store_exec_hits"),
            exec_misses: run.metrics.counter("store_exec_misses"),
            telemetry_records: sink.records().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure, workloads};

    #[test]
    fn census_of_a_three_peer_run_matches_what_the_algorithm_does() {
        // 3 peers, 2 rounds, exhaustive Consider, wait-all, lossless full mesh.
        let spec = ScenarioSpec::new("tiny", 3).rounds(2).seed(11);
        let mut sink = MemorySink::new();
        let (run, _) = measure::run_once(&spec, &workloads::prepare(&spec), &mut sink);
        let c = Census::of(&spec, &run, &sink);

        assert_eq!(c.train_calls, 6, "every peer trains every round");
        assert_eq!(c.aggregate_calls, 6, "every peer aggregates every round");
        assert_eq!(c.eval_calls, 6 * 7, "2^3 - 1 combinations per aggregation");
        assert_eq!(c.audit_calls, 6);
        assert_eq!(
            c.payload_deliveries,
            6 * 2,
            "each update reaches both others"
        );
        assert_eq!(c.fingerprint_calls, 6 + 12 + 6 * 3);
        assert_eq!(
            c.sig_misses,
            3 + 6 + 6,
            "registrations, submissions, aggregate records"
        );
        assert_eq!(c.blocks_sealed, sink.count("pow.sealed") as u64);
        assert_eq!(c.reorgs, sink.count("chain.reorg") as u64);
        assert_eq!((c.dropped_msgs, c.fetch_retries), (0, 0), "lossless links");
        assert_eq!(
            c.deliveries,
            c.flood_calls * 2,
            "a 3-mesh flood reaches 2 peers"
        );
        assert!(c.flood_calls >= c.sig_misses + c.blocks_sealed);
        assert!(c.exec_misses > 0 && c.exec_hits > 0 && c.sig_hits > c.sig_misses);
        assert_eq!(c.telemetry_records, sink.records().len() as u64);

        // The census is a function of the seed alone.
        let mut again = MemorySink::new();
        let (rerun, _) = measure::run_once(&spec, &workloads::prepare(&spec), &mut again);
        assert_eq!(Census::of(&spec, &rerun, &again), c);
    }
}
