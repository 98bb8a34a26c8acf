//! Folding a finished run into its [`DecentralizedRun`].

use blockfed_chain::Blockchain;
use blockfed_crypto::H256;
use blockfed_sim::SimDuration;

use super::super::{registry_address, AuditRecord, ChainStats, DecentralizedRun};
use super::Run;
use crate::coupling::confirmed_aggregates;

impl Run<'_> {
    /// Closes whatever the run left open, folds the run-level meters, audits
    /// every published update against peer 0's chain and assembles the
    /// result.
    pub fn finish(self) -> DecentralizedRun {
        let finished_at = self.finished_at;
        // Truncated round phases (a stall or settle mid-round) and unresolved
        // fetch episodes.
        let mut obs = self.obs;
        for ((to, _), st) in &self.fetches {
            obs.tel.end(finished_at, "fetch", *to as u32, st.span, || {
                vec![("truncated", true.into())]
            });
        }
        obs.close_open_spans(finished_at);
        // Fold the run-level meters into the metric set (the per-event
        // histograms are already in).
        let mut metrics = obs.metrics;
        metrics.add("dropped_msgs", self.gs.dropped_msgs);
        metrics.add("fetch_retries", self.fetch_retries);
        metrics.add("fetch_recoveries", self.recoveries);
        metrics.add("blocks_sealed", self.block_log.len() as u64);
        metrics.set_gauge(
            "recovery_ms",
            if self.recoveries == 0 {
                0.0
            } else {
                (self.recovery_total / self.recoveries).as_secs_f64() * 1e3
            },
        );
        metrics.set_gauge("stalled", if self.stall.is_some() { 1.0 } else { 0.0 });
        // Fold this run's chain-store contribution as a delta from the
        // run-start snapshot: with a fresh store the delta is the absolute
        // count, and with a caller-shared store each run still reports only
        // its own hits/misses/evictions — so replaying a spec reproduces the
        // same numbers. The run is single-threaded, so the deltas are exact.
        let d = self.store.counters().since(&self.store_base);
        metrics.add("store_exec_hits", d.exec_hits);
        metrics.add("store_exec_misses", d.exec_misses);
        metrics.add("store_sig_hits", d.sig_hits);
        metrics.add("store_sig_misses", d.sig_misses);
        metrics.add("store_evictions", d.exec_evicted + d.sig_evicted);
        let (registry, peers) = (registry_address(), self.peers);
        let chain0 = &peers[0].node.chain;
        let audits: Vec<AuditRecord> = self
            .update_log
            .iter()
            .map(|u| {
                let author = peers[u.client.0].node.key.address();
                let verified = crate::nonrepudiation::collect_evidence(chain0, registry, author, u)
                    .and_then(|ev| crate::nonrepudiation::verify_evidence(chain0, &ev, u))
                    .is_ok();
                AuditRecord {
                    client: u.client,
                    round: u.round,
                    verified,
                }
            })
            .collect();
        let artifacts: Vec<Vec<H256>> = peers
            .iter()
            .map(|p| {
                let mut fps: Vec<H256> = p.node.model_store.keys().copied().collect();
                fps.sort_unstable();
                fps
            })
            .collect();
        DecentralizedRun {
            chain: chain_stats(chain0),
            aggregates: confirmed_aggregates(chain0, registry),
            final_chain: chain0.clone(),
            peer_records: peers.into_iter().map(|p| p.records).collect(),
            finished_at,
            published_updates: self.update_log,
            audits,
            blocks_sealed: self.block_log.len(),
            gossip_bytes: self.gs.gossip_bytes,
            fetch_bytes: self.gs.fetch_bytes,
            artifacts,
            metrics,
            stall: self.stall,
            policy_events: self.engine.policy.decisions,
        }
    }
}

fn chain_stats(chain: &Blockchain) -> ChainStats {
    let canonical = chain.canonical_chain();
    let mut total_txs = 0usize;
    let mut total_gas = 0u64;
    let mut total_payload = 0u64;
    let mut times = Vec::new();
    for hash in canonical.iter().skip(1) {
        let block = chain.block(hash).expect("canonical block");
        times.push(block.header.timestamp_ns);
        total_gas += block.header.gas_used;
        total_payload += block.total_payload_bytes();
        if let Some(receipts) = chain.receipts(hash) {
            total_txs += receipts.iter().filter(|r| r.is_success()).count();
        }
    }
    let mean_block_interval = match times[..] {
        [first, .., last] => Some(SimDuration::from_nanos(
            (last - first) / (times.len() as u64 - 1),
        )),
        _ => None,
    };
    ChainStats {
        blocks: canonical.len().saturating_sub(1),
        mean_block_interval,
        total_txs,
        total_gas,
        total_payload_bytes: total_payload,
    }
}
