//! One peer's view of the chain: its key, blockchain, mempool and runtime,
//! the artifacts it holds, and the memoised chain scans the round engine
//! polls. A `Node` knows no scheduler, network or telemetry: every method is
//! a plain state transition that returns what happened.

use std::collections::HashMap;
use std::sync::Arc;

use blockfed_chain::{
    Block, Blockchain, ChainStore, ImportError, ImportOutcome, Mempool, Transaction,
};
use blockfed_crypto::{KeyPair, H256};
use blockfed_fl::ModelUpdate;
use blockfed_vm::{BlockfedRuntime, NativeContract};

use super::registry_address;
use crate::coupling::{
    confirmed_aggregate_records, confirmed_submissions, AggregateRecord, ConfirmedSubmission,
};

/// A reorganisation one import caused: the head it displaced and the height
/// the chain landed on.
pub(super) type Reorg = (H256, u64);

/// The two round-scoped scans of the canonical chain, valid for one
/// (head, round) pair and filled on first use: the chain only changes on
/// block import, yet readiness is re-checked on every delivered transaction.
struct Memo {
    head: H256,
    round: u32,
    subs: Option<Arc<Vec<ConfirmedSubmission>>>,
    aggs: Option<Arc<Vec<AggregateRecord>>>,
}

impl Memo {
    /// The memo in `slot` if it is for (`head`, `round`), else a fresh one.
    fn at(slot: &mut Option<Memo>, head: H256, round: u32) -> &mut Memo {
        slot.take_if(|m| m.head != head || m.round != round);
        slot.get_or_insert(Memo {
            head,
            round,
            subs: None,
            aggs: None,
        })
    }
}

pub(super) struct Node {
    pub key: KeyPair,
    pub chain: Blockchain,
    mempool: Mempool,
    runtime: BlockfedRuntime,
    next_nonce: u64,
    /// Model payloads held, by fingerprint. Survives a crash (on disk).
    pub model_store: HashMap<H256, ModelUpdate>,
    /// Committee-level aggregate artifacts held, mapping aggregate
    /// fingerprint to the run's aggregate log. Survives a crash too.
    pub agg_store: HashMap<H256, usize>,
    /// Every transaction this node authored, re-inserted into the mempool
    /// after each import so a reorg that unwinds a fork cannot silently
    /// discard them (real clients re-broadcast their pending transactions).
    my_txs: Vec<Transaction>,
    /// Indices into the run's block log still waiting for a parent.
    orphans: Vec<usize>,
    memo: Option<Memo>,
}

impl Node {
    /// A node at genesis whose mempool verifies through `store`'s run-scoped
    /// signature cache.
    pub fn new(key: KeyPair, chain: Blockchain, store: &ChainStore) -> Self {
        let mut runtime = BlockfedRuntime::new();
        runtime.register_native(registry_address(), NativeContract::FlRegistry);
        Node {
            key,
            chain,
            mempool: Mempool::with_sig_cache(store.sig_cache()),
            runtime,
            next_nonce: 0,
            model_store: HashMap::new(),
            agg_store: HashMap::new(),
            my_txs: Vec::new(),
            orphans: Vec::new(),
            memo: None,
        }
    }

    /// Admits a gossiped transaction (stale and duplicate ones are rejected).
    pub fn admit(&mut self, tx: Transaction) {
        let _ = self.mempool.insert(tx, self.chain.state());
    }

    /// Signs one of this node's own transactions at its next nonce, keeps it
    /// for re-broadcast and admits it locally.
    pub fn publish(&mut self, sign: impl FnOnce(&KeyPair, u64) -> Transaction) -> Transaction {
        let tx = sign(&self.key, self.next_nonce);
        self.next_nonce += 1;
        self.my_txs.push(tx.clone());
        self.admit(tx.clone());
        tx
    }

    /// Wins a mining race at `now_ns`: builds a block from the mempool on the
    /// current head and imports it. `None` if the chain rejects it.
    pub fn seal(&mut self, now_ns: u64) -> Option<Arc<Block>> {
        let head = &self.chain.head_block().header;
        let (ts, gas_limit) = (now_ns.max(head.timestamp_ns + 1), head.gas_limit);
        self.mempool.prune(self.chain.state());
        let txs = self.mempool.select(self.chain.state(), gas_limit, 64);
        let block =
            Arc::new(
                self.chain
                    .build_candidate(self.key.address(), txs, ts, &mut self.runtime),
            );
        self.chain
            .import_arc(Arc::clone(&block), &mut self.runtime)
            .ok()?;
        self.mempool.prune(self.chain.state());
        Some(block)
    }

    /// Imports `blocks[idx]`, retrying parked orphans until none imports
    /// (parents may arrive out of order). A block whose parent was never
    /// delivered — its flood crossed a partition, or this node was dormant —
    /// triggers an ancestor sync: a request to whoever sent the descendant,
    /// modelled as a lookup in the run's block log. Returns the reorgs the
    /// imports caused, in order.
    pub fn import(&mut self, idx: usize, blocks: &[Arc<Block>]) -> Vec<Reorg> {
        let mut reorgs = Vec::new();
        self.orphans.push(idx);
        loop {
            let mut progressed = false;
            let mut missing: Vec<H256> = Vec::new();
            for i in std::mem::take(&mut self.orphans) {
                match self
                    .chain
                    .import_arc(Arc::clone(&blocks[i]), &mut self.runtime)
                {
                    Ok(outcome) => {
                        if let ImportOutcome::Reorged { old_head } = outcome {
                            reorgs.push((old_head, self.chain.head_block().number()));
                        }
                        progressed = true;
                    }
                    Err(ImportError::UnknownParent(parent)) => {
                        self.orphans.push(i);
                        missing.push(parent);
                    }
                    Err(_) => {} // permanently invalid; drop
                }
            }
            for parent in missing {
                if let Some(j) = blocks.iter().position(|b| b.hash() == parent) {
                    if !self.orphans.contains(&j) {
                        self.orphans.push(j);
                        progressed = true; // new material: retry the loop
                    }
                }
            }
            if !progressed || self.orphans.is_empty() {
                break;
            }
        }
        self.mempool.prune(self.chain.state());
        // A reorg may have unwound blocks carrying this node's transactions
        // after `prune` already dropped them from the pool: re-insert every
        // authored tx (stale and duplicate inserts are rejected).
        for tx in &self.my_txs {
            let _ = self.mempool.insert(tx.clone(), self.chain.state());
        }
        reorgs
    }

    /// Imports every block sealed so far — how a joiner or a restarted node
    /// catches up (this also refills a fresh mempool with its own pending
    /// transactions).
    pub fn sync(&mut self, blocks: &[Arc<Block>]) -> Vec<Reorg> {
        (0..blocks.len())
            .flat_map(|idx| self.import(idx, blocks))
            .collect()
    }

    /// A process crash: the mempool is volatile, everything else is on disk.
    pub fn crash(&mut self) {
        self.mempool.clear();
    }

    /// `round`'s `submit_model` calls confirmed on this node's chain, sorted
    /// by submitter. Chain position reflects delivery and mining timing,
    /// which packet loss and retried fetches perturb; the canonical order
    /// makes every aggregation (tie-break jitter included) a function of the
    /// round's model set alone, so a lossy run that recovers every artifact
    /// aggregates exactly what its lossless twin does.
    pub fn confirmed(&mut self, round: u32) -> Arc<Vec<ConfirmedSubmission>> {
        let (chain, registry) = (&self.chain, registry_address());
        let subs = Memo::at(&mut self.memo, chain.head(), round)
            .subs
            .get_or_insert_with(|| {
                let mut subs = confirmed_submissions(chain, registry, round);
                subs.sort_by_key(|s| (s.sender, s.tx_hash));
                Arc::new(subs)
            });
        Arc::clone(subs)
    }

    /// `round`'s `record_aggregate` calls confirmed on this node's chain, in
    /// chain order (the tier-2 readiness input).
    pub fn agg_records(&mut self, round: u32) -> Arc<Vec<AggregateRecord>> {
        let (chain, registry) = (&self.chain, registry_address());
        let aggs = Memo::at(&mut self.memo, chain.head(), round)
            .aggs
            .get_or_insert_with(|| Arc::new(confirmed_aggregate_records(chain, registry, round)));
        Arc::clone(aggs)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use blockfed_chain::{GenesisSpec, SealPolicy};
    use blockfed_vm::NATIVE_REGISTRY_CODE;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `n` nodes at a common genesis (registry deployed), sharing one store.
    pub fn nodes(n: usize) -> Vec<Node> {
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&mut rng)).collect();
        let addrs: Vec<_> = keys.iter().map(KeyPair::address).collect();
        let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
            .with_difficulty(1_000)
            .with_code(registry_address(), NATIVE_REGISTRY_CODE.to_vec());
        let store = ChainStore::default();
        let chain = || Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
        keys.into_iter()
            .map(|key| Node::new(key, chain(), &store))
            .collect()
    }

    #[test]
    fn import_pulls_missing_parents_and_reports_exactly_the_reorgs() {
        let mut ns = nodes(4);
        // Two forks off genesis: x mines X1, y mines Y1 → Y2.
        let x1 = ns[0].seal(10).expect("x1");
        let y1 = ns[1].seal(20).expect("y1");
        let y2 = ns[1].seal(30).expect("y2");
        let blocks = vec![Arc::clone(&x1), Arc::clone(&y1), Arc::clone(&y2)];

        // Child before parent on a fresh node: the parent is pulled from the
        // log, both import, and extending the head is not a reorg.
        assert!(ns[2].import(2, &blocks).is_empty());
        assert_eq!(ns[2].chain.head(), y2.hash());
        assert!(ns[2].chain.block(&y1.hash()).is_some());

        // On a node whose head is X1, the same import displaces it: exactly
        // one reorg, away from X1, however the equal-height tie resolved.
        assert!(ns[3].import(0, &blocks).is_empty());
        assert_eq!(ns[3].chain.head(), x1.hash());
        let reorgs = ns[3].import(2, &blocks);
        assert_eq!(reorgs.len(), 1, "{reorgs:?}");
        assert_eq!(reorgs[0].0, x1.hash());
        assert_eq!(ns[3].chain.head(), y2.hash());
        // Re-importing known blocks changes nothing.
        assert!(ns[3].sync(&blocks).is_empty());
        assert_eq!(ns[3].chain.head(), y2.hash());
    }
}
