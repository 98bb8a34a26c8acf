//! One peer's view of the chain: its key, blockchain, mempool and runtime,
//! the artifacts it holds, and the memoised reads the round engine polls. A
//! `Node` knows no scheduler, network or telemetry: every method is a plain
//! state transition that returns what happened. The run's [`BlockLog`] is
//! passed in where a read needs it: an import walks back through it to the
//! first ancestor the chain holds, and the confirmed-call reads walk this
//! node's canonical hashes and concatenate the calls the log decoded once per
//! sealed block.

use std::collections::HashMap;
use std::sync::Arc;

use blockfed_chain::{Block, Blockchain, ChainStore, ImportOutcome, Mempool, Transaction};
use blockfed_crypto::{KeyPair, H256};
use blockfed_fl::ModelUpdate;
use blockfed_vm::{BlockfedRuntime, NativeContract};

use super::block_log::BlockLog;
use super::registry_address;
use crate::coupling::{aggregate_records_in, submissions_in, AggregateRecord, ConfirmedSubmission};

/// A reorganisation one import caused: the head it displaced and the height
/// the chain landed on.
pub(super) type Reorg = (H256, u64);

/// The two round-scoped reads of the canonical chain, valid for one
/// (head, round) pair and filled on first use: the chain only changes on
/// block import, yet readiness is re-checked on every delivered transaction.
/// A fill walks the canonical hashes and copies out the round's entries of
/// calls the block log already decoded, so a miss costs O(height + the
/// chain's registry calls), not a calldata decode.
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

    /// Imports `log`'s block `idx` with every ancestor this chain lacks. A
    /// block whose parent was never delivered — its flood crossed a
    /// partition, or this node was dormant — triggers an ancestor sync: a
    /// request to whoever sent the descendant, modelled as a walk back
    /// through the run's block log to the first ancestor the chain holds.
    /// The path imports oldest-first and stops at the first block the chain
    /// rejects, since none of its descendants can import either. Returns the
    /// reorgs the imports caused, in order.
    pub fn import(&mut self, idx: usize, log: &BlockLog) -> Vec<Reorg> {
        let mut path = vec![log.block(idx)];
        loop {
            let parent = path[path.len() - 1].header.parent;
            match log.position(&parent) {
                Some(j) if !self.chain.contains(&parent) => path.push(log.block(j)),
                _ => break,
            }
        }
        let mut reorgs = Vec::new();
        for block in path.into_iter().rev() {
            match self.chain.import_arc(Arc::clone(block), &mut self.runtime) {
                Ok(ImportOutcome::Reorged { old_head }) => {
                    reorgs.push((old_head, self.chain.head_block().number()));
                }
                Ok(_) => {}
                Err(_) => break,
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
    pub fn sync(&mut self, log: &BlockLog) -> Vec<Reorg> {
        (0..log.len())
            .flat_map(|idx| self.import(idx, log))
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
    pub fn confirmed(&mut self, round: u32, log: &BlockLog) -> Arc<Vec<ConfirmedSubmission>> {
        let (chain, registry) = (&self.chain, registry_address());
        let subs = Memo::at(&mut self.memo, chain.head(), round)
            .subs
            .get_or_insert_with(|| {
                let mut subs = submissions_in(chain, registry, round, |h| log.calls(h));
                subs.sort_by_key(|s| (s.sender, s.tx_hash));
                Arc::new(subs)
            });
        Arc::clone(subs)
    }

    /// `round`'s `record_aggregate` calls confirmed on this node's chain, in
    /// chain order (the tier-2 readiness input).
    pub fn agg_records(&mut self, round: u32, log: &BlockLog) -> Arc<Vec<AggregateRecord>> {
        let (chain, registry) = (&self.chain, registry_address());
        let aggs = Memo::at(&mut self.memo, chain.head(), round)
            .aggs
            .get_or_insert_with(|| {
                Arc::new(aggregate_records_in(chain, registry, round, |h| {
                    log.calls(h)
                }))
            });
        Arc::clone(aggs)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::coupling::{
        confirmed_aggregate_records, confirmed_submissions, record_aggregate_tx, register_tx,
        submit_model_tx,
    };
    use blockfed_chain::{GenesisSpec, Header, SealPolicy};
    use blockfed_fl::ClientId;
    use blockfed_vm::{ComboMask, NATIVE_REGISTRY_CODE};
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
        let mut log = BlockLog::default();
        log.push(Arc::clone(&x1), &ns[0].chain);
        log.push(Arc::clone(&y1), &ns[1].chain);
        log.push(Arc::clone(&y2), &ns[1].chain);

        // Child before parent on a fresh node: the parent is pulled from the
        // log, both import, and extending the head is not a reorg.
        assert!(ns[2].import(2, &log).is_empty());
        assert_eq!(ns[2].chain.head(), y2.hash());
        assert!(ns[2].chain.block(&y1.hash()).is_some());

        // On a node whose head is X1, the same import displaces it: exactly
        // one reorg, away from X1, however the equal-height tie resolved.
        assert!(ns[3].import(0, &log).is_empty());
        assert_eq!(ns[3].chain.head(), x1.hash());
        let reorgs = ns[3].import(2, &log);
        assert_eq!(reorgs.len(), 1, "{reorgs:?}");
        assert_eq!(reorgs[0].0, x1.hash());
        assert_eq!(ns[3].chain.head(), y2.hash());
        // Re-importing known blocks changes nothing.
        assert!(ns[3].sync(&log).is_empty());
        assert_eq!(ns[3].chain.head(), y2.hash());
    }

    #[test]
    fn import_drops_the_orphans_of_a_rejected_parent_and_returns() {
        let mut ns = nodes(1);
        let node = &mut ns[0];
        let genesis = node.chain.head();
        let miner = node.key.address();
        // Two permanently invalid children of genesis: a broken tx root, and
        // a timestamp not after the parent's.
        let mut bad_root = node
            .chain
            .build_candidate(miner, Vec::new(), 10, &mut node.runtime);
        bad_root.header.tx_root = H256::from_bytes([1; 32]);
        let stale = node
            .chain
            .build_candidate(miner, Vec::new(), 0, &mut node.runtime);
        for bad in [bad_root, stale] {
            // A well-formed child of the invalid block, logged after it.
            let child = Block {
                header: Header {
                    parent: bad.hash(),
                    number: bad.number() + 1,
                    timestamp_ns: bad.header.timestamp_ns + 1,
                    ..bad.header.clone()
                },
                transactions: Vec::new(),
            };
            let child_hash = child.hash();
            let mut log = BlockLog::default();
            log.push(Arc::new(bad), &node.chain);
            log.push(Arc::new(child), &node.chain);
            for _ in 0..3 {
                assert!(node.import(1, &log).is_empty());
                assert!(!node.chain.contains(&child_hash));
            }
            assert!(node.sync(&log).is_empty());
            assert_eq!(node.chain.head(), genesis);
        }
    }

    /// Asserts that `node`'s log-backed reads equal the chain rescan for
    /// rounds 1 and 2.
    fn assert_reads_match_the_rescan(node: &mut Node, log: &BlockLog) {
        let registry = registry_address();
        for round in 1..=2 {
            let mut subs = confirmed_submissions(&node.chain, registry, round);
            subs.sort_by_key(|s| (s.sender, s.tx_hash));
            assert_eq!(*node.confirmed(round, log), subs, "round {round}");
            let aggs = confirmed_aggregate_records(&node.chain, registry, round);
            assert_eq!(*node.agg_records(round, log), aggs, "round {round}");
        }
    }

    #[test]
    fn log_backed_reads_equal_the_chain_rescan_in_any_delivery_order() {
        let registry = registry_address();
        let mut ns = nodes(7);
        let update = |client: usize, round: u32| {
            ModelUpdate::new(ClientId(client), round, vec![client as f32; 4], 10)
                .with_payload_bytes(1_000)
        };
        // Peers 0–2 register and submit in rounds 1 and 2, and peer 2 records
        // a round-1 aggregate. Peer 3 submits unregistered: its call reverts.
        let mut txs = Vec::new();
        for (i, node) in ns.iter_mut().enumerate().take(3) {
            txs.push(node.publish(|key, nonce| register_tx(registry, key, nonce)));
            for round in 1..=2 {
                let u = update(i, round);
                txs.push(node.publish(|key, nonce| submit_model_tx(&u, registry, key, nonce)));
            }
        }
        let (mask, agg) = (
            ComboMask::from_members([0, 1, 2]),
            H256::from_bytes([9; 32]),
        );
        txs.push(
            ns[2].publish(|key, nonce| record_aggregate_tx(1, mask, agg, registry, key, nonce)),
        );
        let u = update(3, 1);
        txs.push(ns[3].publish(|key, nonce| submit_model_tx(&u, registry, key, nonce)));

        // Fork A (miner 0) carries everything; fork B (miner 1) carries only
        // peers 0 and 1, and is one block longer. Logged in seal order:
        // 0 = A1, 1 = B1, 2 = A2, 3 = B2, 4 = B3.
        let mut log = BlockLog::default();
        for tx in &txs {
            ns[0].admit(tx.clone());
        }
        let peer0 = ns[0].key.address();
        for tx in txs.iter().filter(|tx| tx.from == peer0) {
            ns[1].admit(tx.clone());
        }
        for (miner, at) in [(0, 10), (1, 11), (0, 20), (1, 21), (1, 31)] {
            let block = ns[miner].seal(at).expect("sealed");
            log.push(block, &ns[miner].chain);
        }
        let a1 = log.block(0).hash();
        let receipts = ns[0].chain.receipts(&a1).expect("A1 executed");
        assert!(receipts.iter().any(|r| !r.is_success()), "a call failed");

        // Fresh nodes in three delivery orders (in order; children first;
        // interleaved), and miner 0 switching to fork B.
        let orders: [(usize, &[usize]); 4] = [
            (4, &[0, 2, 1, 3, 4]),
            (5, &[4, 2, 0, 3, 1]),
            (6, &[2, 4, 1, 3, 0]),
            (0, &[1, 3, 4]),
        ];
        let mut reorged = 0;
        for (peer, order) in orders {
            for &idx in order {
                reorged += ns[peer].import(idx, &log).len();
                assert_reads_match_the_rescan(&mut ns[peer], &log);
                if (peer, idx) == (4, 2) {
                    // On fork A, round 1 holds three submissions (the
                    // reverted fourth excluded) and the aggregate record.
                    assert_eq!(ns[peer].chain.head(), log.block(2).hash());
                    assert_eq!(ns[peer].confirmed(1, &log).len(), 3);
                    assert_eq!(ns[peer].agg_records(1, &log).len(), 1);
                }
            }
            assert_eq!(ns[peer].chain.head(), log.block(4).hash());
        }
        assert!(reorged >= 2, "both switching nodes reorged: {reorged}");
        // On fork B: two submissions per round and no record.
        assert_eq!(ns[0].confirmed(1, &log).len(), 2);
        assert_eq!(ns[0].confirmed(2, &log).len(), 2);
        assert!(ns[0].agg_records(1, &log).is_empty());
    }
}
