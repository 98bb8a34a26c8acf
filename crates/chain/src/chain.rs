//! The blockchain: block storage, validation, execution, total-difficulty fork
//! choice, and candidate-block building for miners.

use std::collections::HashMap;
use std::sync::Arc;

use blockfed_crypto::H256;

use crate::block::{Block, Header};
use crate::executor::{execute_block_txs_with, BlockEnv};
use crate::genesis::GenesisSpec;
use crate::pow;
use crate::receipt::Receipt;
use crate::runtime::ContractRuntime;
use crate::state::State;
use crate::store::{ChainStore, SigCache};
use crate::tx::Transaction;

/// How imported seals are treated. There is one policy: every chain trusts
/// the seal, because the discrete-event simulation decides the mining race.
///
/// The enum exists only because the benchmark harness in
/// `examples/benchmark` (its `replay.rs`) names both `SealPolicy::Simulated`
/// and the policy parameter of [`Blockchain::with_store`], and must keep
/// compiling unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealPolicy {
    /// Trust the seal; the mining race was decided by the discrete-event
    /// simulation upstream, which draws each winner from the exponential
    /// race that real hashing at the same rates and difficulty produces
    /// (`pow::tests::simulated_and_literal_agree_on_validity_rate` checks
    /// the two means agree).
    Simulated,
}

/// Why a block was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// The parent block is unknown (orphan).
    UnknownParent(H256),
    /// Height is not parent height + 1.
    BadNumber {
        /// Expected height.
        expected: u64,
        /// Height in the header.
        got: u64,
    },
    /// Timestamp is not after the parent's.
    BadTimestamp,
    /// The header's transaction root does not match the body.
    BadTxRoot,
    /// Re-execution produced a different state root.
    BadStateRoot {
        /// Root the header declared.
        declared: H256,
        /// Root re-execution produced.
        computed: H256,
    },
    /// Re-execution produced different gas usage.
    BadGasUsed {
        /// Gas the header declared.
        declared: u64,
        /// Gas re-execution measured.
        computed: u64,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::UnknownParent(h) => write!(f, "unknown parent {h}"),
            ImportError::BadNumber { expected, got } => {
                write!(f, "bad height: expected {expected}, got {got}")
            }
            ImportError::BadTimestamp => write!(f, "timestamp not after parent"),
            ImportError::BadTxRoot => write!(f, "transaction root mismatch"),
            ImportError::BadStateRoot { .. } => write!(f, "state root mismatch"),
            ImportError::BadGasUsed { declared, computed } => {
                write!(
                    f,
                    "gas used mismatch: declared {declared}, computed {computed}"
                )
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// What importing a block did to the canonical chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportOutcome {
    /// The block extended the canonical head.
    Extended,
    /// The block was valid but landed on a side chain.
    SideChain,
    /// The block triggered a reorganization to a heavier fork.
    Reorged {
        /// The head before the reorg.
        old_head: H256,
    },
    /// The block was already known; nothing changed.
    AlreadyKnown,
}

/// A validated block and what validating it produced: its total
/// difficulty, post-state and receipts. Only this module builds one —
/// genesis from its spec, every other block once [`Blockchain::import_arc`]'s
/// checks and execution pass — so holding one proves the block valid under
/// the runtime fingerprint its store entry is keyed by.
pub(crate) struct BlockRecord {
    block: Arc<Block>,
    total_difficulty: u128,
    state: Arc<State>,
    receipts: Vec<Receipt>,
}

impl BlockRecord {
    /// The genesis block of `spec`, whose total difficulty is its own.
    pub(crate) fn genesis(spec: &GenesisSpec) -> Self {
        let (block, state) = spec.build();
        BlockRecord {
            block: Arc::new(block),
            total_difficulty: spec.difficulty,
            state: Arc::new(state),
            receipts: Vec::new(),
        }
    }

    /// Checks `block`'s height, timestamp and transaction root against its
    /// parent's record.
    fn check_header(&self, block: &Block) -> Result<(), ImportError> {
        let parent = &self.block.header;
        if block.header.number != parent.number + 1 {
            return Err(ImportError::BadNumber {
                expected: parent.number + 1,
                got: block.header.number,
            });
        }
        if block.header.timestamp_ns <= parent.timestamp_ns {
            return Err(ImportError::BadTimestamp);
        }
        if !block.tx_root_valid() {
            return Err(ImportError::BadTxRoot);
        }
        Ok(())
    }

    /// Executes `block` on this parent record's state and checks the state
    /// root and gas its header declares.
    fn execute_child(
        &self,
        block: Arc<Block>,
        runtime: &mut dyn ContractRuntime,
        sig_cache: &SigCache,
    ) -> Result<BlockRecord, ImportError> {
        let header = &block.header;
        let env = BlockEnv {
            number: header.number,
            timestamp_ns: header.timestamp_ns,
            miner: header.miner,
            gas_limit: header.gas_limit,
        };
        let result =
            execute_block_txs_with(&self.state, &block.transactions, &env, runtime, sig_cache);
        let computed_root = result.state.root();
        if computed_root != header.state_root {
            return Err(ImportError::BadStateRoot {
                declared: header.state_root,
                computed: computed_root,
            });
        }
        if result.gas_used != header.gas_used {
            return Err(ImportError::BadGasUsed {
                declared: header.gas_used,
                computed: result.gas_used,
            });
        }
        Ok(BlockRecord {
            total_difficulty: self.total_difficulty.saturating_add(header.difficulty),
            block,
            state: Arc::new(result.state),
            receipts: result.receipts,
        })
    }
}

/// An in-memory blockchain backed by a run-scoped [`ChainStore`].
///
/// The chain maps each known block's hash to its one shared record — the
/// block, total difficulty, post-state and receipts — which the store
/// memoized when the block was first validated. Chains sharing one store
/// (see [`Blockchain::with_store`]) therefore validate and execute each
/// block once and hold one record per block between them, not one per
/// peer. The memos die with the store handle instead of living for the
/// process. [`Blockchain::fork_at`] branches a new chain off any stored
/// block in O(ancestors) pointer copies.
#[derive(Clone)]
pub struct Blockchain {
    records: HashMap<H256, Arc<BlockRecord>>,
    head: H256,
    genesis: H256,
    store: ChainStore,
}

impl Blockchain {
    /// Creates a chain from a genesis spec with a fresh, private
    /// [`ChainStore`]. Import trusts seals (see [`SealPolicy`]).
    pub fn new(spec: &GenesisSpec) -> Self {
        Self::with_store(spec, SealPolicy::Simulated, ChainStore::new())
    }

    /// Creates a chain backed by an explicit store. Chains constructed from
    /// the same handle share validated blocks and signature verdicts —
    /// this is how one run's peers collapse O(peers) re-execution to one,
    /// without anything leaking past the handle's lifetime.
    pub fn with_store(spec: &GenesisSpec, _seal_policy: SealPolicy, store: ChainStore) -> Self {
        let genesis = BlockRecord::genesis(spec);
        let hash = genesis.block.hash();
        Blockchain {
            records: HashMap::from([(hash, Arc::new(genesis))]),
            head: hash,
            genesis: hash,
            store,
        }
    }

    /// The store backing this chain.
    pub fn store(&self) -> &ChainStore {
        &self.store
    }

    /// The canonical head hash.
    pub fn head(&self) -> H256 {
        self.head
    }

    /// The canonical head block.
    pub fn head_block(&self) -> &Block {
        &self.records[&self.head].block
    }

    /// The genesis hash.
    pub fn genesis(&self) -> H256 {
        self.genesis
    }

    /// Canonical height.
    pub fn height(&self) -> u64 {
        self.head_block().number()
    }

    /// The state at the canonical head.
    pub fn state(&self) -> &State {
        &self.records[&self.head].state
    }

    /// The state after a given block, `None` if the block is unknown.
    pub fn state_at(&self, hash: &H256) -> Option<Arc<State>> {
        self.records.get(hash).map(|r| Arc::clone(&r.state))
    }

    /// A block by hash.
    pub fn block(&self, hash: &H256) -> Option<&Block> {
        self.records.get(hash).map(|r| r.block.as_ref())
    }

    /// A block by hash as a shared handle (no copy), for re-import into a
    /// forked chain or another peer.
    pub fn block_arc(&self, hash: &H256) -> Option<Arc<Block>> {
        self.records.get(hash).map(|r| Arc::clone(&r.block))
    }

    /// Whether a block is known.
    pub fn contains(&self, hash: &H256) -> bool {
        self.records.contains_key(hash)
    }

    /// Receipts of a block's transactions, if the block is known and was
    /// executed (genesis never was).
    pub fn receipts(&self, hash: &H256) -> Option<&[Receipt]> {
        if *hash == self.genesis {
            return None;
        }
        self.records.get(hash).map(|r| r.receipts.as_slice())
    }

    /// Hashes of the canonical chain from genesis to head.
    pub fn canonical_chain(&self) -> Vec<H256> {
        let mut out = Vec::with_capacity(self.height() as usize + 1);
        let mut cursor = self.head;
        loop {
            out.push(cursor);
            if cursor == self.genesis {
                break;
            }
            cursor = self.records[&cursor].block.header.parent;
        }
        out.reverse();
        out
    }

    /// Validates and imports a block, executing its transactions.
    ///
    /// # Errors
    ///
    /// Returns [`ImportError`] describing the first validation failure; the
    /// chain is unchanged on error.
    pub fn import(
        &mut self,
        block: Block,
        runtime: &mut dyn ContractRuntime,
    ) -> Result<ImportOutcome, ImportError> {
        self.import_arc(Arc::new(block), runtime)
    }

    /// [`Blockchain::import`] of a shared block handle — peers re-importing
    /// a gossiped block pass the same `Arc` around instead of cloning the
    /// block per chain.
    ///
    /// # Errors
    ///
    /// Returns [`ImportError`] describing the first validation failure; the
    /// chain is unchanged on error.
    pub fn import_arc(
        &mut self,
        block: Arc<Block>,
        runtime: &mut dyn ContractRuntime,
    ) -> Result<ImportOutcome, ImportError> {
        let hash = block.hash();
        if self.records.contains_key(&hash) {
            return Ok(ImportOutcome::AlreadyKnown);
        }
        let parent = self
            .records
            .get(&block.header.parent)
            .ok_or(ImportError::UnknownParent(block.header.parent))?;

        // A chain sharing this chain's store may already hold this block's
        // record. The memo key commits to the runtime's execution
        // fingerprint, so semantically different runtimes never share
        // records (see `store.rs` for the full soundness argument). A record
        // holding this very allocation proves its header and body passed the
        // checks below; a body swapped under a known header is another
        // allocation and takes them again. The lookup counts as a hit or a
        // miss only once the checks pass.
        let memo_key = (hash, runtime.execution_fingerprint());
        let known = self.store.lookup_exec(&memo_key);
        let validated = known
            .as_ref()
            .is_some_and(|r| Arc::ptr_eq(&r.block, &block));
        if !validated {
            parent.check_header(&block)?;
        }
        self.store.count_exec(known.is_some());
        let record = match known {
            Some(record) => record,
            None => {
                let sig_cache = self.store.sig_cache();
                let record = Arc::new(parent.execute_child(block, runtime, &sig_cache)?);
                self.store.insert_exec(memo_key, Arc::clone(&record));
                record
            }
        };
        let (td, parent_hash) = (record.total_difficulty, record.block.header.parent);
        self.records.insert(hash, record);

        // Fork choice: heaviest total difficulty. Equal-weight forks are
        // broken by the smaller block hash — a deterministic rule, so any two
        // replicas that have seen the same block set agree on the head
        // regardless of arrival order (first-seen tie-keeping would let
        // replicas diverge forever on a tied fork).
        let head_td = self.records[&self.head].total_difficulty;
        if td > head_td || (td == head_td && hash < self.head) {
            let old_head = self.head;
            self.head = hash;
            if parent_hash == old_head {
                Ok(ImportOutcome::Extended)
            } else {
                Ok(ImportOutcome::Reorged { old_head })
            }
        } else {
            Ok(ImportOutcome::SideChain)
        }
    }

    /// Branches a new chain whose head is `hash`: the fork shares this
    /// chain's store (so replaying blocks hits the memo) and the records of
    /// every ancestor of `hash` (`Arc` pointer copies — no block, state or
    /// receipt is cloned), and nothing else. Use it to replay an alternative
    /// suffix — e.g. re-run the tail of a finished run under a different
    /// aggregation strategy — without re-executing the shared prefix.
    ///
    /// Returns `None` if `hash` is unknown.
    pub fn fork_at(&self, hash: &H256) -> Option<Blockchain> {
        let mut records = HashMap::new();
        let mut cursor = *hash;
        loop {
            let record = self.records.get(&cursor)?;
            records.insert(cursor, Arc::clone(record));
            if cursor == self.genesis {
                break;
            }
            cursor = record.block.header.parent;
        }
        Some(Blockchain {
            records,
            head: *hash,
            genesis: self.genesis,
            store: self.store.clone(),
        })
    }

    /// Builds an unsealed candidate block on the current head: executes `txs`
    /// and fills in roots and gas. Its difficulty is the Homestead step
    /// ([`pow::next_difficulty`]) from the head's over the head-to-candidate
    /// interval; a run's [`crate::DifficultyController`] sets the race
    /// difficulty its sealing draws use, not this header field. The
    /// simulated mining race decides when and whether it is imported.
    pub fn build_candidate(
        &self,
        miner: blockfed_crypto::H160,
        txs: Vec<Transaction>,
        timestamp_ns: u64,
        runtime: &mut dyn ContractRuntime,
    ) -> Block {
        let parent = self.head_block();
        let interval = timestamp_ns.saturating_sub(parent.header.timestamp_ns);
        let env = BlockEnv {
            number: parent.header.number + 1,
            timestamp_ns,
            miner,
            gas_limit: parent.header.gas_limit,
        };
        let result =
            execute_block_txs_with(self.state(), &txs, &env, runtime, &self.store.sig_cache());
        let header = Header {
            parent: self.head,
            number: parent.header.number + 1,
            timestamp_ns,
            miner,
            difficulty: pow::next_difficulty(parent.header.difficulty, interval),
            nonce: 0,
            tx_root: Block::compute_tx_root(&txs),
            state_root: result.state.root(),
            gas_used: result.gas_used,
            gas_limit: parent.header.gas_limit,
        };
        Block {
            header,
            transactions: txs,
        }
    }
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("height", &self.height())
            .field("head", &self.head)
            .field("blocks", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::NullRuntime;
    use blockfed_crypto::{KeyPair, H160};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(seed))
    }

    fn low_difficulty_chain(accounts: &[H160]) -> Blockchain {
        let spec = GenesisSpec::with_accounts(accounts, 1_000_000_000).with_difficulty(16);
        Blockchain::new(&spec)
    }

    fn candidate(chain: &Blockchain, miner: H160, txs: Vec<Transaction>, ts: u64) -> Block {
        chain.build_candidate(miner, txs, ts, &mut NullRuntime)
    }

    #[test]
    fn genesis_is_the_initial_head() {
        let chain = low_difficulty_chain(&[]);
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.head(), chain.genesis());
        assert_eq!(chain.canonical_chain().len(), 1);
        assert_eq!(chain.receipts(&chain.genesis()), None);
    }

    #[test]
    fn import_extends_head_and_executes() {
        let k = key(1);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let recipient = key(2).address();
        let tx = Transaction::transfer(k.address(), recipient, 77, 0).signed(&k);
        let block = candidate(&chain, k.address(), vec![tx], 13_000_000_000);
        let outcome = chain.import(block, &mut NullRuntime).unwrap();
        assert_eq!(outcome, ImportOutcome::Extended);
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.state().balance(&recipient), 77);
        let receipts = chain.receipts(&chain.head()).unwrap();
        assert_eq!(receipts.len(), 1);
        assert!(receipts[0].is_success());
    }

    #[test]
    fn duplicate_import_is_noop() {
        let k = key(3);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let block = candidate(&chain, k.address(), vec![], 1_000);
        chain.import(block.clone(), &mut NullRuntime).unwrap();
        assert_eq!(
            chain.import(block, &mut NullRuntime),
            Ok(ImportOutcome::AlreadyKnown)
        );
    }

    #[test]
    fn orphans_are_rejected() {
        let k = key(4);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let mut block = candidate(&chain, k.address(), vec![], 1_000);
        block.header.parent = blockfed_crypto::sha256::sha256(b"nowhere");
        assert!(matches!(
            chain.import(block, &mut NullRuntime),
            Err(ImportError::UnknownParent(_))
        ));
    }

    #[test]
    fn simulated_policy_skips_seal_check() {
        let k = key(6);
        let spec = GenesisSpec::with_accounts(&[k.address()], 1_000).with_difficulty(u128::MAX / 2);
        let mut chain = Blockchain::new(&spec);
        let block = chain.build_candidate(k.address(), vec![], 1_000, &mut NullRuntime);
        assert_eq!(
            chain.import(block, &mut NullRuntime),
            Ok(ImportOutcome::Extended)
        );
    }

    #[test]
    fn tampered_state_root_rejected() {
        let k = key(7);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let mut block = candidate(&chain, k.address(), vec![], 1_000);
        block.header.state_root = blockfed_crypto::sha256::sha256(b"fake");
        assert!(matches!(
            chain.import(block, &mut NullRuntime),
            Err(ImportError::BadStateRoot { .. })
        ));
    }

    #[test]
    fn execution_memo_never_crosses_runtime_semantics() {
        // A runtime whose contract calls credit a sink account — semantics
        // that diverge from NullRuntime's no-op the moment a contract runs.
        struct CreditRuntime;
        impl ContractRuntime for CreditRuntime {
            fn execute(
                &mut self,
                _ctx: &CallContext,
                _code: &[u8],
                state: &mut State,
            ) -> crate::runtime::ExecOutcome {
                state.credit(H160::from_bytes([0xCC; 20]), 7);
                crate::runtime::ExecOutcome::ok()
            }
            fn execution_fingerprint(&self) -> u64 {
                0xC4ED17
            }
        }
        use crate::runtime::CallContext;

        let k = key(21);
        let contract = H160::from_bytes([0xAA; 20]);
        let spec = GenesisSpec::with_accounts(&[k.address()], 1_000_000_000)
            .with_difficulty(16)
            .with_code(contract, vec![0x01]);
        let tx = Transaction::call(k.address(), contract, vec![], 0)
            .with_gas_limit(1_000_000)
            .signed(&k);

        // Build + import under CreditRuntime: validated, hence memoized in
        // the shared store.
        let store = ChainStore::new();
        let mut crediting = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
        let block = crediting.build_candidate(k.address(), vec![tx], 1_000, &mut CreditRuntime);
        crediting
            .import(block.clone(), &mut CreditRuntime)
            .expect("valid under its own runtime");
        assert_eq!(crediting.state().balance(&H160::from_bytes([0xCC; 20])), 7);

        // The identical block under NullRuntime re-executes (no memo hit for
        // a different fingerprint, even on the same store) and must fail its
        // own state-root check — not silently adopt the crediting runtime's
        // state.
        let mut nulled = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
        assert!(matches!(
            nulled.import(block, &mut NullRuntime),
            Err(ImportError::BadStateRoot { .. })
        ));
    }

    #[test]
    fn chains_sharing_a_store_execute_each_block_once() {
        let k = key(22);
        let store = ChainStore::new();
        let spec = GenesisSpec::with_accounts(&[k.address()], 1_000_000_000).with_difficulty(16);
        let mut a = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
        let mut b = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
        let tx = Transaction::transfer(k.address(), k.address(), 1, 0).signed(&k);
        let block = Arc::new(a.build_candidate(k.address(), vec![tx], 1_000, &mut NullRuntime));
        a.import_arc(Arc::clone(&block), &mut NullRuntime).unwrap();
        let base = store.counters();
        b.import_arc(block, &mut NullRuntime).unwrap();
        let d = store.counters().since(&base);
        assert_eq!(d.exec_hits, 1, "peer B must reuse peer A's execution");
        assert_eq!(d.exec_misses, 0);
        assert_eq!(a.state().root(), b.state().root());
    }

    #[test]
    fn fresh_stores_are_isolated() {
        // The regression the store exists to allow: chains with private
        // stores share nothing, so one run can never observe another's
        // cached executions (the old process-wide memo made that possible).
        let k = key(23);
        let spec = GenesisSpec::with_accounts(&[k.address()], 1_000_000_000).with_difficulty(16);
        let mut a = Blockchain::new(&spec);
        let block = Arc::new(a.build_candidate(k.address(), vec![], 1_000, &mut NullRuntime));
        a.import_arc(Arc::clone(&block), &mut NullRuntime).unwrap();
        assert_eq!(a.store().exec_entries(), 1);

        let mut b = Blockchain::new(&spec);
        b.import_arc(block, &mut NullRuntime).unwrap();
        let c = b.store().counters();
        assert_eq!(c.exec_hits, 0, "a private store cannot see other runs");
        assert_eq!(c.exec_misses, 1);
    }

    #[test]
    fn tampered_tx_root_rejected() {
        let k = key(8);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let tx = Transaction::transfer(k.address(), k.address(), 1, 0).signed(&k);
        let mut block = candidate(&chain, k.address(), vec![tx], 1_000);
        block.transactions.clear();
        assert_eq!(
            chain.import(block, &mut NullRuntime),
            Err(ImportError::BadTxRoot)
        );
    }

    #[test]
    fn a_memo_hit_skips_the_checks_only_for_the_validated_allocation() {
        let k = key(24);
        let store = ChainStore::new();
        let spec = GenesisSpec::with_accounts(&[k.address()], 1_000_000_000).with_difficulty(16);
        let mut a = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
        let mut b = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
        let tx = Transaction::transfer(k.address(), k.address(), 1, 0).signed(&k);
        let block = Arc::new(a.build_candidate(k.address(), vec![tx], 1_000, &mut NullRuntime));
        a.import_arc(Arc::clone(&block), &mut NullRuntime).unwrap();

        // The known header over an emptied body, in a new allocation: the
        // memo holds a record for the hash, but not for this body.
        let base = store.counters();
        let mut swapped = Block::clone(&block);
        swapped.transactions.clear();
        assert_eq!(swapped.hash(), block.hash());
        assert_eq!(
            b.import_arc(Arc::new(swapped), &mut NullRuntime),
            Err(ImportError::BadTxRoot)
        );
        let d = store.counters().since(&base);
        assert_eq!((d.exec_hits, d.exec_misses), (0, 0));

        // An equal-content clone passes the full checks, then hits.
        let base = store.counters();
        let clone = Arc::new(Block::clone(&block));
        assert_eq!(
            b.import_arc(clone, &mut NullRuntime),
            Ok(ImportOutcome::Extended)
        );
        let d = store.counters().since(&base);
        assert_eq!((d.exec_hits, d.exec_misses), (1, 0));
        assert_eq!(b.state().root(), a.state().root());

        // A's own allocation is the block B now knows.
        assert_eq!(
            b.import_arc(block, &mut NullRuntime),
            Ok(ImportOutcome::AlreadyKnown)
        );
    }

    #[test]
    fn bad_number_and_timestamp_rejected() {
        let k = key(9);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let mut wrong_number = candidate(&chain, k.address(), vec![], 1_000);
        wrong_number.header.number = 7;
        assert!(matches!(
            chain.import(wrong_number, &mut NullRuntime),
            Err(ImportError::BadNumber {
                expected: 1,
                got: 7
            })
        ));

        let mut stale_ts = candidate(&chain, k.address(), vec![], 1_000);
        stale_ts.header.timestamp_ns = 0; // genesis is 0; must be strictly greater
        assert_eq!(
            chain.import(stale_ts, &mut NullRuntime),
            Err(ImportError::BadTimestamp)
        );
    }

    #[test]
    fn fork_choice_prefers_heavier_chain_and_reorgs() {
        let k = key(10);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let genesis = chain.head();

        // Block A extends genesis; becomes head.
        let block_a = candidate(&chain, k.address(), vec![], 1_000);
        let a_hash = block_a.hash();
        chain.import(block_a, &mut NullRuntime).unwrap();
        assert_eq!(chain.head(), a_hash);

        // Competing block B also on genesis with equal TD. The tie goes to
        // the smaller hash, so pick B's nonce to make it the loser: it must
        // land on a side chain.
        let mut block_b = Block {
            header: Header {
                parent: genesis,
                number: 1,
                timestamp_ns: 2_000,
                miner: k.address(),
                difficulty: chain.block(&a_hash).unwrap().header.difficulty,
                nonce: 0,
                tx_root: H256::zero(),
                state_root: chain.state_at(&genesis).unwrap().root(),
                gas_used: 0,
                gas_limit: chain.head_block().header.gas_limit,
            },
            transactions: vec![],
        };
        while block_b.hash() < a_hash {
            block_b.header.nonce += 1;
        }
        let b_hash = block_b.hash();
        assert_eq!(
            chain.import(block_b, &mut NullRuntime),
            Ok(ImportOutcome::SideChain)
        );
        assert_eq!(chain.head(), a_hash);

        // Extend B: the B-branch becomes heavier and triggers a reorg. The
        // parent is only read to fill in the header, so borrow it in place
        // instead of cloning the whole block.
        let parent_b = chain.block(&b_hash).unwrap();
        let block_c = Block {
            header: Header {
                parent: b_hash,
                number: 2,
                timestamp_ns: 3_000,
                miner: k.address(),
                difficulty: pow::next_difficulty(parent_b.header.difficulty, 1_000),
                nonce: 0,
                tx_root: H256::zero(),
                state_root: chain.state_at(&b_hash).unwrap().root(),
                gas_used: 0,
                gas_limit: parent_b.header.gas_limit,
            },
            transactions: vec![],
        };
        let outcome = chain.import(block_c, &mut NullRuntime).unwrap();
        assert_eq!(outcome, ImportOutcome::Reorged { old_head: a_hash });
        assert_eq!(chain.height(), 2);
        let canon = chain.canonical_chain();
        assert!(canon.contains(&b_hash));
        assert!(!canon.contains(&a_hash));
    }

    #[test]
    fn difficulty_retargets_along_the_chain() {
        let k = key(12);
        let mut chain = low_difficulty_chain(&[k.address()]);
        // Fast blocks (1 ms apart) push difficulty up from 16.
        let mut last_difficulty = 16u128;
        for i in 1..=5u64 {
            let b = candidate(&chain, k.address(), vec![], i * 1_000_000);
            assert!(b.header.difficulty >= last_difficulty);
            last_difficulty = b.header.difficulty;
            chain.import(b, &mut NullRuntime).unwrap();
        }
    }

    #[test]
    fn homestead_candidate_difficulty_matches_pow_helper() {
        let k = key(33);
        let mut chain = low_difficulty_chain(&[k.address()]);
        let b1 = candidate(&chain, k.address(), vec![], 1_000);
        chain.import(b1, &mut NullRuntime).unwrap();
        let parent = chain.head_block().header.clone();
        let ts = parent.timestamp_ns + 5_000_000_000;
        let candidate = chain.build_candidate(k.address(), vec![], ts, &mut NullRuntime);
        assert_eq!(
            candidate.header.difficulty,
            pow::next_difficulty(parent.difficulty, ts - parent.timestamp_ns)
        );
    }

    fn transfer_spec(k: &KeyPair) -> GenesisSpec {
        GenesisSpec::with_accounts(&[k.address()], 1_000_000_000).with_difficulty(16)
    }

    /// Builds a chain of `n` simulated blocks, each carrying one transfer,
    /// so every block's state differs from its parent's.
    fn transfer_chain(k: &KeyPair, n: u64) -> Blockchain {
        let mut chain = Blockchain::new(&transfer_spec(k));
        for i in 0..n {
            let tx = Transaction::transfer(k.address(), key(99).address(), 1, i).signed(k);
            let b = chain.build_candidate(k.address(), vec![tx], (i + 1) * 1_000, &mut NullRuntime);
            chain.import(b, &mut NullRuntime).unwrap();
        }
        chain
    }

    #[test]
    fn state_at_is_one_shared_state_per_block() {
        let k = key(40);
        let mut chain = transfer_chain(&k, 7);
        let canon = chain.canonical_chain();
        // A side-chain block at height 5, lighter than the height-7 head.
        let tx = Transaction::transfer(k.address(), key(98).address(), 5, 4).signed(&k);
        let side = chain.fork_at(&canon[4]).unwrap().build_candidate(
            k.address(),
            vec![tx],
            4_500,
            &mut NullRuntime,
        );
        let side_hash = side.hash();
        assert_eq!(
            chain.import(side, &mut NullRuntime),
            Ok(ImportOutcome::SideChain)
        );
        for hash in canon.iter().chain([&side_hash]) {
            let declared = chain.block(hash).unwrap().header.state_root;
            assert_eq!(
                chain.state_at(hash).unwrap().root(),
                declared,
                "state at {hash}"
            );
        }
        // A peer on the same store holds the very state the store memoized,
        // not a copy of its own.
        let mut peer = Blockchain::with_store(
            &transfer_spec(&k),
            SealPolicy::Simulated,
            chain.store().clone(),
        );
        for hash in canon[1..].iter().chain([&side_hash]) {
            peer.import_arc(chain.block_arc(hash).unwrap(), &mut NullRuntime)
                .unwrap();
        }
        // So does a fork of either: the block, its state and its receipts
        // are one allocation each across peers and forks.
        let fork = peer.fork_at(&side_hash).unwrap();
        for (view, height) in [(&peer, canon.len()), (&fork, 5)] {
            for hash in canon[1..height].iter().chain([&side_hash]) {
                assert!(
                    Arc::ptr_eq(
                        &view.state_at(hash).unwrap(),
                        &chain.state_at(hash).unwrap()
                    ),
                    "state at {hash} is a per-peer copy"
                );
                assert!(
                    Arc::ptr_eq(
                        &view.block_arc(hash).unwrap(),
                        &chain.block_arc(hash).unwrap()
                    ),
                    "block {hash} is a per-peer copy"
                );
                let (mine, theirs) = (view.receipts(hash).unwrap(), chain.receipts(hash).unwrap());
                assert!(!mine.is_empty());
                assert!(
                    std::ptr::eq(mine, theirs),
                    "receipts of {hash} are a per-peer copy"
                );
            }
        }
    }

    #[test]
    fn fork_at_branches_share_prefix_and_diverge() {
        let k = key(41);
        let chain = transfer_chain(&k, 4);
        let canon = chain.canonical_chain();
        let fork_point = canon[2];

        let mut fork = chain.fork_at(&fork_point).expect("known block");
        assert_eq!(fork.head(), fork_point);
        assert_eq!(fork.height(), 2);
        assert_eq!(
            fork.state().root(),
            chain.state_at(&fork_point).unwrap().root()
        );
        // Blocks above the fork point are not in the fork.
        assert!(!fork.contains(&canon[3]));

        // Replaying the original suffix converges the fork on the same head
        // without re-executing (shared store serves the memo hits).
        let base = chain.store().counters();
        for hash in &canon[3..] {
            let block = chain.block_arc(hash).unwrap();
            fork.import_arc(block, &mut NullRuntime).unwrap();
        }
        assert_eq!(fork.head(), chain.head());
        assert_eq!(fork.state().root(), chain.state().root());
        let d = chain.store().counters().since(&base);
        assert_eq!(d.exec_misses, 0, "replay must hit the shared memo");
        assert_eq!(d.exec_hits, 2);

        // Diverging instead: a different block at height 3 reorgs the fork
        // independently of the original chain.
        let mut fork2 = chain.fork_at(&fork_point).unwrap();
        let tx = Transaction::transfer(k.address(), key(98).address(), 5, 2).signed(&k);
        let alt = fork2.build_candidate(k.address(), vec![tx], 999_000, &mut NullRuntime);
        fork2.import(alt, &mut NullRuntime).unwrap();
        assert_eq!(fork2.height(), 3);
        assert_ne!(fork2.head(), canon[3]);
        assert_eq!(chain.head(), *canon.last().unwrap(), "original untouched");
        assert!(!chain.contains(&fork2.head()), "fork block stays private");
    }

    #[test]
    fn cloned_chains_are_independent_views_over_shared_storage() {
        let k = key(44);
        let mut chain = transfer_chain(&k, 3);
        let snapshot = chain.clone();
        let tx = Transaction::transfer(k.address(), key(99).address(), 1, 3).signed(&k);
        let b = chain.build_candidate(k.address(), vec![tx], 100_000, &mut NullRuntime);
        chain.import(b, &mut NullRuntime).unwrap();
        assert_eq!(chain.height(), 4);
        assert_eq!(snapshot.height(), 3, "clone keeps its own head");
        assert_eq!(
            snapshot.state().root(),
            chain.state_at(&snapshot.head()).unwrap().root()
        );
    }
}
