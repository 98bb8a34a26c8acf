//! The chain store: a run-scoped handle that memoizes validated blocks and
//! Schnorr signature verdicts for every chain sharing it.
//!
//! In a simulated network every peer re-executes the identical block on the
//! identical parent state and re-verifies the identical gossiped
//! transaction — O(peers) copies of the same deterministic work. The memos
//! that collapse this used to be process-wide statics, which meant a matrix
//! of hundreds of cells (or a long-lived service embedding thousands of
//! runs) leaked every validated block and signature verdict it ever saw.
//! A [`ChainStore`] scopes the same sharing to an explicit handle instead:
//!
//! * one handle is shared by every chain of one run (the orchestrator clones
//!   it into each peer's [`crate::Blockchain`] and [`crate::Mempool`]);
//! * the block memo holds one `Arc`'d record per validated block — the block,
//!   its hash, total difficulty, post-state and receipts — and every chain
//!   sharing the store keeps that same record, so the run's peers hold one
//!   copy of each between them;
//! * dropping the last handle frees everything — nothing outlives the run;
//! * entries are **epoch-scoped**: [`ChainStore::begin_epoch`] advances the
//!   store's epoch and evicts entries not touched within the last full
//!   epoch, so sequential runs that share a handle (fork replay, memcheck)
//!   reuse the previous run's work without accumulating unboundedly;
//! * hard caps (8,192 blocks, 65,536 verdicts) bound growth *within* an
//!   epoch — on overflow the map is flushed wholesale, a deterministic
//!   policy (the memo is a pure cache: a miss only costs re-execution). A
//!   flush frees no record a chain still holds.
//!
//! Soundness is inherited from the keys. A block entry is keyed by
//! `(block hash, runtime execution fingerprint)`: the block hash commits to
//! the parent (hence, inductively, the parent state), the transaction root,
//! and the resulting `state_root`, so one chain's validated result is every
//! chain's result *under the same execution semantics*, and the runtime's
//! [`crate::ContractRuntime::execution_fingerprint`] keeps semantically
//! different runtimes from ever sharing entries. A signature entry is the
//! transaction hash, which covers the signature bytes; only *successful*
//! verdicts are stored, so tampering (which changes the hash) always
//! re-verifies from scratch.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use blockfed_crypto::H256;

use crate::chain::BlockRecord;

/// Validated blocks kept per epoch before the memo is flushed.
const MAX_EXEC_ENTRIES: usize = 8_192;
/// Signature verdicts kept per epoch before the memo is flushed.
const MAX_SIG_ENTRIES: usize = 65_536;
/// How many epochs an untouched entry survives: entries touched in epoch
/// `e` are evicted at the start of epoch `e + 2` — one full epoch of grace,
/// so a replay immediately following a run still hits its memos.
const KEEP_EPOCHS: u64 = 1;

/// A snapshot of a store's deterministic meters. Within one single-threaded
/// run the counts are exact and reproducible; fold deltas (see
/// [`StoreCounters::since`]) rather than absolutes when a store is shared
/// across sequential runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Block executions served from the memo.
    pub exec_hits: u64,
    /// Block executions that had to run (and were then memoized).
    pub exec_misses: u64,
    /// Signature verdicts served from the memo.
    pub sig_hits: u64,
    /// Signatures that had to be verified (successes are then memoized).
    pub sig_misses: u64,
    /// Execution entries dropped by epoch eviction or cap overflow.
    pub exec_evicted: u64,
    /// Signature entries dropped by epoch eviction or cap overflow.
    pub sig_evicted: u64,
}

impl StoreCounters {
    /// The per-field difference `self - base` (saturating): the meters one
    /// run contributed when `base` was snapshotted at its start.
    pub fn since(&self, base: &StoreCounters) -> StoreCounters {
        StoreCounters {
            exec_hits: self.exec_hits.saturating_sub(base.exec_hits),
            exec_misses: self.exec_misses.saturating_sub(base.exec_misses),
            sig_hits: self.sig_hits.saturating_sub(base.sig_hits),
            sig_misses: self.sig_misses.saturating_sub(base.sig_misses),
            exec_evicted: self.exec_evicted.saturating_sub(base.exec_evicted),
            sig_evicted: self.sig_evicted.saturating_sub(base.sig_evicted),
        }
    }
}

/// One epoch-stamped, cap-flushed memo map and its meters. Each value
/// carries the epoch of its last touch (insert or hit), re-stamped through
/// the read lock.
struct Memo<K, V> {
    map: RwLock<HashMap<K, (V, AtomicU64)>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    fn new(cap: usize) -> Self {
        Memo {
            map: RwLock::new(HashMap::new()),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<K, (V, AtomicU64)>> {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<K, (V, AtomicU64)>> {
        self.map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn len(&self) -> usize {
        self.read().len()
    }

    /// The value under `key`, re-stamped with `epoch`. Counts nothing: the
    /// caller reports the lookup through [`Memo::count`].
    fn get(&self, key: &K, epoch: u64) -> Option<V> {
        let map = self.read();
        let (value, stamp) = map.get(key)?;
        stamp.store(epoch, Ordering::Relaxed);
        Some(value.clone())
    }

    fn count(&self, hit: bool) {
        let meter = if hit { &self.hits } else { &self.misses };
        meter.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts `value` stamped with `epoch`, flushing the map first if it is
    /// at capacity.
    fn insert(&self, key: K, value: V, epoch: u64) {
        let mut map = self.write();
        if map.len() >= self.cap {
            self.evicted.fetch_add(map.len() as u64, Ordering::Relaxed);
            map.clear();
        }
        map.insert(key, (value, AtomicU64::new(epoch)));
    }

    /// Evicts every entry last touched before epoch `cutoff`.
    fn evict_before(&self, cutoff: u64) {
        let mut map = self.write();
        let before = map.len();
        map.retain(|_, (_, stamp)| stamp.load(Ordering::Relaxed) >= cutoff);
        self.evicted
            .fetch_add((before - map.len()) as u64, Ordering::Relaxed);
    }
}

struct StoreInner {
    epoch: AtomicU64,
    exec: Memo<(H256, u64), Arc<BlockRecord>>,
    sig: Memo<H256, ()>,
}

impl Default for StoreInner {
    fn default() -> Self {
        StoreInner {
            epoch: AtomicU64::new(0),
            exec: Memo::new(MAX_EXEC_ENTRIES),
            sig: Memo::new(MAX_SIG_ENTRIES),
        }
    }
}

impl StoreInner {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

/// An epoch-scoped, bounded store of validated blocks and signature
/// verdicts, shared (cheap [`Clone`] of an `Arc`) by every chain of one run
/// and dropped with it.
///
/// # Examples
///
/// ```
/// use blockfed_chain::ChainStore;
///
/// let store = ChainStore::new();
/// assert_eq!(store.exec_entries(), 0);
/// store.begin_epoch(); // a run starts: epoch 1
/// assert_eq!(store.epoch(), 1);
/// ```
#[derive(Clone, Default)]
pub struct ChainStore {
    inner: Arc<StoreInner>,
}

impl ChainStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        ChainStore::default()
    }

    /// The current epoch (0 until the first [`ChainStore::begin_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Advances the epoch and evicts every entry not touched in the
    /// previous one. A run calls this once at start, so sequential runs
    /// sharing a handle keep exactly the previous run's entries warm while
    /// everything older ages out.
    pub fn begin_epoch(&self) {
        let epoch = self.inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let cutoff = epoch.saturating_sub(KEEP_EPOCHS);
        if cutoff > 0 {
            self.inner.exec.evict_before(cutoff);
            self.inner.sig.evict_before(cutoff);
        }
    }

    /// Number of memoized blocks.
    pub fn exec_entries(&self) -> usize {
        self.inner.exec.len()
    }

    /// Number of memoized signature verdicts.
    pub fn sig_entries(&self) -> usize {
        self.inner.sig.len()
    }

    /// A snapshot of the store's meters.
    pub fn counters(&self) -> StoreCounters {
        let (exec, sig) = (&self.inner.exec, &self.inner.sig);
        let load = |meter: &AtomicU64| meter.load(Ordering::Relaxed);
        StoreCounters {
            exec_hits: load(&exec.hits),
            exec_misses: load(&exec.misses),
            sig_hits: load(&sig.hits),
            sig_misses: load(&sig.misses),
            exec_evicted: load(&exec.evicted),
            sig_evicted: load(&sig.evicted),
        }
    }

    /// A signature-verdict cache handle backed by this store, for
    /// [`crate::Mempool::with_sig_cache`] and the block executor.
    pub fn sig_cache(&self) -> SigCache {
        SigCache {
            inner: Some(Arc::clone(&self.inner)),
        }
    }

    /// The memoized record under `key`, re-stamping its epoch. The importer
    /// counts the lookup with [`ChainStore::count_exec`] once the header
    /// checks pass, so a block they reject moves no meter.
    pub(crate) fn lookup_exec(&self, key: &(H256, u64)) -> Option<Arc<BlockRecord>> {
        self.inner.exec.get(key, self.inner.epoch())
    }

    /// Counts one block lookup as a hit or a miss.
    pub(crate) fn count_exec(&self, hit: bool) {
        self.inner.exec.count(hit);
    }

    /// Memoizes a validated record, flushing the map first if it is at
    /// capacity.
    pub(crate) fn insert_exec(&self, key: (H256, u64), record: Arc<BlockRecord>) {
        self.inner.exec.insert(key, record, self.inner.epoch());
    }
}

impl std::fmt::Debug for ChainStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainStore")
            .field("epoch", &self.epoch())
            .field("exec_entries", &self.exec_entries())
            .field("sig_entries", &self.sig_entries())
            .finish()
    }
}

/// A handle to a store's signature-verdict memo — or a disabled no-op cache
/// ([`SigCache::disabled`], the [`Default`]) under which every verification
/// runs from scratch.
///
/// Only *successful* verdicts are recorded, keyed by the transaction hash
/// (which covers the signature bytes), so a cached `Ok` is as strong as a
/// fresh verification and failures always re-verify.
#[derive(Clone, Default)]
pub struct SigCache {
    inner: Option<Arc<StoreInner>>,
}

impl std::fmt::Debug for SigCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigCache")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl SigCache {
    /// A cache that never hits and never records: plain verification.
    pub fn disabled() -> Self {
        SigCache::default()
    }

    /// Whether this handle is backed by a store.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `hash` has a recorded successful verdict; counts a hit or a
    /// miss and re-stamps the entry's epoch on hit. Always `false` when
    /// disabled (without counting).
    pub(crate) fn check(&self, hash: &H256) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let hit = inner.sig.get(hash, inner.epoch()).is_some();
        inner.sig.count(hit);
        hit
    }

    /// Records a successful verdict (no-op when disabled), flushing the map
    /// first if it is at capacity.
    pub(crate) fn record(&self, hash: H256) {
        if let Some(inner) = &self.inner {
            inner.sig.insert(hash, (), inner.epoch());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u8) -> H256 {
        blockfed_crypto::sha256::sha256(&[n])
    }

    fn entry() -> Arc<BlockRecord> {
        Arc::new(BlockRecord::genesis(&crate::GenesisSpec::default()))
    }

    /// Looks `key` up and counts the outcome, as an import whose checks
    /// pass does.
    fn lookup(store: &ChainStore, key: &(H256, u64)) -> Option<Arc<BlockRecord>> {
        let found = store.lookup_exec(key);
        store.count_exec(found.is_some());
        found
    }

    #[test]
    fn epoch_eviction_keeps_one_epoch_of_grace() {
        let store = ChainStore::new();
        store.begin_epoch(); // epoch 1
        store.insert_exec((h(1), 0), entry());
        let cache = store.sig_cache();
        cache.record(h(2));
        assert_eq!(store.exec_entries(), 1);
        assert_eq!(store.sig_entries(), 1);

        // Epoch 2: entries from epoch 1 survive (`KEEP_EPOCHS` = 1).
        store.begin_epoch();
        assert_eq!(store.exec_entries(), 1);
        assert_eq!(store.sig_entries(), 1);

        // Epoch 3 without any touch: epoch-1 stamps age out.
        store.begin_epoch();
        assert_eq!(store.exec_entries(), 0);
        assert_eq!(store.sig_entries(), 0);
        let c = store.counters();
        assert_eq!(c.exec_evicted, 1);
        assert_eq!(c.sig_evicted, 1);
    }

    #[test]
    fn hits_restamp_and_keep_entries_alive() {
        let store = ChainStore::new();
        store.begin_epoch();
        store.insert_exec((h(1), 0), entry());
        for _ in 0..5 {
            store.begin_epoch();
            // Touch it every epoch: never evicted.
            assert!(lookup(&store, &(h(1), 0)).is_some());
        }
        assert_eq!(store.exec_entries(), 1);
        let c = store.counters();
        assert_eq!(c.exec_hits, 5);
        assert_eq!(c.exec_evicted, 0);
    }

    #[test]
    fn caps_flush_wholesale() {
        let store = ChainStore::new();
        let record = entry();
        // One past the cap: the last insert flushes the map, then inserts.
        for i in 0..=MAX_EXEC_ENTRIES as u64 {
            store.insert_exec((h(1), i), Arc::clone(&record));
        }
        assert_eq!(store.exec_entries(), 1);
        assert_eq!(store.counters().exec_evicted, MAX_EXEC_ENTRIES as u64);

        let cache = store.sig_cache();
        for i in 0..=MAX_SIG_ENTRIES as u64 {
            let mut bytes = [0u8; 32];
            bytes[..8].copy_from_slice(&i.to_le_bytes());
            cache.record(H256::from_bytes(bytes));
        }
        assert_eq!(store.sig_entries(), 1);
        assert_eq!(store.counters().sig_evicted, MAX_SIG_ENTRIES as u64);
    }

    #[test]
    fn disabled_sig_cache_never_hits_or_counts() {
        let cache = SigCache::disabled();
        assert!(!cache.is_enabled());
        assert!(!cache.check(&h(1)));
        cache.record(h(1));
        assert!(!cache.check(&h(1)));
    }

    #[test]
    fn counters_delta_via_since() {
        let store = ChainStore::new();
        store.insert_exec((h(1), 0), entry());
        let _ = lookup(&store, &(h(1), 0));
        let base = store.counters();
        let _ = lookup(&store, &(h(1), 0));
        let _ = lookup(&store, &(h(9), 0));
        let d = store.counters().since(&base);
        assert_eq!(d.exec_hits, 1);
        assert_eq!(d.exec_misses, 1);
    }

    #[test]
    fn handles_share_one_store() {
        let a = ChainStore::new();
        let b = a.clone();
        a.insert_exec((h(7), 0), entry());
        assert_eq!(b.exec_entries(), 1);
        drop(a);
        assert_eq!(b.exec_entries(), 1, "surviving handle keeps the data");
    }
}
