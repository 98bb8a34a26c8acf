//! The chain store: a run-scoped handle that memoizes validated block
//! executions and Schnorr signature verdicts for every chain sharing it.
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
//! * a chain keeps each block's post-state as the `Arc<State>` the execution
//!   memo holds, so the run's peers share one state per block;
//! * dropping the last handle frees everything — nothing outlives the run;
//! * entries are **epoch-scoped**: [`ChainStore::begin_epoch`] advances the
//!   store's epoch and evicts entries not touched within
//!   [`StoreLimits::keep_epochs`] epochs, so sequential runs that share a
//!   handle (fork replay, memcheck) reuse the previous run's work without
//!   accumulating unboundedly;
//! * hard caps ([`StoreLimits::max_exec_entries`],
//!   [`StoreLimits::max_sig_entries`]) bound growth *within* an epoch — on
//!   overflow the map is flushed wholesale, a deterministic policy (the memo
//!   is a pure cache: a miss only costs re-execution). A flush frees no
//!   state a chain still holds.
//!
//! Soundness is inherited from the keys. An execution entry is keyed by
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use blockfed_crypto::H256;

use crate::receipt::Receipt;
use crate::state::State;

/// Capacity and retention policy of a [`ChainStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLimits {
    /// Hard cap on memoized block executions; exceeding it within one epoch
    /// flushes the execution memo (deterministically — the memo is a cache).
    pub max_exec_entries: usize,
    /// Hard cap on memoized signature verdicts; same flush-on-overflow
    /// policy.
    pub max_sig_entries: usize,
    /// How many epochs an untouched entry survives. With the default of 1,
    /// entries touched in epoch `e` are evicted at the start of epoch
    /// `e + 2` — one full epoch of grace, so a replay immediately following
    /// a run still hits its memos.
    pub keep_epochs: u64,
}

impl Default for StoreLimits {
    fn default() -> Self {
        StoreLimits {
            max_exec_entries: 8_192,
            max_sig_entries: 65_536,
            keep_epochs: 1,
        }
    }
}

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

/// A memoized block execution: the post-state and the receipts. Every chain
/// sharing the store keeps this same `Arc<State>` as the block's state.
pub(crate) type ExecEntry = (Arc<State>, Arc<Vec<Receipt>>);

struct ExecSlot {
    entry: ExecEntry,
    /// Epoch of the last touch (insert or hit); re-stamped through the read
    /// lock on every hit.
    epoch: AtomicU64,
}

struct StoreInner {
    limits: StoreLimits,
    epoch: AtomicU64,
    exec: RwLock<HashMap<(H256, u64), ExecSlot>>,
    sig: RwLock<HashMap<H256, AtomicU64>>,
    exec_hits: AtomicU64,
    exec_misses: AtomicU64,
    sig_hits: AtomicU64,
    sig_misses: AtomicU64,
    exec_evicted: AtomicU64,
    sig_evicted: AtomicU64,
}

impl StoreInner {
    fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        lock.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        lock.write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// An epoch-scoped, bounded store of validated block executions and
/// signature verdicts, shared (cheap [`Clone`] of an `Arc`) by every chain
/// of one run and dropped with it.
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

impl Default for StoreInner {
    fn default() -> Self {
        StoreInner {
            limits: StoreLimits::default(),
            epoch: AtomicU64::new(0),
            exec: RwLock::new(HashMap::new()),
            sig: RwLock::new(HashMap::new()),
            exec_hits: AtomicU64::new(0),
            exec_misses: AtomicU64::new(0),
            sig_hits: AtomicU64::new(0),
            sig_misses: AtomicU64::new(0),
            exec_evicted: AtomicU64::new(0),
            sig_evicted: AtomicU64::new(0),
        }
    }
}

impl ChainStore {
    /// A fresh, empty store with [`StoreLimits::default`].
    pub fn new() -> Self {
        ChainStore::default()
    }

    /// A fresh store with explicit limits.
    pub fn with_limits(limits: StoreLimits) -> Self {
        ChainStore {
            inner: Arc::new(StoreInner {
                limits,
                ..StoreInner::default()
            }),
        }
    }

    /// The store's limits.
    pub fn limits(&self) -> StoreLimits {
        self.inner.limits
    }

    /// The current epoch (0 until the first [`ChainStore::begin_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// Advances the epoch and evicts every entry whose last touch is older
    /// than [`StoreLimits::keep_epochs`] epochs. A run calls this once at
    /// start, so sequential runs sharing a handle keep exactly the previous
    /// run's entries warm while everything older ages out.
    pub fn begin_epoch(&self) {
        let epoch = self.inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let keep = self.inner.limits.keep_epochs;
        let cutoff = epoch.saturating_sub(keep);
        if cutoff == 0 {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut exec = StoreInner::write(&self.inner.exec);
            let before = exec.len();
            exec.retain(|_, slot| slot.epoch.load(Ordering::Relaxed) >= cutoff);
            evicted += (before - exec.len()) as u64;
        }
        self.inner
            .exec_evicted
            .fetch_add(evicted, Ordering::Relaxed);
        let mut sig_evicted = 0u64;
        {
            let mut sig = StoreInner::write(&self.inner.sig);
            let before = sig.len();
            sig.retain(|_, stamp| stamp.load(Ordering::Relaxed) >= cutoff);
            sig_evicted += (before - sig.len()) as u64;
        }
        self.inner
            .sig_evicted
            .fetch_add(sig_evicted, Ordering::Relaxed);
    }

    /// Number of memoized block executions.
    pub fn exec_entries(&self) -> usize {
        StoreInner::read(&self.inner.exec).len()
    }

    /// Number of memoized signature verdicts.
    pub fn sig_entries(&self) -> usize {
        StoreInner::read(&self.inner.sig).len()
    }

    /// A snapshot of the store's meters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            exec_hits: self.inner.exec_hits.load(Ordering::Relaxed),
            exec_misses: self.inner.exec_misses.load(Ordering::Relaxed),
            sig_hits: self.inner.sig_hits.load(Ordering::Relaxed),
            sig_misses: self.inner.sig_misses.load(Ordering::Relaxed),
            exec_evicted: self.inner.exec_evicted.load(Ordering::Relaxed),
            sig_evicted: self.inner.sig_evicted.load(Ordering::Relaxed),
        }
    }

    /// A signature-verdict cache handle backed by this store, for
    /// [`crate::Mempool::with_sig_cache`] and the block executor.
    pub fn sig_cache(&self) -> SigCache {
        SigCache {
            inner: Some(Arc::clone(&self.inner)),
        }
    }

    /// Looks up a memoized execution, counting a hit or miss and re-stamping
    /// the entry's epoch on hit.
    pub(crate) fn lookup_exec(&self, key: &(H256, u64)) -> Option<ExecEntry> {
        let exec = StoreInner::read(&self.inner.exec);
        match exec.get(key) {
            Some(slot) => {
                slot.epoch
                    .store(self.inner.epoch.load(Ordering::Relaxed), Ordering::Relaxed);
                self.inner.exec_hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.entry.clone())
            }
            None => {
                self.inner.exec_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a validated execution, flushing the map first if it is at
    /// capacity.
    pub(crate) fn insert_exec(&self, key: (H256, u64), entry: ExecEntry) {
        let mut exec = StoreInner::write(&self.inner.exec);
        if exec.len() >= self.inner.limits.max_exec_entries {
            self.inner
                .exec_evicted
                .fetch_add(exec.len() as u64, Ordering::Relaxed);
            exec.clear();
        }
        let epoch = self.inner.epoch.load(Ordering::Relaxed);
        exec.insert(
            key,
            ExecSlot {
                entry,
                epoch: AtomicU64::new(epoch),
            },
        );
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
        let sig = StoreInner::read(&inner.sig);
        match sig.get(hash) {
            Some(stamp) => {
                stamp.store(inner.epoch.load(Ordering::Relaxed), Ordering::Relaxed);
                inner.sig_hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => {
                inner.sig_misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Records a successful verdict (no-op when disabled), flushing the map
    /// first if it is at capacity.
    pub(crate) fn record(&self, hash: H256) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut sig = StoreInner::write(&inner.sig);
        if sig.len() >= inner.limits.max_sig_entries {
            inner
                .sig_evicted
                .fetch_add(sig.len() as u64, Ordering::Relaxed);
            sig.clear();
        }
        let epoch = inner.epoch.load(Ordering::Relaxed);
        sig.insert(hash, AtomicU64::new(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u8) -> H256 {
        blockfed_crypto::sha256::sha256(&[n])
    }

    fn entry() -> ExecEntry {
        (Arc::new(State::new()), Arc::new(Vec::new()))
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

        // Epoch 2: entries from epoch 1 survive (keep_epochs = 1).
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
            assert!(store.lookup_exec(&(h(1), 0)).is_some());
        }
        assert_eq!(store.exec_entries(), 1);
        let c = store.counters();
        assert_eq!(c.exec_hits, 5);
        assert_eq!(c.exec_evicted, 0);
    }

    #[test]
    fn caps_flush_wholesale() {
        let store = ChainStore::with_limits(StoreLimits {
            max_exec_entries: 2,
            max_sig_entries: 2,
            keep_epochs: 1,
        });
        store.insert_exec((h(1), 0), entry());
        store.insert_exec((h(2), 0), entry());
        store.insert_exec((h(3), 0), entry()); // over cap: flush, then insert
        assert_eq!(store.exec_entries(), 1);
        assert_eq!(store.counters().exec_evicted, 2);

        let cache = store.sig_cache();
        cache.record(h(1));
        cache.record(h(2));
        cache.record(h(3));
        assert_eq!(store.sig_entries(), 1);
        assert_eq!(store.counters().sig_evicted, 2);
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
        let _ = store.lookup_exec(&(h(1), 0));
        let base = store.counters();
        let _ = store.lookup_exec(&(h(1), 0));
        let _ = store.lookup_exec(&(h(9), 0));
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
