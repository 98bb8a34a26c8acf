//! The workspace-wide parallel compute layer.
//!
//! Every hot path in `blockfed` — dense kernels in `blockfed-tensor`,
//! training in `blockfed-nn` and aggregation in `blockfed-fl` — parallelizes
//! through the primitives here rather than spawning threads ad hoc, so one
//! environment knob controls the whole stack:
//!
//! * `BLOCKFED_THREADS=N` forces the worker count (`1` gives fully
//!   deterministic single-threaded execution for CI);
//! * unset, the layer uses [`std::thread::available_parallelism`].
//!
//! The primitives use scoped threads ([`std::thread::scope`]) instead of a
//! persistent pool: no `'static` bounds on closures, no unsafe, no shutdown
//! protocol, and spawn cost (~10 µs/thread) is amortized because callers gate
//! on [`worth_parallelizing`] and fall back to inline execution for small
//! inputs. All primitives partition work *deterministically* — contiguous
//! chunks, one per worker — so any kernel whose per-chunk computation is a
//! pure function of the chunk produces bit-identical results at every thread
//! count.
//!
//! # Examples
//!
//! ```
//! let mut data = vec![1.0f32; 1024];
//! blockfed_compute::par_chunks_mut(&mut data, 1, |_offset, chunk| {
//!     for x in chunk {
//!         *x *= 2.0;
//!     }
//! });
//! assert!(data.iter().all(|&x| x == 2.0));
//! ```

#![forbid(unsafe_code)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work below this many "scalar op" units is run inline; spawning threads
/// costs more than it saves.
pub const PAR_THRESHOLD: usize = 16 * 1024;

static THREADS: OnceLock<usize> = OnceLock::new();
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is already executing inside a parallel region.
    /// Nested primitives run inline instead of oversubscribing the machine
    /// (e.g. a pool-parallel combination scorer whose model evaluation calls
    /// pool-parallel matmuls).
    static IN_PARALLEL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with this thread marked as inside a parallel region, restoring
/// the previous state afterwards (panic-safe via a drop guard).
fn run_in_region<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL_REGION.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(IN_PARALLEL_REGION.with(|c| c.replace(true)));
    f()
}

fn detect_threads() -> usize {
    if let Ok(v) = std::env::var("BLOCKFED_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The number of worker threads the compute layer will use.
///
/// Resolution order: `1` when already inside a parallel region (nested
/// primitives run inline), then a live [`set_threads`] override, then the
/// `BLOCKFED_THREADS` environment variable, then detected hardware
/// parallelism.
pub fn num_threads() -> usize {
    if IN_PARALLEL_REGION.with(|c| c.get()) {
        return 1;
    }
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *THREADS.get_or_init(detect_threads)
}

/// Overrides the worker count at runtime (`0` clears the override).
///
/// Primarily for tests that assert kernel equivalence across thread counts;
/// production code should prefer the `BLOCKFED_THREADS` environment variable.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Whether a kernel touching `work_items` scalar units should bother going
/// parallel.
pub fn worth_parallelizing(work_items: usize) -> bool {
    num_threads() > 1 && work_items >= PAR_THRESHOLD
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal length.
///
/// The split depends only on `n` and `parts`, never on scheduling, which is
/// what makes the layer's kernels deterministic.
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `data` into one contiguous chunk per worker (each a multiple of
/// `stride` long) and runs `f(start_index, chunk)` on each in parallel.
///
/// `stride` keeps logical rows intact: with `stride = row_len`, no row is
/// ever split across workers.
///
/// # Panics
///
/// Panics if `stride` is zero or does not divide `data.len()`.
pub fn par_chunks_mut<T, F>(data: &mut [T], stride: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(stride > 0, "stride must be positive");
    assert_eq!(data.len() % stride, 0, "stride must divide the data length");
    let rows = data.len() / stride;
    let threads = num_threads();
    if threads <= 1 || rows <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let ranges = split_ranges(rows, threads);
    if ranges.len() == 1 {
        f(0, data);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut remaining = data;
        let mut consumed = 0usize;
        let mut first: Option<(usize, &mut [T])> = None;
        for range in ranges {
            let take = (range.end - range.start) * stride;
            let (chunk, rest) = remaining.split_at_mut(take);
            let offset = consumed;
            if first.is_none() {
                first = Some((offset, chunk));
            } else {
                scope.spawn(move || run_in_region(|| f(offset, chunk)));
            }
            consumed += take;
            remaining = rest;
        }
        if let Some((offset, chunk)) = first {
            run_in_region(|| f(offset, chunk));
        }
    });
}

/// Applies `f` to every item in parallel, preserving order of results.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let threads = num_threads();
    if threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let slots = &mut out[..];
        let f = &f;
        std::thread::scope(|scope| {
            let mut remaining = slots;
            let mut start = 0usize;
            let mut first: Option<(usize, &mut [Option<U>])> = None;
            for range in split_ranges(n, threads) {
                let take = range.end - range.start;
                let (chunk, rest) = remaining.split_at_mut(take);
                if first.is_none() {
                    first = Some((start, chunk));
                } else {
                    let offset = start;
                    scope.spawn(move || {
                        run_in_region(|| {
                            for (i, slot) in chunk.iter_mut().enumerate() {
                                *slot = Some(f(&items[offset + i]));
                            }
                        })
                    });
                }
                start += take;
                remaining = rest;
            }
            if let Some((offset, chunk)) = first {
                run_in_region(|| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(f(&items[offset + i]));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Applies `f` to every item in parallel with **per-worker mutable state**,
/// preserving result order: items are split into at most `states.len()`
/// contiguous chunks, and each chunk is processed sequentially with its own
/// state. With one state this degrades to a plain sequential map.
///
/// The orchestrator uses this to evaluate model combinations concurrently,
/// each worker owning a scratch model. Results are identical at any state
/// count as long as `f`'s output doesn't depend on leftover state (callers
/// reset their scratch per item).
pub fn par_map_with<S, T, U, F>(states: &mut [S], items: &[T], f: F) -> Vec<U>
where
    S: Send,
    T: Sync,
    U: Send,
    F: Fn(&mut S, &T) -> U + Sync,
{
    assert!(!states.is_empty(), "par_map_with needs at least one state");
    let n = items.len();
    if states.len() == 1 || n <= 1 {
        let state = &mut states[0];
        return items.iter().map(|item| f(state, item)).collect();
    }
    let ranges = split_ranges(n, states.len());
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let f = &f;
        std::thread::scope(|scope| {
            let mut slots = &mut out[..];
            let mut rest_states = &mut states[..];
            let mut first: Option<(usize, &mut S, &mut [Option<U>])> = None;
            for range in ranges {
                let take = range.end - range.start;
                let (chunk, rest) = slots.split_at_mut(take);
                let (state, others) = rest_states.split_first_mut().expect("state per range");
                let offset = range.start;
                if first.is_none() {
                    first = Some((offset, state, chunk));
                } else {
                    scope.spawn(move || {
                        run_in_region(|| {
                            for (i, slot) in chunk.iter_mut().enumerate() {
                                *slot = Some(f(state, &items[offset + i]));
                            }
                        })
                    });
                }
                slots = rest;
                rest_states = others;
            }
            if let Some((offset, state, chunk)) = first {
                run_in_region(|| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(f(state, &items[offset + i]));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global thread override.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_with_uses_every_state_deterministically() {
        let _g = guard();
        let items: Vec<u32> = (0..100).collect();
        for states in [1usize, 2, 7] {
            let mut scratches = vec![0u32; states];
            let out = par_map_with(&mut scratches, &items, |scratch, &x| {
                *scratch = x; // per-item reset, like a scratch model
                *scratch * 2
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ranges_partition_exactly() {
        for n in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, striped(n)] {
                let ranges = split_ranges(n, parts);
                let mut covered = 0;
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start, "gap before {r:?}");
                    assert!(r.end > r.start);
                    covered += r.end - r.start;
                    expected_start = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    fn striped(n: usize) -> usize {
        n.max(1)
    }

    #[test]
    fn par_chunks_mut_offsets_are_correct() {
        let _g = guard();
        for threads in [1usize, 2, 8] {
            set_threads(threads);
            let mut data = vec![0usize; 300];
            par_chunks_mut(&mut data, 3, |offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = offset + i;
                }
            });
            let expect: Vec<usize> = (0..300).collect();
            assert_eq!(data, expect);
        }
        set_threads(0);
    }

    #[test]
    #[should_panic(expected = "stride must divide")]
    fn par_chunks_mut_rejects_misaligned_stride() {
        let mut data = vec![0u8; 10];
        par_chunks_mut(&mut data, 3, |_, _| {});
    }

    #[test]
    fn par_map_preserves_order() {
        let _g = guard();
        for threads in [1usize, 2, 8] {
            set_threads(threads);
            let items: Vec<u64> = (0..257).collect();
            let out = par_map(&items, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        let _g = guard();
        set_threads(4);
        let outer: Vec<u32> = (0..8).collect();
        // Inside a worker, the compute layer must report one thread so
        // nested primitives don't oversubscribe the machine.
        let seen = par_map(&outer, |_| num_threads());
        assert!(seen.iter().all(|&t| t == 1), "nested num_threads: {seen:?}");
        // Outside the region, the override is visible again.
        assert_eq!(num_threads(), 4);
        set_threads(0);
    }

    #[test]
    fn thread_override_wins() {
        let _g = guard();
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }
}
