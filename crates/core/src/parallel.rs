//! Minimal data-parallel helper built on `std::thread::scope`.
//!
//! The expensive primitive in this workspace is "rank N independent
//! queries"; `parallel_map_with` splits the index range into contiguous
//! chunks, one per thread, and writes results into a preallocated output —
//! no extra dependencies, no channel traffic, deterministic output order.

use std::ops::Range;
use std::sync::Mutex;

use crate::align::AlignedVec;

/// Number of worker threads to use by default (available parallelism,
/// capped at 16 — ranking is memory-bandwidth-bound beyond that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

/// Target entities per shard when a shard count is chosen automatically:
/// small enough that one shard's slice of a typical embedding table stays
/// cache-resident while a query streams over it.
pub const DEFAULT_SHARD_TARGET: usize = 1 << 16;

/// A partition of `0..len` into `num_shards` contiguous, balanced ranges.
///
/// Shard sizes differ by at most one (the first `len % num_shards` shards
/// hold the extra item), so the plan is fully determined by `(len,
/// num_shards)` — every consumer that agrees on those two numbers agrees on
/// every shard boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardPlan {
    len: usize,
    num_shards: usize,
}

impl ShardPlan {
    /// Plan splitting `len` items into `num_shards` shards; the count is
    /// clamped to `1..=max(len, 1)` (never more shards than items).
    pub fn new(len: usize, num_shards: usize) -> Self {
        ShardPlan { len, num_shards: num_shards.clamp(1, len.max(1)) }
    }

    /// Plan with an automatic shard count: `ceil(len /
    /// [`DEFAULT_SHARD_TARGET`])` shards, so each shard holds at most the
    /// cache-residency target.
    pub fn auto(len: usize) -> Self {
        Self::new(len, len.div_ceil(DEFAULT_SHARD_TARGET).max(1))
    }

    /// Total items partitioned.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan covers zero items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Half-open item range of shard `s`.
    #[inline]
    pub fn range(&self, s: usize) -> Range<usize> {
        debug_assert!(s < self.num_shards);
        let base = self.len / self.num_shards;
        let rem = self.len % self.num_shards;
        let start = s * base + s.min(rem);
        let end = start + base + usize::from(s < rem);
        start..end
    }

    /// Largest shard width (the scratch-buffer size a per-shard pass needs).
    #[inline]
    pub fn max_shard_len(&self) -> usize {
        self.len / self.num_shards + usize::from(!self.len.is_multiple_of(self.num_shards))
    }

    /// Iterator over every shard's range, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.num_shards).map(|s| self.range(s))
    }
}

/// How a thread budget is divided between parallelism *across* work items
/// and fan-out *within* each item — the latency-path work plan.
///
/// Throughput traffic (many queries) wants every thread ranking a distinct
/// query; a single query wants every thread fanning out over that query's
/// entity shards. `two_level_split` interpolates: `outer` workers process
/// items concurrently and each hands its item `inner` workers of shard
/// fan-out, with `outer * inner <= threads` always.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ThreadSplit {
    /// Workers processing distinct items concurrently.
    pub outer: usize,
    /// Workers fanning out inside each item's pass.
    pub inner: usize,
}

/// Split `threads` between item-parallelism and per-item fan-out.
///
/// With at least as many items as threads every thread gets its own item
/// (`inner == 1`, the pre-existing behaviour); with fewer items the spare
/// threads fan out inside each item (`inner == threads / outer`). Both
/// fields are always at least 1.
pub fn two_level_split(items: usize, threads: usize) -> ThreadSplit {
    let threads = threads.max(1);
    let outer = threads.min(items).max(1);
    ThreadSplit { outer, inner: (threads / outer).max(1) }
}

/// A pool of reusable `f32` scratch buffers of one fixed length.
///
/// Ranking a query needs a score buffer as wide as a shard (or the whole
/// entity set); serving paths used to allocate that per request. The pool
/// hands out zero-initialised buffers and recycles them on drop, so steady-
/// state traffic performs no buffer allocation at all. Buffers are
/// 64-byte-aligned ([`AlignedVec`]) so the SIMD scoring kernels that fill
/// them write to cache-line-aligned destinations.
pub struct BufferPool {
    buf_len: usize,
    free: Mutex<Vec<AlignedVec<f32>>>,
}

impl BufferPool {
    /// Pool of buffers holding `buf_len` f32s each.
    pub fn new(buf_len: usize) -> Self {
        BufferPool { buf_len, free: Mutex::new(Vec::new()) }
    }

    /// Buffers currently idle in the pool (for tests / introspection).
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap().len()
    }

    /// Acquire a buffer (recycled when available, freshly allocated
    /// otherwise). Contents are unspecified; ranking passes overwrite the
    /// prefix they use.
    pub fn acquire(&self) -> PooledBuffer<'_> {
        let buf =
            self.free.lock().unwrap().pop().unwrap_or_else(|| AlignedVec::zeroed(self.buf_len));
        PooledBuffer { buf, pool: self }
    }
}

/// A buffer checked out of a [`BufferPool`]; returns itself on drop.
pub struct PooledBuffer<'a> {
    buf: AlignedVec<f32>,
    pool: &'a BufferPool,
}

impl std::ops::Deref for PooledBuffer<'_> {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuffer<'_> {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for PooledBuffer<'_> {
    fn drop(&mut self) {
        self.pool.free.lock().unwrap().push(std::mem::take(&mut self.buf));
    }
}

/// Apply `f(i)` for every `i in 0..n` across `threads` workers, collecting
/// results in index order. `f` must be `Sync` (it is shared, not cloned).
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, threads, || (), |_, i| f(i))
}

/// As [`parallel_map_indexed`], but each worker thread gets a scratch value
/// from `init` that is reused across its chunk — the ranking loops use this
/// to amortise per-query score-buffer allocations.
pub fn parallel_map_with<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    if n == 0 {
        return out;
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        let mut scratch = init();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(&mut scratch, i);
        }
        return out;
    }
    let chunk = n.div_ceil(threads);
    let fref = &f;
    let iref = &init;
    std::thread::scope(|scope| {
        let mut rest: &mut [T] = &mut out;
        let mut start = 0usize;
        let mut handles = Vec::with_capacity(threads);
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let base = start;
            handles.push(scope.spawn(move || {
                let mut scratch = iref();
                for (off, slot) in head.iter_mut().enumerate() {
                    *slot = fref(&mut scratch, base + off);
                }
            }));
            rest = tail;
            start += take;
        }
        for h in handles {
            h.join().expect("parallel worker panicked");
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let out = parallel_map_indexed(1000, 4, |i| i * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map_indexed(5, 1, |i| i as u64 + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = parallel_map_indexed(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_indexed(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn shared_state_reads() {
        let data: Vec<u32> = (0..100).collect();
        let out = parallel_map_indexed(100, 8, |i| data[i] + 1);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn scratch_variant_matches_plain() {
        let plain = parallel_map_indexed(500, 4, |i| i * 3);
        let scratch = parallel_map_with(500, 4, Vec::<usize>::new, |buf, i| {
            buf.push(i); // scratch is reusable state
            i * 3
        });
        assert_eq!(plain, scratch);
    }

    #[test]
    fn shard_plan_partitions_exactly() {
        for (len, shards) in [(0usize, 3usize), (1, 1), (10, 3), (10, 10), (10, 99), (100, 7)] {
            let plan = ShardPlan::new(len, shards);
            assert!(plan.num_shards() >= 1 && plan.num_shards() <= len.max(1));
            let mut next = 0usize;
            for (s, r) in plan.ranges().enumerate() {
                assert_eq!(r.start, next, "shard {s} not contiguous");
                assert!(r.len() <= plan.max_shard_len());
                next = r.end;
            }
            assert_eq!(next, len, "shards must cover 0..len");
        }
    }

    #[test]
    fn shard_plan_balanced_within_one() {
        let plan = ShardPlan::new(10, 3);
        let sizes: Vec<usize> = plan.ranges().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(plan.max_shard_len(), 4);
    }

    #[test]
    fn shard_plan_auto_targets_cache_residency() {
        assert_eq!(ShardPlan::auto(100).num_shards(), 1);
        assert_eq!(ShardPlan::auto(DEFAULT_SHARD_TARGET).num_shards(), 1);
        assert_eq!(ShardPlan::auto(DEFAULT_SHARD_TARGET + 1).num_shards(), 2);
        assert_eq!(ShardPlan::auto(0).num_shards(), 1);
    }

    #[test]
    fn two_level_split_interpolates_between_query_and_shard_parallelism() {
        // Saturated: every thread takes its own item, no fan-out.
        assert_eq!(two_level_split(100, 8), ThreadSplit { outer: 8, inner: 1 });
        assert_eq!(two_level_split(8, 8), ThreadSplit { outer: 8, inner: 1 });
        // One item: the whole budget fans out inside it.
        assert_eq!(two_level_split(1, 8), ThreadSplit { outer: 1, inner: 8 });
        // In between: spare threads become per-item fan-out.
        assert_eq!(two_level_split(2, 8), ThreadSplit { outer: 2, inner: 4 });
        assert_eq!(two_level_split(3, 8), ThreadSplit { outer: 3, inner: 2 });
        // Degenerate inputs stay well-formed.
        assert_eq!(two_level_split(0, 8), ThreadSplit { outer: 1, inner: 8 });
        assert_eq!(two_level_split(5, 0), ThreadSplit { outer: 1, inner: 1 });
        assert_eq!(two_level_split(0, 0), ThreadSplit { outer: 1, inner: 1 });
        // The budget is never exceeded.
        for items in 0..20usize {
            for threads in 1..20usize {
                let s = two_level_split(items, threads);
                assert!(s.outer >= 1 && s.inner >= 1);
                assert!(s.outer * s.inner <= threads.max(1), "{items} items, {threads} threads");
            }
        }
    }

    #[test]
    fn buffer_pool_recycles() {
        let pool = BufferPool::new(8);
        {
            let mut a = pool.acquire();
            a[0] = 42.0;
            assert_eq!(a.len(), 8);
            assert_eq!(a.as_ptr() as usize % crate::align::CACHE_LINE, 0, "scratch aligned");
            let b = pool.acquire();
            assert_eq!(b.len(), 8);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2, "dropped buffers return to the pool");
        let c = pool.acquire();
        assert_eq!(c.len(), 8);
        assert_eq!(pool.idle(), 1, "reacquire pops a recycled buffer");
    }

    #[test]
    fn scratch_is_reused_within_a_thread() {
        // With 1 thread the scratch accumulates every index.
        let out = parallel_map_with(
            10,
            1,
            || 0usize,
            |count, _i| {
                *count += 1;
                *count
            },
        );
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }
}
