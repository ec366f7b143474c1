//! Request coalescing for `/score` and `/topk`: concurrent requests against
//! the same model are merged into one flat work list and executed in a
//! single parallel pass ([`ScoreBatcher`] scores triples through
//! [`parallel_map_indexed`]; [`TopKBatcher`] runs full-ranking top-k
//! queries through the two-level query × shard work plan).
//!
//! Why batch at all: each HTTP request alone would spin up a scoped thread
//! team for a handful of triples; under concurrent load that is one team
//! per request fighting over cores. Coalescing amortises the fan-out across
//! every request that arrives within the batching window, which is exactly
//! the "many users, small queries" regime the ROADMAP targets.
//!
//! Leadership protocol (all under one mutex, so the ordering argument is
//! airtight): a submitter that finds no active leader becomes the leader,
//! sleeps for the window, then drains *everything* pending and scores it.
//! A submitter that finds a leader active just enqueues and waits on its
//! job's condvar. Because enqueue and drain are serialised by the same
//! mutex, a job is either drained by the current leader or observes
//! `leader_active == false` and elects itself — no job can strand. A
//! *panicking* pass cannot strand followers either: the leader poisons
//! every drained slot before re-raising, so each waiter fails its own
//! request instead of blocking a pool worker forever.
//!
//! The batching window is **adaptive**: when a batch actually coalesced
//! (≥ 2 jobs) and absorbed at least a growth threshold of work
//! ([`WINDOW_GROW_TRIPLES`] triples for `/score`,
//! [`TOPK_WINDOW_GROW_QUERIES`] queries for `/topk`), the window doubles
//! (up to [`WINDOW_GROWTH_CAP`]× the configured base — deeper coalescing
//! under load), and an idle batch that coalesced nothing halves it back
//! toward the base, keeping single-client latency tight. Growth requires
//! real coalescing so that one client sending large sequential batches
//! never ratchets up a sleep that cannot help it. The current windows are
//! exported per model as `kg_serve_score_batch_window_us` and
//! `kg_serve_topk_batch_window_us` in `/metrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use kg_core::ids::{EntityId, RelationId};
use kg_core::parallel::{parallel_map_indexed, two_level_split};
use kg_core::triple::QuerySide;
use kg_core::{DeltaKeys, LiveGraph, Triple};
use kg_models::ScoringEngine;

use crate::http_metrics::HttpMetrics;
use crate::registry::LruCache;

/// Triples in one coalesced batch at which the window widens.
pub const WINDOW_GROW_TRIPLES: usize = 64;

/// Upper bound of the adaptive window, as a multiple of the base window.
pub const WINDOW_GROWTH_CAP: u64 = 8;

/// What one job's wait ends with.
enum Outcome<O> {
    /// The job's slice of the batch results, in input order.
    Done(Vec<O>),
    /// The batch's execution pass panicked; the waiter must fail its own
    /// request rather than wait forever.
    Poisoned,
}

/// One request's slot: filled by whichever thread leads the batch.
struct JobSlot<O> {
    result: Mutex<Option<Outcome<O>>>,
    ready: Condvar,
}

struct Pending<I, O> {
    items: Vec<I>,
    slot: Arc<JobSlot<O>>,
}

struct CoreState<I, O> {
    pending: Vec<Pending<I, O>>,
    leader_active: bool,
}

/// The shared coalescing machinery behind [`ScoreBatcher`] and
/// [`TopKBatcher`]: leadership election, the adaptive window, flattening
/// jobs into one work list, scattering results back, and poisoning every
/// waiter when the execution pass panics (so a panic costs the coalesced
/// requests, never pool workers stuck in an eternal condvar wait).
struct BatchCore<I, O> {
    state: Mutex<CoreState<I, O>>,
    base_window_us: u64,
    window_us: AtomicU64,
    batches_run: AtomicU64,
}

impl<I: Copy, O: Clone> BatchCore<I, O> {
    fn new(window: Duration) -> Self {
        let base_window_us = window.as_micros() as u64;
        BatchCore {
            state: Mutex::new(CoreState { pending: Vec::new(), leader_active: false }),
            base_window_us,
            window_us: AtomicU64::new(base_window_us),
            batches_run: AtomicU64::new(0),
        }
    }

    fn batches_run(&self) -> u64 {
        self.batches_run.load(Ordering::Relaxed)
    }

    fn current_window_us(&self) -> u64 {
        self.window_us.load(Ordering::Relaxed)
    }

    /// Run `items` through the batcher: coalesce with concurrent
    /// submissions, execute the merged work list with `run` (exactly one
    /// output per input item), report each completed batch's `(jobs,
    /// items)` to `after` (metrics + window adaptation). Blocks until the
    /// batch containing this job has been executed; panics if the batch's
    /// `run` panicked (on the leader the original panic resumes, on
    /// followers a poisoned-batch panic is raised).
    fn submit<R, A>(&self, items: Vec<I>, run: R, after: A) -> Vec<O>
    where
        R: Fn(&[I]) -> Vec<O>,
        A: Fn(usize, usize),
    {
        if items.is_empty() {
            return Vec::new();
        }
        let slot = Arc::new(JobSlot { result: Mutex::new(None), ready: Condvar::new() });
        let is_leader = {
            let mut state = self.state.lock().unwrap();
            state.pending.push(Pending { items, slot: Arc::clone(&slot) });
            if state.leader_active {
                false
            } else {
                state.leader_active = true;
                true
            }
        };

        if is_leader {
            // Give concurrent submitters a chance to join this batch.
            let window_us = self.window_us.load(Ordering::Relaxed);
            if window_us > 0 {
                std::thread::sleep(Duration::from_micros(window_us));
            }
            let batch = {
                let mut state = self.state.lock().unwrap();
                state.leader_active = false;
                std::mem::take(&mut state.pending)
            };
            let flat: Vec<I> = batch.iter().flat_map(|job| job.items.iter().copied()).collect();
            // The execution pass runs under catch_unwind so a panicking
            // model can never leave followers waiting on slots that no
            // one will ever fill. A wrong-length result is routed through
            // the same poison path: letting it slice-panic mid-scatter
            // would strand exactly the slots not yet filled.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&flat)))
                .and_then(|outputs| {
                    if outputs.len() == flat.len() {
                        Ok(outputs)
                    } else {
                        Err(Box::new(format!(
                            "batch run returned {} outputs for {} items",
                            outputs.len(),
                            flat.len()
                        )) as Box<dyn std::any::Any + Send>)
                    }
                });
            match outcome {
                Ok(outputs) => {
                    self.batches_run.fetch_add(1, Ordering::Relaxed);
                    let mut offset = 0usize;
                    for job in &batch {
                        let n = job.items.len();
                        let mut result = job.slot.result.lock().unwrap();
                        // PANIC-OK: the Ok arm guarantees
                        // `outputs.len() == flat.len()` = sum of all job
                        // item counts, so every `offset..offset + n` is in
                        // bounds by construction.
                        *result = Some(Outcome::Done(outputs[offset..offset + n].to_vec()));
                        job.slot.ready.notify_all();
                        offset += n;
                    }
                    after(batch.len(), flat.len());
                }
                Err(payload) => {
                    for job in &batch {
                        let mut result = job.slot.result.lock().unwrap();
                        *result = Some(Outcome::Poisoned);
                        job.slot.ready.notify_all();
                    }
                    // `leader_active` was already reset before the run, so
                    // the next submission elects a fresh leader.
                    std::panic::resume_unwind(payload);
                }
            }
        }

        let mut result = slot.result.lock().unwrap();
        while result.is_none() {
            // PANIC-OK: condvar wait only errors on mutex poisoning, i.e. a
            // panic that already happened elsewhere — rethrowing it here
            // adds no new panic surface.
            result = slot.ready.wait(result).unwrap();
        }
        // PANIC-OK: the loop above exits only when the slot was filled.
        match result.take().unwrap() {
            Outcome::Done(out) => out,
            Outcome::Poisoned => {
                // PANIC-OK: deliberate panic propagation — the leader's
                // execution pass panicked and `resume_unwind` already tore
                // down that request; followers must fail too, not hang.
                panic!("coalesced batch panicked in another request's execution pass")
            }
        }
    }

    /// Adapt the window to the batch just executed: widen under load (the
    /// next window catches more stragglers), shrink back toward the base
    /// when traffic is idle. Growth requires the batch to have actually
    /// coalesced ≥ 2 jobs *and* absorbed `grow_threshold` work units — a
    /// single client's big sequential batches gain nothing from a longer
    /// sleep. `on_change` observes the new window (the metrics gauge).
    /// No-op for zero-base batchers.
    fn adapt_window(
        &self,
        jobs: usize,
        units: usize,
        grow_threshold: usize,
        on_change: impl Fn(u64),
    ) {
        if self.base_window_us == 0 {
            return;
        }
        let cap = self.base_window_us * WINDOW_GROWTH_CAP;
        let cur = self.window_us.load(Ordering::Relaxed);
        let next = if jobs >= 2 && units >= grow_threshold {
            (cur * 2).min(cap)
        } else if jobs <= 1 {
            (cur / 2).max(self.base_window_us)
        } else {
            cur
        };
        if next != cur {
            self.window_us.store(next, Ordering::Relaxed);
            on_change(next);
        }
    }
}

/// Coalesces concurrent score requests for one model.
pub struct ScoreBatcher {
    engine: Arc<ScoringEngine>,
    name: String,
    core: BatchCore<Triple, f32>,
    threads: usize,
    metrics: Option<Arc<HttpMetrics>>,
}

impl ScoreBatcher {
    /// Batcher over `engine`, waiting an adaptive window (starting at
    /// `window`) for stragglers and scoring with `threads` workers. Batch
    /// sizes and the current window are recorded into `metrics` when
    /// provided — held by the batcher itself so every coalesced batch is
    /// observed no matter which submitter ends up leading it. A zero base
    /// window disables both sleeping and adaptation.
    pub fn new(
        engine: Arc<ScoringEngine>,
        name: impl Into<String>,
        window: Duration,
        threads: usize,
        metrics: Option<Arc<HttpMetrics>>,
    ) -> Self {
        let name = name.into();
        if let Some(m) = &metrics {
            m.set_score_window(&name, window.as_micros() as u64);
        }
        ScoreBatcher {
            engine,
            name,
            core: BatchCore::new(window),
            threads: threads.max(1),
            metrics,
        }
    }

    /// Number of scoring passes executed so far.
    pub fn batches_run(&self) -> u64 {
        self.core.batches_run()
    }

    /// The adaptive batching window currently in effect, in microseconds.
    pub fn current_window_us(&self) -> u64 {
        self.core.current_window_us()
    }

    /// Score `triples`, coalescing with any concurrent submissions.
    ///
    /// Blocks until the batch containing this job has been scored; returns
    /// the scores in input order.
    pub fn submit(&self, triples: Vec<Triple>) -> Vec<f32> {
        self.core.submit(
            triples,
            // The single parallel pass over every triple of every
            // coalesced job.
            |flat| {
                // PANIC-OK: `i < flat.len()` by parallel_map_indexed's
                // contract.
                parallel_map_indexed(flat.len(), self.threads, |i| self.engine.score_one(flat[i]))
            },
            |jobs, triples| {
                if let Some(m) = &self.metrics {
                    m.observe_batch(jobs, triples);
                }
                self.adapt_window(jobs, triples);
            },
        )
    }

    fn adapt_window(&self, jobs: usize, triples: usize) {
        self.core.adapt_window(jobs, triples, WINDOW_GROW_TRIPLES, |next| {
            if let Some(m) = &self.metrics {
                m.set_score_window(&self.name, next);
            }
        });
    }
}

/// Queries in one coalesced top-k batch at which the window widens. Much
/// lower than [`WINDOW_GROW_TRIPLES`]: a top-k query is a full ranking
/// pass (`O(|E|)`), so even a handful absorbed per batch repays a longer
/// wait.
pub const TOPK_WINDOW_GROW_QUERIES: usize = 4;

/// One top-k query as the batcher executes it: parse-validated by the
/// router, with `k` and the filtered flag resolved per request (jobs with
/// different settings coalesce into one pass).
#[derive(Clone, Copy, Debug)]
pub struct TopKQuery {
    /// The query triple (the answer slot's entity id is ignored).
    pub triple: Triple,
    /// Which slot is being predicted.
    pub side: QuerySide,
    /// How many results to return.
    pub k: usize,
    /// Whether known-true answers are removed from the ranking.
    pub filtered: bool,
}

/// One result list per submitted query: `(entity, score)` pairs, best
/// first.
pub type TopKResults = Vec<Vec<(u32, f32)>>;

/// Distinct cached `(query, k, filtered)` configurations kept per model.
pub const TOPK_CACHE_CAPACITY: usize = 1024;

/// Cache key for one top-k query. The answer-slot entity id of the query
/// triple is *ignored* by ranking, so the key stores only the context
/// entity ([`QuerySide::context`]) — `{"head":3,...}` hits the same entry
/// no matter what placeholder the parser put in the tail slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct TopKCacheKey {
    context: EntityId,
    relation: RelationId,
    side: QuerySide,
    k: usize,
    filtered: bool,
}

impl TopKCacheKey {
    fn of(q: &TopKQuery) -> Self {
        TopKCacheKey {
            context: q.side.context(q.triple),
            relation: q.triple.relation,
            side: q.side,
            k: q.k,
            filtered: q.filtered,
        }
    }
}

/// A cached result, valid only while the live graph still carries
/// `version` (deltas bump surviving entries; touched entries are removed).
struct CachedTopK {
    result: Vec<(u32, f32)>,
    version: u64,
}

/// Coalesces concurrent `/topk` requests for one model into a single
/// multi-query fan-out pass.
///
/// Same [`BatchCore`] leadership protocol as [`ScoreBatcher`], but the
/// merged batch is executed through the two-level work plan
/// ([`kg_core::parallel::two_level_split`]): the coalesced queries are
/// spread across worker threads, and any spare threads fan each query's
/// entity shards out via [`ScoringEngine::top_k_fanout`]. One concurrent
/// query → pure shard fan-out; `threads`+ concurrent queries → pure
/// query-parallelism; anything between gets both levels. The adaptive
/// window mirrors the `/score` batcher's (grow on real coalescing of
/// [`TOPK_WINDOW_GROW_QUERIES`]+ queries, decay when idle, capped at
/// [`WINDOW_GROWTH_CAP`]× the base) and is exported per model as
/// `kg_serve_topk_batch_window_us`.
///
/// ## Live graphs
///
/// Filtered queries resolve known answers against a snapshot of the
/// model's [`LiveGraph`], taken **once per coalesced pass** by the leader
/// — every query in a batch sees one consistent graph version. Results
/// are memoised in a version-keyed LRU ([`TOPK_CACHE_CAPACITY`] entries):
/// a hit requires the entry's graph version to equal the current one, and
/// [`TopKBatcher::invalidate`] (called on every applied delta) removes
/// exactly the filtered entries whose `(context, relation)` key the delta
/// touched while re-stamping survivors — key-granular invalidation, not a
/// flush. Unfiltered entries never depend on the graph and always
/// survive. A computed result is only inserted while the graph version
/// still equals the one observed before the pass; since versions are
/// monotonic, a result computed against any newer snapshot is refused,
/// so the cache can never serve bytes a cold server would not.
pub struct TopKBatcher {
    engine: Arc<ScoringEngine>,
    live: Arc<LiveGraph>,
    name: String,
    core: BatchCore<TopKQuery, Vec<(u32, f32)>>,
    cache: Mutex<LruCache<TopKCacheKey, CachedTopK>>,
    threads: usize,
    metrics: Option<Arc<HttpMetrics>>,
}

impl TopKBatcher {
    /// Batcher running top-k passes for `engine`, removing known answers
    /// of filtered queries via snapshots of `live`, with `threads` total
    /// workers per pass. A zero base window disables sleeping and
    /// adaptation.
    pub fn new(
        engine: Arc<ScoringEngine>,
        live: Arc<LiveGraph>,
        name: impl Into<String>,
        window: Duration,
        threads: usize,
        metrics: Option<Arc<HttpMetrics>>,
    ) -> Self {
        let name = name.into();
        if let Some(m) = &metrics {
            m.set_topk_window(&name, window.as_micros() as u64);
        }
        TopKBatcher {
            engine,
            live,
            name,
            core: BatchCore::new(window),
            cache: Mutex::new(LruCache::new(TOPK_CACHE_CAPACITY)),
            threads: threads.max(1),
            metrics,
        }
    }

    /// Number of top-k passes executed so far.
    pub fn batches_run(&self) -> u64 {
        self.core.batches_run()
    }

    /// The adaptive batching window currently in effect, in microseconds.
    pub fn current_window_us(&self) -> u64 {
        self.core.current_window_us()
    }

    /// Cached query results currently held (tests and `/healthz`).
    pub fn cached_results(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Drop every cached filtered result whose `(context, relation)` key
    /// `keys` touched, and re-stamp the survivors (and all unfiltered
    /// entries, which never depend on the graph) to `new_version` so they
    /// keep hitting. Called by the registry entry for every applied delta.
    pub fn invalidate(&self, keys: &DeltaKeys, new_version: u64) {
        let mut cache = self.cache.lock().unwrap();
        cache.retain(|key, value| {
            let touched = key.filtered
                && match key.side {
                    QuerySide::Tail => keys.touches_tail(key.context, key.relation),
                    QuerySide::Head => keys.touches_head(key.relation, key.context),
                };
            if touched {
                return false;
            }
            value.version = new_version;
            true
        });
    }

    /// Run `queries`, coalescing with any concurrent submissions; blocks
    /// until the batch containing this job has been executed. Returns one
    /// result list per query, in input order. Cached results (same query,
    /// same graph version) are answered without ranking.
    pub fn submit(&self, queries: Vec<TopKQuery>) -> TopKResults {
        if queries.is_empty() {
            return Vec::new();
        }
        let version_before = self.live.version();
        let mut results: Vec<Option<Vec<(u32, f32)>>> = vec![None; queries.len()];
        let mut misses: Vec<(usize, TopKQuery)> = Vec::new();
        {
            let mut cache = self.cache.lock().unwrap();
            for (i, q) in queries.iter().enumerate() {
                match cache.get(&TopKCacheKey::of(q)) {
                    // PANIC-OK: `i` enumerates `queries`, and `results` was
                    // sized to `queries.len()` two lines up.
                    Some(c) if c.version == version_before => results[i] = Some(c.result.clone()),
                    _ => misses.push((i, *q)),
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.observe_topk_cache(queries.len() - misses.len(), misses.len());
        }
        if !misses.is_empty() {
            let miss_queries: Vec<TopKQuery> = misses.iter().map(|&(_, q)| q).collect();
            let computed = self.run_batch(miss_queries);
            let mut cache = self.cache.lock().unwrap();
            // Monotonic-version insert guard: the leader that executed the
            // pass may have snapshotted a *newer* graph than this
            // submitter observed; in that case the current version has
            // already moved past `version_before` and the insert is
            // refused, so a stale-labelled entry can never land.
            let fresh = self.live.version() == version_before;
            for ((i, q), out) in misses.into_iter().zip(computed) {
                if fresh {
                    cache.insert(
                        TopKCacheKey::of(&q),
                        CachedTopK { result: out.clone(), version: version_before },
                    );
                }
                // PANIC-OK: every index in `misses` came from enumerating
                // `queries`, which sized `results`.
                results[i] = Some(out);
            }
        }
        // PANIC-OK: each slot was filled by the cache-hit loop or the miss
        // loop — `misses` holds exactly the indices the first loop skipped.
        results.into_iter().map(|r| r.expect("every query answered")).collect()
    }

    /// The coalescing pass itself (cache misses only).
    fn run_batch(&self, queries: Vec<TopKQuery>) -> TopKResults {
        self.core.submit(
            queries,
            // The single two-level pass over every query of every
            // coalesced job: queries across workers, spare workers into
            // shard fan-out. One snapshot serves the whole pass.
            |flat| {
                let snap = self.live.snapshot();
                let split = two_level_split(flat.len(), self.threads);
                parallel_map_indexed(flat.len(), split.outer, |i| {
                    // PANIC-OK: `i < flat.len()` by parallel_map_indexed's
                    // contract.
                    let q = flat[i];
                    let known = if q.filtered {
                        snap.known_answers(q.triple, q.side)
                    } else {
                        // PANIC-OK: full-range slice of an empty array
                        // literal — cannot be out of bounds.
                        std::borrow::Cow::Borrowed(&[][..])
                    };
                    self.engine.top_k_fanout(q.triple, q.side, &known, q.k, split.inner)
                })
            },
            |jobs, queries| {
                if let Some(m) = &self.metrics {
                    m.observe_topk_batch(jobs, queries);
                }
                self.adapt_window(jobs, queries);
            },
        )
    }

    fn adapt_window(&self, jobs: usize, queries: usize) {
        self.core.adapt_window(jobs, queries, TOPK_WINDOW_GROW_QUERIES, |next| {
            if let Some(m) = &self.metrics {
                m.set_topk_window(&self.name, next);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::EntityId;
    use kg_models::KgcModel;

    struct Linear {
        n: usize,
    }

    impl KgcModel for Linear {
        fn name(&self) -> &'static str {
            "Linear"
        }
        fn dim(&self) -> usize {
            1
        }
        fn num_entities(&self) -> usize {
            self.n
        }
        fn num_relations(&self) -> usize {
            4
        }
        fn query_len(&self) -> usize {
            3
        }
        /// `[context entity, relation, 1.0 on the head side]`.
        fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
            let head_side = if side == QuerySide::Head { 1.0 } else { 0.0 };
            q.copy_from_slice(&[
                side.context(triple).0 as f32,
                triple.relation.0 as f32,
                head_side,
            ]);
        }
        fn score_rows(&self, q: &[f32], rows: std::ops::Range<usize>, out: &mut [f32]) {
            for (o, e) in out.iter_mut().zip(rows) {
                *o = Linear::row(q, e);
            }
        }
        fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
            for (o, &c) in out.iter_mut().zip(candidates) {
                *o = Linear::row(q, c.index());
            }
        }
    }

    impl Linear {
        /// `score(h, r, t) = 10000·h + 100·r + t` with row `e` in the slot
        /// the query leaves open.
        fn row(q: &[f32], e: usize) -> f32 {
            let (h, t) = if q[2] == 0.0 { (q[0], e as f32) } else { (e as f32, q[0]) };
            h * 10_000.0 + q[1] * 100.0 + t
        }
    }

    fn batcher(window_us: u64) -> Arc<ScoreBatcher> {
        batcher_with(window_us, None)
    }

    fn batcher_with(window_us: u64, metrics: Option<Arc<HttpMetrics>>) -> Arc<ScoreBatcher> {
        let engine = Arc::new(ScoringEngine::new(Arc::new(Linear { n: 50 }), 1));
        Arc::new(ScoreBatcher::new(engine, "linear", Duration::from_micros(window_us), 2, metrics))
    }

    #[test]
    fn single_job_scores_in_order() {
        let b = batcher(0);
        let triples = vec![Triple::new(1, 2, 3), Triple::new(4, 0, 9)];
        let scores = b.submit(triples);
        assert_eq!(scores, vec![10_203.0, 40_009.0]);
        assert_eq!(b.batches_run(), 1);
    }

    #[test]
    fn empty_job_is_free() {
        let b = batcher(0);
        assert!(b.submit(Vec::new()).is_empty());
        assert_eq!(b.batches_run(), 0);
    }

    #[test]
    fn concurrent_jobs_coalesce_and_split_correctly() {
        let metrics = Arc::new(HttpMetrics::new());
        let b = batcher_with(3_000, Some(Arc::clone(&metrics)));
        let mut handles = Vec::new();
        for worker in 0..8u32 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let triples: Vec<Triple> =
                    (0..=worker).map(|i| Triple::new(worker, i % 4, i)).collect();
                let scores = b.submit(triples.clone());
                (triples, scores)
            }));
        }
        for h in handles {
            let (triples, scores) = h.join().unwrap();
            assert_eq!(scores.len(), triples.len());
            for (t, s) in triples.iter().zip(&scores) {
                assert_eq!(
                    *s,
                    t.head.0 as f32 * 10_000.0 + t.relation.0 as f32 * 100.0 + t.tail.0 as f32,
                    "job result misaligned for {t:?}"
                );
            }
        }
        // 8 concurrent jobs, 36 triples total, in (far) fewer than 8 passes.
        assert!(b.batches_run() <= 8);
        assert!(metrics.render().contains("kg_serve_score_batch_jobs_total 8"));
    }

    #[test]
    fn sequential_jobs_never_strand() {
        let b = batcher(100);
        for i in 0..20u32 {
            let scores = b.submit(vec![Triple::new(i % 5, 0, i % 7)]);
            assert_eq!(scores.len(), 1);
        }
        assert_eq!(b.batches_run(), 20);
    }

    #[test]
    fn window_widens_under_load_and_shrinks_when_idle() {
        let metrics = Arc::new(HttpMetrics::new());
        let b = batcher_with(50, Some(Arc::clone(&metrics)));
        assert_eq!(b.current_window_us(), 50);
        // A genuinely coalesced, large batch widens the window.
        b.adapt_window(3, WINDOW_GROW_TRIPLES);
        assert_eq!(b.current_window_us(), 100);
        // Repeated load saturates at the cap.
        for _ in 0..10 {
            b.adapt_window(4, WINDOW_GROW_TRIPLES * 2);
        }
        assert_eq!(b.current_window_us(), 50 * WINDOW_GROWTH_CAP);
        // Idle uncoalesced batches decay back to the base.
        for _ in 0..10 {
            b.adapt_window(1, 1);
        }
        assert_eq!(b.current_window_us(), 50);
        // The current window is exported in the metrics text.
        assert!(
            metrics.render().contains("kg_serve_score_batch_window_us{model=\"linear\"} 50"),
            "{}",
            metrics.render()
        );
        // End to end: submitting through the real path keeps the invariants.
        b.submit(vec![Triple::new(1, 0, 1)]);
        assert_eq!(b.current_window_us(), 50);
    }

    #[test]
    fn single_client_big_batches_never_widen_the_window() {
        // One job per batch (no coalescing): a longer sleep cannot help, so
        // the window must not ratchet up no matter the triple count.
        let b = batcher_with(50, None);
        for _ in 0..5 {
            let big: Vec<Triple> = (0..200u32).map(|i| Triple::new(i % 5, 0, i % 7)).collect();
            b.submit(big);
        }
        assert_eq!(b.current_window_us(), 50);
    }

    #[test]
    fn zero_base_window_never_adapts() {
        let b = batcher(0);
        b.adapt_window(8, 10_000);
        assert_eq!(b.current_window_us(), 0, "zero window means no sleeping, ever");
        let big: Vec<Triple> = (0..200u32).map(|i| Triple::new(i % 5, 0, i % 7)).collect();
        b.submit(big);
        assert_eq!(b.current_window_us(), 0);
    }

    /// Delegates to [`Linear`] but panics when scoring head 13 — the
    /// poison pill for the batch-poisoning regression test.
    struct PanicOnHead13 {
        inner: Linear,
    }

    impl KgcModel for PanicOnHead13 {
        fn name(&self) -> &'static str {
            "PanicOnHead13"
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn num_entities(&self) -> usize {
            self.inner.num_entities()
        }
        fn num_relations(&self) -> usize {
            self.inner.num_relations()
        }
        fn query_len(&self) -> usize {
            self.inner.query_len()
        }
        fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
            assert_ne!(triple.head.0, 13, "poison triple");
            self.inner.build_query(triple, side, q)
        }
        fn score_rows(&self, q: &[f32], rows: std::ops::Range<usize>, out: &mut [f32]) {
            self.inner.score_rows(q, rows, out)
        }
        fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
            self.inner.score_gathered(q, candidates, out)
        }
    }

    #[test]
    fn a_panicking_batch_poisons_its_jobs_instead_of_stranding_them() {
        // Regression: a panic in the execution pass used to fill *no*
        // slot, leaving every coalesced follower waiting on its condvar
        // forever (one stuck pool worker + connection permit each). Now
        // the leader poisons every drained slot before re-raising, so
        // each submitter fails its own request and the batcher recovers.
        let engine =
            Arc::new(ScoringEngine::new(Arc::new(PanicOnHead13 { inner: Linear { n: 50 } }), 1));
        let b = Arc::new(ScoreBatcher::new(engine, "poison", Duration::from_millis(5), 2, None));
        let mut handles = Vec::new();
        for worker in 0..6u32 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let h = if worker == 0 { 13 } else { worker % 5 };
                b.submit(vec![Triple::new(h, 0, 1)])
            }));
        }
        // Every join RETURNS — a stranded follower would hang this loop.
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        assert!(
            outcomes.iter().any(|o| o.is_err()),
            "the batch containing the poison triple must fail its submitters"
        );
        for ok in outcomes.into_iter().flatten() {
            assert_eq!(ok.len(), 1, "innocent batches still score correctly");
        }
        // A fresh submission elects a new leader and succeeds.
        assert_eq!(b.submit(vec![Triple::new(1, 2, 3)]), vec![10_203.0]);
    }

    fn topk_batcher_with(
        window_us: u64,
        metrics: Option<Arc<HttpMetrics>>,
    ) -> (Arc<TopKBatcher>, Arc<ScoringEngine>, Arc<kg_core::FilterIndex>) {
        let engine = Arc::new(ScoringEngine::new(Arc::new(Linear { n: 50 }), 5));
        let triples: Vec<Triple> = (0..20u32).map(|i| Triple::new(i % 50, i % 4, i + 5)).collect();
        let filter = Arc::new(kg_core::FilterIndex::from_slices(&[&triples]));
        let b = Arc::new(TopKBatcher::new(
            Arc::clone(&engine),
            Arc::new(LiveGraph::new(Arc::clone(&filter))),
            "linear",
            Duration::from_micros(window_us),
            4,
            metrics,
        ));
        (b, engine, filter)
    }

    #[test]
    fn topk_single_job_matches_the_engine() {
        let (b, engine, filter) = topk_batcher_with(0, None);
        let queries = vec![
            TopKQuery { triple: Triple::new(3, 1, 0), side: QuerySide::Tail, k: 7, filtered: true },
            TopKQuery {
                triple: Triple::new(0, 2, 9),
                side: QuerySide::Head,
                k: 3,
                filtered: false,
            },
        ];
        let results = b.submit(queries.clone());
        assert_eq!(results.len(), 2);
        for (q, got) in queries.iter().zip(&results) {
            let known = if q.filtered { filter.known_answers(q.triple, q.side) } else { &[][..] };
            assert_eq!(got, &engine.top_k(q.triple, q.side, known, q.k), "{q:?}");
        }
        assert_eq!(b.batches_run(), 1);
        assert!(b.submit(Vec::new()).is_empty(), "empty jobs never run a batch");
        assert_eq!(b.batches_run(), 1);
    }

    #[test]
    fn topk_concurrent_jobs_coalesce_with_mixed_k_and_filtering() {
        let metrics = Arc::new(HttpMetrics::new());
        let (b, engine, filter) = topk_batcher_with(3_000, Some(Arc::clone(&metrics)));
        let mut handles = Vec::new();
        for worker in 0..8u32 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let queries: Vec<TopKQuery> = (0..=(worker % 3))
                    .map(|i| TopKQuery {
                        triple: Triple::new(worker, (i + worker) % 4, 0),
                        side: if i % 2 == 0 { QuerySide::Tail } else { QuerySide::Head },
                        k: 1 + (worker as usize + i as usize) % 9,
                        filtered: worker % 2 == 0,
                    })
                    .collect();
                (queries.clone(), b.submit(queries))
            }));
        }
        for h in handles {
            let (queries, results) = h.join().unwrap();
            assert_eq!(results.len(), queries.len());
            for (q, got) in queries.iter().zip(&results) {
                let known =
                    if q.filtered { filter.known_answers(q.triple, q.side) } else { &[][..] };
                assert_eq!(got, &engine.top_k(q.triple, q.side, known, q.k), "{q:?}");
            }
        }
        assert!(b.batches_run() <= 8, "concurrent jobs coalesced into fewer passes");
        assert!(
            metrics.render().contains("kg_serve_topk_batch_jobs_total 8"),
            "{}",
            metrics.render()
        );
    }

    #[test]
    fn topk_cache_hits_same_version_and_misses_after_touching_delta() {
        let metrics = Arc::new(HttpMetrics::new());
        let engine = Arc::new(ScoringEngine::new(Arc::new(Linear { n: 50 }), 5));
        let triples: Vec<Triple> = (0..20u32).map(|i| Triple::new(i % 50, i % 4, i + 5)).collect();
        let filter = Arc::new(kg_core::FilterIndex::from_slices(&[&triples]));
        let live = Arc::new(LiveGraph::new(filter));
        let b = TopKBatcher::new(
            Arc::clone(&engine),
            Arc::clone(&live),
            "linear",
            Duration::ZERO,
            2,
            Some(Arc::clone(&metrics)),
        );
        let q =
            TopKQuery { triple: Triple::new(3, 1, 0), side: QuerySide::Tail, k: 5, filtered: true };
        let other =
            TopKQuery { triple: Triple::new(9, 2, 0), side: QuerySide::Tail, k: 5, filtered: true };
        let first = b.submit(vec![q, other]);
        assert_eq!(b.batches_run(), 1);
        let again = b.submit(vec![q, other]);
        assert_eq!(again, first, "cached results are byte-identical");
        assert_eq!(b.batches_run(), 1, "a full cache hit runs no ranking pass");
        let text = metrics.render();
        assert!(text.contains("kg_serve_topk_cache_hits_total 2"), "{text}");
        assert!(text.contains("kg_serve_topk_cache_misses_total 2"), "{text}");

        // A delta touching (3, r1) tails invalidates q but not `other`.
        let delta =
            kg_core::GraphDelta::new(vec![Triple::new(3, 1, 42), Triple::new(3, 1, 7)], vec![]);
        let outcome = live.apply(&delta);
        b.invalidate(&outcome.keys, outcome.version);
        assert_eq!(b.cached_results(), 1, "only the touched entry is dropped");
        let post = b.submit(vec![q, other]);
        assert_eq!(b.batches_run(), 2, "the touched query re-ranks, the survivor hits");
        assert_eq!(post[1], first[1], "untouched query survives the delta");
        assert!(
            !post[0].iter().any(|&(e, _)| e == 42),
            "re-ranked result excludes the freshly inserted tail: {:?}",
            post[0]
        );
    }

    #[test]
    fn topk_unfiltered_entries_survive_deltas() {
        let engine = Arc::new(ScoringEngine::new(Arc::new(Linear { n: 50 }), 1));
        let filter = Arc::new(kg_core::FilterIndex::from_slices(&[&[Triple::new(1, 0, 2)][..]]));
        let live = Arc::new(LiveGraph::new(filter));
        let b = TopKBatcher::new(
            Arc::clone(&engine),
            Arc::clone(&live),
            "linear",
            Duration::ZERO,
            1,
            None,
        );
        let q =
            TopKQuery { triple: Triple::new(1, 0, 0), side: QuerySide::Tail, k: 3, filtered: true };
        b.submit(vec![q]);
        assert_eq!(b.cached_results(), 1);
        // Unfiltered entries survive any delta (they never read the graph).
        let unf = TopKQuery { filtered: false, ..q };
        b.submit(vec![unf]);
        assert_eq!(b.cached_results(), 2);
        let outcome = live.apply(&kg_core::GraphDelta::new(vec![Triple::new(1, 0, 9)], vec![]));
        b.invalidate(&outcome.keys, outcome.version);
        assert_eq!(
            b.cached_results(),
            1,
            "the filtered entry was touched; the unfiltered survives"
        );
        // The unfiltered survivor still hits at the new version.
        b.submit(vec![unf]);
        assert_eq!(b.batches_run(), 2, "unfiltered entry re-stamped, no extra pass");
    }

    #[test]
    fn topk_window_adapts_like_the_score_batcher() {
        let metrics = Arc::new(HttpMetrics::new());
        let (b, _, _) = topk_batcher_with(50, Some(Arc::clone(&metrics)));
        assert_eq!(b.current_window_us(), 50);
        b.adapt_window(2, TOPK_WINDOW_GROW_QUERIES);
        assert_eq!(b.current_window_us(), 100, "coalesced batches widen the window");
        for _ in 0..10 {
            b.adapt_window(3, TOPK_WINDOW_GROW_QUERIES * 2);
        }
        assert_eq!(b.current_window_us(), 50 * WINDOW_GROWTH_CAP);
        for _ in 0..10 {
            b.adapt_window(1, 1);
        }
        assert_eq!(b.current_window_us(), 50, "idle batches decay back to the base");
        // One job per batch never widens, no matter how many queries.
        b.adapt_window(1, 100);
        assert_eq!(b.current_window_us(), 50);
        assert!(
            metrics.render().contains("kg_serve_topk_batch_window_us{model=\"linear\"} 50"),
            "{}",
            metrics.render()
        );
    }
}
