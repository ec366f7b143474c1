//! Request coalescing for `/score` and `/topk`: concurrent requests against
//! the same model are merged into one flat work list and executed in a
//! single parallel pass ([`ScoreBatcher`] scores triples through
//! [`parallel_map_indexed`]; [`TopKBatcher`] runs full-ranking top-k
//! queries through the two-level query × shard work plan).
//!
//! Why batch at all: each HTTP request alone would spin up a scoped thread
//! team for a handful of triples; under concurrent load that is one team
//! per request fighting over cores. Coalescing amortises the fan-out across
//! every request that is already waiting when a pass starts.
//!
//! Protocol — batch what is waiting, never wait to batch (group commit).
//! One pass runs at a time per batcher, because a pass already owns every
//! scoring thread of the model and a second concurrent pass could only
//! oversubscribe them. A submitter that finds no pass running leads
//! **immediately**: it drains everything pending (at least itself), runs
//! the pass, scatters the results, then hands leadership to the oldest job
//! that queued up meanwhile — or clears the flag when nothing did. A
//! submitter that finds a pass running enqueues and waits on its job's
//! condvar, so the arrivals during pass *k* are exactly the batch of pass
//! *k + 1*. There is no timer and nothing to tune: a lone client is never
//! delayed, and batches grow only as fast as passes are slow.
//!
//! The trade: a small job that arrives behind a long pass waits for that
//! one pass to finish (it is served by the very next one) instead of
//! running beside it on the same, already busy, threads.
//!
//! Why nothing strands (enqueue, drain and hand-off are serialised by one
//! mutex): a job either observes `pass_running == false` and leads, or is
//! pending at the running leader's hand-off, which promotes the oldest
//! pending job; the promoted leader drains *everything* pending, so a job
//! enqueued before pass *k* ends is answered by pass *k + 1* at the latest.
//! A *panicking* pass cannot strand anyone either: the leader poisons every
//! slot it drained, hands leadership on exactly as after a clean pass, and
//! only then re-raises — its own batch fails request by request, the jobs
//! queued behind it are served.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use kg_core::ids::{EntityId, RelationId};
use kg_core::parallel::{parallel_map_indexed, two_level_split};
use kg_core::triple::QuerySide;
use kg_core::{LiveFilterIndex, LiveGraph, Triple};
use kg_models::ScoringEngine;

use crate::http_metrics::{Family, HttpMetrics};
use crate::registry::LruCache;

/// What one job's wait ends with.
enum Outcome<O> {
    /// The job's slice of the batch results, in input order.
    Done(Vec<O>),
    /// The batch's execution pass panicked; the waiter must fail its own
    /// request rather than wait forever.
    Poisoned,
    /// The previous leader handed leadership on: this job's submitter runs
    /// the next pass (the job itself is still pending and joins it).
    Lead,
}

/// One request's slot: filled by whichever thread leads the batch.
struct JobSlot<O> {
    result: Mutex<Option<Outcome<O>>>,
    ready: Condvar,
}

impl<O> JobSlot<O> {
    fn wake(&self, outcome: Outcome<O>) {
        *self.result.lock().unwrap() = Some(outcome);
        self.ready.notify_all();
    }
}

struct Pending<I, O> {
    items: Vec<I>,
    slot: Arc<JobSlot<O>>,
}

struct CoreState<I, O> {
    /// Jobs not yet drained into a pass, oldest first.
    pending: Vec<Pending<I, O>>,
    /// A leader exists: it is running a pass or has been promoted to.
    pass_running: bool,
}

/// The shared coalescing machinery behind [`ScoreBatcher`] and
/// [`TopKBatcher`]: leadership and its hand-off, flattening jobs into one
/// work list, scattering results back, and poisoning every waiter when the
/// execution pass panics (so a panic costs the coalesced requests, never
/// pool workers stuck in an eternal condvar wait).
struct BatchCore<I, O> {
    state: Mutex<CoreState<I, O>>,
    batches_run: AtomicU64,
}

impl<I: Copy, O> BatchCore<I, O> {
    fn new() -> Self {
        BatchCore {
            state: Mutex::new(CoreState { pending: Vec::new(), pass_running: false }),
            batches_run: AtomicU64::new(0),
        }
    }

    fn batches_run(&self) -> u64 {
        self.batches_run.load(Ordering::Relaxed)
    }

    /// Jobs enqueued and not yet drained into a pass.
    #[cfg(test)]
    fn pending_jobs(&self) -> usize {
        self.state.lock().unwrap().pending.len()
    }

    /// Run `items` through the batcher: coalesce with every submission
    /// waiting when the pass starts, execute the merged work list with
    /// `run` (exactly one output per input item), report each completed
    /// batch's `(jobs, items)` to `after` (metrics). Blocks until the
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
        let mut leads = {
            let mut state = self.state.lock().unwrap();
            state.pending.push(Pending { items, slot: Arc::clone(&slot) });
            !std::mem::replace(&mut state.pass_running, true)
        };
        loop {
            if leads {
                // Fills this job's own slot along with the rest of the
                // batch, so the wait below returns at once.
                self.lead(&run, &after);
            }
            let mut result = slot.result.lock().unwrap();
            while result.is_none() {
                // PANIC-OK: condvar wait only errors on mutex poisoning,
                // i.e. a panic that already happened elsewhere — rethrowing
                // it here adds no new panic surface.
                result = slot.ready.wait(result).unwrap();
            }
            // PANIC-OK: the loop above exits only when the slot was filled.
            match result.take().unwrap() {
                Outcome::Done(out) => return out,
                Outcome::Poisoned => {
                    // PANIC-OK: deliberate panic propagation — the leader's
                    // execution pass panicked and `resume_unwind` already
                    // tore down that request; followers must fail too, not
                    // hang.
                    panic!("coalesced batch panicked in another request's execution pass")
                }
                Outcome::Lead => leads = true,
            }
        }
    }

    /// One pass as leader: drain everything pending, run it, wake every
    /// drained job with its results (or poison), pass leadership on.
    fn lead<R, A>(&self, run: &R, after: &A)
    where
        R: Fn(&[I]) -> Vec<O>,
        A: Fn(usize, usize),
    {
        let batch = std::mem::take(&mut self.state.lock().unwrap().pending);
        let flat: Vec<I> = batch.iter().flat_map(|job| job.items.iter().copied()).collect();
        // The execution pass runs under catch_unwind so a panicking model
        // can never leave followers waiting on slots that no one will ever
        // fill. A wrong-length result is routed through the same poison
        // path: scattering it would hand some job another job's outputs.
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
        let failed = match outcome {
            Ok(outputs) => {
                self.batches_run.fetch_add(1, Ordering::Relaxed);
                let mut outputs = outputs.into_iter();
                for job in &batch {
                    let out = outputs.by_ref().take(job.items.len()).collect();
                    job.slot.wake(Outcome::Done(out));
                }
                None
            }
            Err(payload) => {
                for job in &batch {
                    job.slot.wake(Outcome::Poisoned);
                }
                Some(payload)
            }
        };
        // Leadership moves on before anything else that could unwind: the
        // jobs queued behind a panicking pass are served, not stranded.
        self.hand_off();
        match failed {
            None => after(batch.len(), flat.len()),
            Some(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Promote the oldest job that queued up during the pass, or clear the
    /// flag so the next submitter leads.
    fn hand_off(&self) {
        let next = {
            let mut state = self.state.lock().unwrap();
            let next = state.pending.first().map(|job| Arc::clone(&job.slot));
            state.pass_running = next.is_some();
            next
        };
        // Signalled after the state guard is gone (no nested lock). The
        // promoted job stays pending, and `pass_running` stays set, so
        // arrivals in between simply join the pass it is about to lead.
        if let Some(slot) = next {
            slot.wake(Outcome::Lead);
        }
    }
}

/// One ranked pass over `queries`, shared by `/topk` batches and the
/// `/shard/*` endpoints: **one** [`LiveGraph`] snapshot serves every query
/// (a pass sees a single graph version even if deltas land while it runs),
/// queries spread across `threads` workers with spare threads handed to
/// each query's own fan-out ([`two_level_split`]). `target` names a
/// query's `(triple, side, filtered)`; `rank` is the per-query engine call,
/// given the known answers to remove (empty when unfiltered) and its
/// inner thread budget.
pub(crate) fn ranked_pass<Q: Sync, T: Send + Default + Clone>(
    live: &LiveGraph,
    threads: usize,
    queries: &[Q],
    target: impl Fn(&Q) -> (Triple, QuerySide, bool) + Sync,
    rank: impl Fn(&Q, &[EntityId], usize) -> T + Sync,
) -> Vec<T> {
    let snapshot = live.snapshot();
    let split = two_level_split(queries.len(), threads);
    parallel_map_indexed(queries.len(), split.outer, |i| {
        // PANIC-OK: `i < queries.len()` by parallel_map_indexed's contract.
        let q = &queries[i];
        let (triple, side, filtered) = target(q);
        let known = if filtered {
            snapshot.known_answers(triple, side)
        } else {
            // PANIC-OK: full-range slice of an empty array literal —
            // cannot be out of bounds.
            Cow::Borrowed(&[][..])
        };
        rank(q, &known, split.inner)
    })
}

/// Coalesces concurrent score requests for one model.
pub struct ScoreBatcher {
    engine: Arc<ScoringEngine>,
    core: BatchCore<Triple, f32>,
    threads: usize,
    metrics: Option<Arc<HttpMetrics>>,
}

impl ScoreBatcher {
    /// Batcher over `engine`, scoring with `threads` workers. Batch sizes
    /// are recorded into `metrics` when provided — held by the batcher
    /// itself so every coalesced batch is observed no matter which
    /// submitter ends up leading it.
    pub fn new(
        engine: Arc<ScoringEngine>,
        threads: usize,
        metrics: Option<Arc<HttpMetrics>>,
    ) -> Self {
        ScoreBatcher { engine, core: BatchCore::new(), threads: threads.max(1), metrics }
    }

    /// Number of scoring passes executed so far.
    pub fn batches_run(&self) -> u64 {
        self.core.batches_run()
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
            },
        )
    }
}

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

/// A cached result and the version of the snapshot its submitter held
/// when it asked (its pass ran on that snapshot or a later one).
struct CachedTopK {
    result: Vec<(u32, f32)>,
    version: u64,
}

impl CachedTopK {
    /// Whether this result answers `q` exactly for a reader holding
    /// `snapshot` ([`kg_core::live`]'s rule; unfiltered reads no key).
    fn valid_on(&self, snapshot: &LiveFilterIndex, q: &TopKQuery) -> bool {
        self.version <= snapshot.version()
            && (!q.filtered || snapshot.answers_changed_at(q.triple, q.side) <= self.version)
    }
}

/// Coalesces concurrent `/topk` requests for one model into a single
/// multi-query fan-out pass.
///
/// Same [`BatchCore`] leadership protocol as [`ScoreBatcher`], but the
/// merged batch is executed as one [`ranked_pass`]: the coalesced queries
/// are spread across worker threads, and any spare threads fan each
/// query's entity shards out via [`ScoringEngine::top_k_fanout`]. One
/// concurrent query → pure shard fan-out; `threads`+ concurrent queries →
/// pure query-parallelism; anything between gets both levels.
///
/// ## Live graphs
///
/// Filtered queries resolve known answers against a snapshot of the
/// model's [`LiveGraph`], taken **once per coalesced pass** by the leader
/// — every query in a batch sees one consistent graph version. Results
/// are memoised in an LRU ([`TOPK_CACHE_CAPACITY`] entries), each stamped
/// with the version `v` of the snapshot its submitter took before asking.
/// A write never touches the cache: a submitter holding snapshot `s` is
/// served an entry iff `v ≤ s.version()` and, for a filtered query, its
/// `(context, relation)` key has not changed since `v`
/// ([`LiveFilterIndex::answers_changed_at`]) — key-granular, decided from
/// the immutable snapshot alone, and exact by the argument in
/// [`kg_core::live`]: the bytes a cold server would send at a version the
/// graph carried while the submitter waited. Unfiltered entries read no
/// key and stay valid.
pub struct TopKBatcher {
    engine: Arc<ScoringEngine>,
    live: Arc<LiveGraph>,
    core: BatchCore<TopKQuery, Vec<(u32, f32)>>,
    cache: Mutex<LruCache<TopKCacheKey, CachedTopK>>,
    threads: usize,
    metrics: Option<Arc<HttpMetrics>>,
}

impl TopKBatcher {
    /// Batcher running top-k passes for `engine`, removing known answers
    /// of filtered queries via snapshots of `live`, with `threads` total
    /// workers per pass.
    pub fn new(
        engine: Arc<ScoringEngine>,
        live: Arc<LiveGraph>,
        threads: usize,
        metrics: Option<Arc<HttpMetrics>>,
    ) -> Self {
        TopKBatcher {
            engine,
            live,
            core: BatchCore::new(),
            cache: Mutex::new(LruCache::new(TOPK_CACHE_CAPACITY)),
            threads: threads.max(1),
            metrics,
        }
    }

    /// Number of top-k passes executed so far.
    pub fn batches_run(&self) -> u64 {
        self.core.batches_run()
    }

    /// Cached query results currently held, stale ones included (tests).
    pub fn cached_results(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Run `queries`, coalescing with any concurrent submissions; blocks
    /// until the batch containing this job has been executed. Returns one
    /// result list per query, in input order. Cached results still valid
    /// on this submitter's snapshot are answered without ranking.
    pub fn submit(&self, queries: Vec<TopKQuery>) -> TopKResults {
        if queries.is_empty() {
            return Vec::new();
        }
        // Taken before the cache lock: no lock is ever acquired under it.
        let snapshot = self.live.snapshot();
        let mut results: Vec<Option<Vec<(u32, f32)>>> = vec![None; queries.len()];
        let mut misses: Vec<(usize, TopKQuery)> = Vec::new();
        {
            let mut cache = self.cache.lock().unwrap();
            for (i, q) in queries.iter().enumerate() {
                match cache.get(&TopKCacheKey::of(q)) {
                    // PANIC-OK: `i` enumerates `queries`, and `results` was
                    // sized to `queries.len()` two lines up.
                    Some(c) if c.valid_on(&snapshot, q) => results[i] = Some(c.result.clone()),
                    _ => misses.push((i, *q)),
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.add(Family::TopkCacheHits, &[], (queries.len() - misses.len()) as u64);
            m.add(Family::TopkCacheMisses, &[], misses.len() as u64);
        }
        if !misses.is_empty() {
            let miss_queries: Vec<TopKQuery> = misses.iter().map(|&(_, q)| q).collect();
            let computed = self.run_batch(miss_queries);
            let mut cache = self.cache.lock().unwrap();
            for ((i, q), out) in misses.into_iter().zip(computed) {
                cache.insert(
                    TopKCacheKey::of(&q),
                    CachedTopK { result: out.clone(), version: snapshot.version() },
                );
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
            // One ranked pass (one snapshot) over every query of every
            // coalesced job.
            |flat| {
                ranked_pass(
                    &self.live,
                    self.threads,
                    flat,
                    |q| (q.triple, q.side, q.filtered),
                    |q, known, inner| self.engine.top_k_fanout(q.triple, q.side, known, q.k, inner),
                )
            },
            |jobs, queries| {
                if let Some(m) = &self.metrics {
                    m.observe_topk_batch(jobs, queries);
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::EntityId;
    use kg_models::KgcModel;
    use std::sync::mpsc;

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

    fn batcher() -> Arc<ScoreBatcher> {
        batcher_with(None)
    }

    fn batcher_with(metrics: Option<Arc<HttpMetrics>>) -> Arc<ScoreBatcher> {
        let engine = Arc::new(ScoringEngine::new(Arc::new(Linear { n: 50 }), 1));
        Arc::new(ScoreBatcher::new(engine, 2, metrics))
    }

    #[test]
    fn single_job_scores_in_order() {
        let b = batcher();
        let triples = vec![Triple::new(1, 2, 3), Triple::new(4, 0, 9)];
        let scores = b.submit(triples);
        assert_eq!(scores, vec![10_203.0, 40_009.0]);
        assert_eq!(b.batches_run(), 1);
    }

    #[test]
    fn empty_job_is_free() {
        let b = batcher();
        assert!(b.submit(Vec::new()).is_empty());
        assert_eq!(b.batches_run(), 0);
    }

    #[test]
    fn concurrent_jobs_coalesce_and_split_correctly() {
        let metrics = Arc::new(HttpMetrics::new());
        let b = batcher_with(Some(Arc::clone(&metrics)));
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
        let b = batcher();
        for i in 0..20u32 {
            let scores = b.submit(vec![Triple::new(i % 5, 0, i % 7)]);
            assert_eq!(scores.len(), 1);
        }
        assert_eq!(b.batches_run(), 20);
    }

    /// Delegates to [`Linear`] after running `hook` on the query triple —
    /// where a test makes a pass panic or holds it open.
    struct Hooked {
        inner: Linear,
        hook: Box<dyn Fn(Triple) + Send + Sync>,
    }

    impl Hooked {
        fn engine(hook: Box<dyn Fn(Triple) + Send + Sync>, shards: usize) -> Arc<ScoringEngine> {
            Arc::new(ScoringEngine::new(Arc::new(Hooked { inner: Linear { n: 50 }, hook }), shards))
        }
    }

    impl KgcModel for Hooked {
        fn name(&self) -> &'static str {
            "Hooked"
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
            (self.hook)(triple);
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
        let poison = Box::new(|t: Triple| assert_ne!(t.head.0, 13, "poison triple"));
        let b = Arc::new(ScoreBatcher::new(Hooked::engine(poison, 1), 2, None));
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

    /// Head of the triple that holds its pass at the [`gate`].
    const GATE_HEAD: u32 = 49;

    /// What a test tells the pass held at the gate to do next.
    enum Release {
        Proceed,
        Panic,
    }

    /// The test's side of a [`gate`].
    struct Gate {
        entered: mpsc::Receiver<()>,
        release: mpsc::Sender<Release>,
    }

    impl Gate {
        /// Block until a pass is held at the gate.
        fn await_pass(&self) {
            self.entered.recv().unwrap();
        }

        fn release(&self, how: Release) {
            self.release.send(how).unwrap();
        }
    }

    /// A [`Hooked`] hook that, on a triple with head [`GATE_HEAD`], reports
    /// in and then blocks until the test releases it: the pass containing
    /// that triple stays open exactly as long as the test wants, so "while
    /// a pass is running" is a state the test is in, not a race it hopes
    /// to win.
    fn gate() -> (Box<dyn Fn(Triple) + Send + Sync>, Gate) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let hook = move |t: Triple| {
            if t.head.0 != GATE_HEAD {
                return;
            }
            entered_tx.lock().unwrap().send(()).unwrap();
            if let Release::Panic = release_rx.lock().unwrap().recv().unwrap() {
                panic!("pass released with Release::Panic");
            }
        };
        (Box::new(hook), Gate { entered, release })
    }

    fn gated_batcher() -> (Arc<ScoreBatcher>, Gate, Arc<HttpMetrics>) {
        let (hook, gate) = gate();
        let metrics = Arc::new(HttpMetrics::new());
        let b = ScoreBatcher::new(Hooked::engine(hook, 1), 2, Some(Arc::clone(&metrics)));
        (Arc::new(b), gate, metrics)
    }

    fn gated_job() -> Vec<Triple> {
        vec![Triple::new(GATE_HEAD, 0, 1)]
    }

    /// Ungated job `i`: one to three triples, distinct per `i`.
    fn job(i: u32) -> Vec<Triple> {
        (0..=i % 3).map(|j| Triple::new(i % 40, j, i + j)).collect()
    }

    fn assert_scored(triples: &[Triple], scores: &[f32]) {
        let want: Vec<f32> = triples
            .iter()
            .map(|t| t.head.0 as f32 * 10_000.0 + t.relation.0 as f32 * 100.0 + t.tail.0 as f32)
            .collect();
        assert_eq!(scores, want, "job result misaligned for {triples:?}");
    }

    type Submitted = (Vec<Triple>, std::thread::JoinHandle<Vec<f32>>);

    /// Submit each of `jobs` from its own thread.
    fn spawn_jobs(b: &Arc<ScoreBatcher>, jobs: Vec<Vec<Triple>>) -> Vec<Submitted> {
        jobs.into_iter()
            .map(|triples| {
                let b = Arc::clone(b);
                let job = triples.clone();
                (triples, std::thread::spawn(move || b.submit(job)))
            })
            .collect()
    }

    /// [`spawn_jobs`] while a pass is held at the gate; returns once every
    /// job is enqueued behind that pass.
    fn queue_behind(b: &Arc<ScoreBatcher>, jobs: Vec<Vec<Triple>>) -> Vec<Submitted> {
        assert_eq!(b.core.pending_jobs(), 0, "the held pass drained the queue");
        let n = jobs.len();
        let submitted = spawn_jobs(b, jobs);
        while b.core.pending_jobs() < n {
            std::thread::yield_now();
        }
        submitted
    }

    fn assert_all_served(submitted: Vec<Submitted>) {
        for (triples, handle) in submitted {
            assert_scored(&triples, &handle.join().expect("job served, not poisoned"));
        }
    }

    /// The value of an unlabelled counter in a `/metrics` rendering.
    fn series(metrics: &HttpMetrics, name: &str) -> u64 {
        let text = metrics.render();
        let line = text.lines().find(|l| l.split(' ').next() == Some(name));
        line.and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no series {name} in:\n{text}"))
    }

    #[test]
    fn arrivals_during_a_pass_are_answered_together_by_the_next_pass() {
        let (b, gate, metrics) = gated_batcher();
        let first = spawn_jobs(&b, vec![gated_job()]);
        gate.await_pass();
        let queued = queue_behind(&b, (0..5).map(job).collect());
        gate.release(Release::Proceed);
        assert_all_served(first);
        assert_all_served(queued);
        assert_eq!(b.batches_run(), 2, "five queued jobs, one pass");
        assert_eq!(series(&metrics, "kg_serve_score_batches_total"), 2);
        assert_eq!(series(&metrics, "kg_serve_score_batch_jobs_total"), 6);
    }

    #[test]
    fn a_queued_job_waits_for_one_pass_at_most() {
        let (b, gate, metrics) = gated_batcher();
        let first = spawn_jobs(&b, vec![gated_job()]);
        gate.await_pass();
        // Pass 2's batch; the gated job in it holds pass 2 open in turn.
        let mut second: Vec<Vec<Triple>> = (0..4).map(job).collect();
        second.push(gated_job());
        let second = queue_behind(&b, second);
        gate.release(Release::Proceed);
        gate.await_pass();
        // `queue_behind` asserts the queue is empty: pass 2 took everything
        // that was enqueued before pass 1 ended.
        let third = queue_behind(&b, (4..7).map(job).collect());
        gate.release(Release::Proceed);
        assert_all_served(first);
        assert_all_served(second);
        assert_all_served(third);
        assert_eq!(b.batches_run(), 3);
        assert_eq!(series(&metrics, "kg_serve_score_batch_jobs_total"), 1 + 5 + 3);
    }

    #[test]
    fn a_panicking_pass_hands_its_queue_to_a_promoted_leader() {
        let (b, gate, _) = gated_batcher();
        let mut first = spawn_jobs(&b, vec![gated_job()]);
        gate.await_pass();
        let queued = queue_behind(&b, (0..5).map(job).collect());
        gate.release(Release::Panic);
        assert!(first.remove(0).1.join().is_err(), "the panicking pass fails its own submitter");
        assert_all_served(queued);
        assert_eq!(b.batches_run(), 1, "one clean pass served all five");
        // Leadership was released, not leaked: a fresh submit leads itself.
        assert_eq!(b.submit(vec![Triple::new(1, 2, 3)]), vec![10_203.0]);
    }

    #[test]
    fn a_promoted_leader_that_panics_poisons_only_its_own_batch() {
        let (b, gate, _) = gated_batcher();
        let first = spawn_jobs(&b, vec![gated_job()]);
        gate.await_pass();
        // Pass 2: two jobs led by a promoted leader, panicking at the gate.
        let doomed = queue_behind(&b, vec![job(0), gated_job()]);
        gate.release(Release::Proceed);
        assert_all_served(first);
        gate.await_pass();
        let queued = queue_behind(&b, (1..4).map(job).collect());
        gate.release(Release::Panic);
        for (_, handle) in doomed {
            assert!(handle.join().is_err(), "leader re-raises, follower is poisoned");
        }
        assert_all_served(queued);
        assert_eq!(b.batches_run(), 2, "passes 1 and 3 were clean");
        assert_eq!(b.submit(vec![Triple::new(1, 2, 3)]), vec![10_203.0]);
    }

    #[test]
    fn many_threads_of_sequential_submits_are_each_answered_exactly_once() {
        let metrics = Arc::new(HttpMetrics::new());
        let b = batcher_with(Some(Arc::clone(&metrics)));
        let workers: Vec<_> = (0..8u32)
            .map(|w| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let triples = job(w * 200 + i);
                        assert_scored(&triples, &b.submit(triples.clone()));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(series(&metrics, "kg_serve_score_batch_jobs_total"), 1600);
        let triples: usize = (0..1600).map(|i| job(i).len()).sum();
        assert_eq!(series(&metrics, "kg_serve_score_batch_triples_total"), triples as u64);
        assert_eq!(b.core.pending_jobs(), 0);
    }

    fn base_filter() -> Arc<kg_core::FilterIndex> {
        let triples: Vec<Triple> = (0..20u32).map(|i| Triple::new(i % 50, i % 4, i + 5)).collect();
        Arc::new(kg_core::FilterIndex::from_slices(&[&triples]))
    }

    fn topk_batcher_with(
        metrics: Option<Arc<HttpMetrics>>,
    ) -> (Arc<TopKBatcher>, Arc<ScoringEngine>, Arc<kg_core::FilterIndex>) {
        let engine = Arc::new(ScoringEngine::new(Arc::new(Linear { n: 50 }), 5));
        let filter = base_filter();
        let b = Arc::new(TopKBatcher::new(
            Arc::clone(&engine),
            Arc::new(LiveGraph::new(Arc::clone(&filter))),
            4,
            metrics,
        ));
        (b, engine, filter)
    }

    /// Top-k job `i`: one to three queries of mixed side and `k`, filtered
    /// for even `i`.
    fn topk_job(i: u32) -> Vec<TopKQuery> {
        (0..=(i % 3))
            .map(|j| TopKQuery {
                triple: Triple::new(i % 40, (j + i) % 4, 0),
                side: if j % 2 == 0 { QuerySide::Tail } else { QuerySide::Head },
                k: 1 + (i as usize + j as usize) % 9,
                filtered: i.is_multiple_of(2),
            })
            .collect()
    }

    fn spawn_topk(
        b: &Arc<TopKBatcher>,
        queries: Vec<TopKQuery>,
    ) -> (Vec<TopKQuery>, std::thread::JoinHandle<TopKResults>) {
        let (b, job) = (Arc::clone(b), queries.clone());
        (queries, std::thread::spawn(move || b.submit(job)))
    }

    /// Every result equals what `engine` ranks for that query alone.
    fn assert_topk(
        engine: &ScoringEngine,
        filter: &kg_core::FilterIndex,
        queries: &[TopKQuery],
        results: &TopKResults,
    ) {
        assert_eq!(results.len(), queries.len());
        for (q, got) in queries.iter().zip(results) {
            let known = if q.filtered { filter.known_answers(q.triple, q.side) } else { &[][..] };
            assert_eq!(got, &engine.top_k(q.triple, q.side, known, q.k), "{q:?}");
        }
    }

    #[test]
    fn topk_single_job_matches_the_engine() {
        let (b, engine, filter) = topk_batcher_with(None);
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
        let (b, engine, filter) = topk_batcher_with(Some(Arc::clone(&metrics)));
        let submitted: Vec<_> = (0..8).map(|worker| spawn_topk(&b, topk_job(worker))).collect();
        for (queries, handle) in submitted {
            assert_topk(&engine, &filter, &queries, &handle.join().unwrap());
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
        let b =
            TopKBatcher::new(Arc::clone(&engine), Arc::clone(&live), 2, Some(Arc::clone(&metrics)));
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

        // A delta touching (3, r1) tails invalidates q but not `other` —
        // and stays the last word on q's key when a second writer's delta,
        // on an unrelated key, lands after it. Nothing tells the cache
        // about either write, so there is no order to tell it in.
        let delta =
            kg_core::GraphDelta::new(vec![Triple::new(3, 1, 42), Triple::new(3, 1, 7)], vec![]);
        live.apply(&delta);
        live.apply(&kg_core::GraphDelta::new(vec![Triple::new(20, 0, 48)], vec![]));
        let post = b.submit(vec![q, other]);
        assert_eq!(b.batches_run(), 2, "the touched query re-ranks, the survivor hits");
        assert_eq!(series(&metrics, TOPK_HITS), 3, "only q missed");
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
        let b = TopKBatcher::new(Arc::clone(&engine), Arc::clone(&live), 1, None);
        let q =
            TopKQuery { triple: Triple::new(1, 0, 0), side: QuerySide::Tail, k: 3, filtered: true };
        b.submit(vec![q]);
        assert_eq!(b.cached_results(), 1);
        // Unfiltered entries survive any delta (they never read the graph).
        let unf = TopKQuery { filtered: false, ..q };
        b.submit(vec![unf]);
        assert_eq!(b.cached_results(), 2);
        live.apply(&kg_core::GraphDelta::new(vec![Triple::new(1, 0, 9)], vec![]));
        // The unfiltered survivor still hits at the new version …
        b.submit(vec![unf]);
        assert_eq!(b.batches_run(), 2, "unfiltered entry still valid, no extra pass");
        // … the filtered entry was touched and does not.
        let after = b.submit(vec![q]);
        assert_eq!(b.batches_run(), 3);
        assert!(!after[0].iter().any(|&(e, _)| e == 9), "{:?}", after[0]);
    }

    /// A top-k batcher over `threads` workers whose passes stop at the
    /// [`gate`], with its live graph and metrics.
    fn gated_topk_batcher(
        threads: usize,
    ) -> (Arc<TopKBatcher>, Gate, Arc<LiveGraph>, Arc<HttpMetrics>) {
        let (hook, gate) = gate();
        let live = Arc::new(LiveGraph::new(base_filter()));
        let metrics = Arc::new(HttpMetrics::new());
        let b = TopKBatcher::new(
            Hooked::engine(hook, 5),
            Arc::clone(&live),
            threads,
            Some(Arc::clone(&metrics)),
        );
        (Arc::new(b), gate, live, metrics)
    }

    fn gated_query() -> TopKQuery {
        TopKQuery {
            triple: Triple::new(GATE_HEAD, 0, 0),
            side: QuerySide::Tail,
            k: 3,
            filtered: false,
        }
    }

    #[test]
    fn topk_arrivals_during_a_pass_share_the_next_pass() {
        let (b, gate, _, metrics) = gated_topk_batcher(4);
        let (_, reference, filter) = topk_batcher_with(None);
        let first = spawn_topk(&b, vec![gated_query()]);
        gate.await_pass();
        let queued: Vec<_> = (0..5).map(|i| spawn_topk(&b, topk_job(i))).collect();
        while b.core.pending_jobs() < 5 {
            std::thread::yield_now();
        }
        gate.release(Release::Proceed);
        first.1.join().unwrap();
        for (queries, handle) in queued {
            assert_topk(&reference, &filter, &queries, &handle.join().unwrap());
        }
        assert_eq!(b.batches_run(), 2, "mixed k and filtering, one pass");
        assert_eq!(series(&metrics, "kg_serve_topk_batch_jobs_total"), 6);
    }

    #[test]
    fn topk_pass_reads_one_snapshot_and_never_caches_across_a_delta() {
        // One worker: the pass ranks the gated query first, `q` after it.
        let (b, gate, live, _) = gated_topk_batcher(1);
        let (_, reference, filter) = topk_batcher_with(None);
        let q =
            TopKQuery { triple: Triple::new(3, 1, 0), side: QuerySide::Tail, k: 5, filtered: true };
        let (_, handle) = spawn_topk(&b, vec![gated_query(), q]);
        gate.await_pass();
        // While the pass is held, the graph learns that (3, r1, 48) is true.
        live.apply(&kg_core::GraphDelta::new(vec![Triple::new(3, 1, 48)], vec![]));
        gate.release(Release::Proceed);
        let results = handle.join().unwrap();
        // `q` was ranked after the delta landed, yet against the snapshot
        // the pass took when it started.
        assert_topk(&reference, &filter, &[q], &results[1..].to_vec());
        assert!(results[1].iter().any(|&(e, _)| e == 48), "{:?}", results[1]);
        // That result is cached under the version its submitter saw; the
        // key changed after it, so the next submit ranks again.
        let after = b.submit(vec![q]);
        assert!(!after[0].iter().any(|&(e, _)| e == 48), "{:?}", after[0]);
    }

    const TOPK_HITS: &str = "kg_serve_topk_cache_hits_total";

    /// What a reader of [`concurrent_writers_never_change_what_a_reader_may_see`]
    /// asks: a `/topk` query through the batcher, or an `/eval` of these
    /// triples through the router.
    enum Ask {
        TopK(TopKQuery),
        Eval(Vec<Triple>),
    }

    #[derive(Debug, PartialEq)]
    enum Answer {
        TopK(Vec<(u32, f32)>),
        Eval { graph_version: u64, ranks: Vec<f64> },
    }

    /// One read: which [`Ask`], the graph version observed before and
    /// after it, and the answer.
    struct Read {
        ask: usize,
        before: u64,
        after: u64,
        answer: Answer,
    }

    const EVAL_N_S: usize = 50;
    const EVAL_SEED: u64 = 3;

    fn ask(
        entry: &crate::registry::ModelEntry,
        router: &crate::router::Router,
        asks: &[Ask],
        i: usize,
    ) -> Read {
        let before = entry.graph_version();
        let answer = match &asks[i] {
            Ask::TopK(q) => Answer::TopK(entry.topk_batcher().submit(vec![*q]).remove(0)),
            Ask::Eval(triples) => {
                let triples: Vec<String> = triples
                    .iter()
                    .map(|t| format!("[{},{},{}]", t.head.0, t.relation.0, t.tail.0))
                    .collect();
                let body = format!(
                    r#"{{"model":"m","triples":[{}],"n_s":{EVAL_N_S},"seed":{EVAL_SEED},"include_ranks":true}}"#,
                    triples.join(",")
                );
                let response = router.handle("POST", "/eval", &body);
                assert_eq!(response.status, 200, "{}", response.body);
                let json = crate::json::Json::parse(&response.body).unwrap();
                let ranks = json.get("ranks").and_then(crate::json::Json::as_array).unwrap();
                Answer::Eval {
                    graph_version: json.get("graph_version").unwrap().as_u64().unwrap(),
                    ranks: ranks.iter().map(|r| r.as_f64().unwrap()).collect(),
                }
            }
        };
        Read { ask: i, before, after: entry.graph_version(), answer }
    }

    /// ROADMAP 3(i): W writers through `ModelEntry::apply_delta`, on one
    /// shared key and one private key each, against R readers of `/topk`
    /// (filtered and not) and `/eval`. Whatever the interleaving, (a) the
    /// writes are versions `1..=n`, (b) every read is the cold answer at
    /// some version the graph carried while the read was in flight, and
    /// (c) afterwards the caches answer as a cold server would and a key
    /// nobody wrote still hits. Two interleavings are forced rather than
    /// hoped for: a pass held at the [`gate`] while half the writes land,
    /// and writers that each wait for R further reads before every write.
    #[test]
    fn concurrent_writers_never_change_what_a_reader_may_see() {
        use crate::registry::{ModelRegistry, RegistryConfig, SampleKey};
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        const WRITERS: u32 = 3;
        const READERS: usize = 3;
        const DELTAS: u32 = 8; // per writer, half of them while the gate holds a pass

        let (hook, gate) = gate();
        let registry = Arc::new(ModelRegistry::with_config(RegistryConfig {
            threads: 2,
            shards: 5,
            ..RegistryConfig::default()
        }));
        let base: Vec<Triple> = (0..20u32).map(|i| Triple::new(i % 50, i % 4, i + 5)).collect();
        let entry = registry.register(
            "m",
            Arc::new(Hooked { inner: Linear { n: 50 }, hook }),
            Arc::new(kg_core::FilterIndex::from_slices(&[&base])),
        );
        let router = crate::router::Router::new(Arc::clone(&registry));
        let reference = ScoringEngine::new(Arc::new(Linear { n: 50 }), 1);

        // Every writer writes tails of (3, r1) — from 49 down, so each
        // write changes a filtered top-8 — and a key of its own; every
        // third delta deletes what the one before it inserted. The private
        // insert makes every delta effective: n writes, n versions.
        let deltas = |w: u32| -> Vec<kg_core::GraphDelta> {
            let shared = |j: u32| Triple::new(3, 1, 49 - (w * DELTAS + j));
            (0..DELTAS)
                .map(|j| {
                    let private = Triple::new(10 + w, 2, 30 + j);
                    if j % 3 == 2 {
                        kg_core::GraphDelta::new(vec![private], vec![shared(j - 1)])
                    } else {
                        kg_core::GraphDelta::new(vec![private, shared(j)], vec![])
                    }
                })
                .collect()
        };
        let topk = |h, r, t, side, filtered| {
            Ask::TopK(TopKQuery { triple: Triple::new(h, r, t), side, k: 8, filtered })
        };
        let asks = [
            topk(3, 1, 0, QuerySide::Tail, true),  // every writer's key
            topk(10, 2, 0, QuerySide::Tail, true), // writer 0's own key
            topk(0, 1, 49, QuerySide::Head, true), // written once, by writer 0
            topk(7, 3, 0, QuerySide::Tail, true),  // no writer's key
            topk(3, 1, 0, QuerySide::Tail, false),
            Ask::Eval(vec![Triple::new(3, 1, 20), Triple::new(7, 3, 12), Triple::new(10, 2, 15)]),
        ];
        const UNTOUCHED: usize = 3;

        // Round 1: a pass is held open (its snapshot taken at version 0)
        // while every writer lands the first half of its deltas.
        let write = |w: u32, half: std::ops::Range<usize>, pace: &dyn Fn()| {
            let mut written = Vec::new();
            for delta in &deltas(w)[half] {
                pace();
                written.push((entry.apply_delta(delta).version, delta.clone()));
            }
            written
        };
        let half = DELTAS as usize / 2;
        let mut reads = Vec::new();
        let mut writes: Vec<(u64, kg_core::GraphDelta)> = Vec::new();
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let before = entry.graph_version();
                let Ask::TopK(q) = &asks[0] else { unreachable!() };
                let answer = entry.topk_batcher().submit(vec![gated_query(), *q]).remove(1);
                Read { ask: 0, before, after: entry.graph_version(), answer: Answer::TopK(answer) }
            });
            gate.await_pass();
            let writers: Vec<_> =
                (0..WRITERS).map(|w| s.spawn(move || write(w, 0..half, &|| {}))).collect();
            writes.extend(writers.into_iter().flat_map(|h| h.join().unwrap()));
            gate.release(Release::Proceed);
            let held = held.join().unwrap();
            assert_eq!((held.before, held.after), (0, u64::from(WRITERS) * half as u64));
            reads.push(held);
        });

        // Round 2: readers run free; a writer lets READERS further reads
        // complete before each of its remaining writes.
        let reads_done = AtomicU64::new(0);
        let writers_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (entry, router, asks) = (&entry, &router, &asks);
                    let (reads_done, writers_done) = (&reads_done, &writers_done);
                    s.spawn(move || {
                        let mut reads = Vec::new();
                        let mut i = r;
                        while !writers_done.load(SeqCst) {
                            reads.push(ask(entry, router, asks, i % asks.len()));
                            reads_done.fetch_add(1, SeqCst);
                            i += 1;
                        }
                        reads
                    })
                })
                .collect();
            let pace = || {
                let seen = reads_done.load(SeqCst);
                while reads_done.load(SeqCst) < seen + READERS as u64 {
                    std::thread::yield_now();
                }
            };
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| s.spawn(move || write(w, half..DELTAS as usize, &pace)))
                .collect();
            writes.extend(writers.into_iter().flat_map(|h| h.join().unwrap()));
            writers_done.store(true, SeqCst);
            reads.extend(readers.into_iter().flat_map(|h| h.join().unwrap()));
        });

        // (a) n effective writes are exactly versions 1..=n.
        writes.sort_by_key(|&(version, _)| version);
        let n = u64::from(WRITERS * DELTAS);
        let versions: Vec<u64> = writes.iter().map(|&(v, _)| v).collect();
        assert_eq!(versions, (1..=n).collect::<Vec<u64>>());
        assert_eq!(entry.graph_version(), n);

        // The graph at every version, replayed naively in version order.
        let mut naive: std::collections::HashSet<Triple> = base.iter().copied().collect();
        let mut graphs = vec![kg_core::FilterIndex::from_slices(&[&base])];
        for (_, delta) in &writes {
            naive.extend(&delta.insert);
            for t in &delta.delete {
                naive.remove(t);
            }
            let triples: Vec<Triple> = naive.iter().copied().collect();
            graphs.push(kg_core::FilterIndex::from_slices(&[&triples]));
        }
        let samples = entry
            .samples_for(&SampleKey {
                strategy: kg_recommend::SamplingStrategy::Random,
                n_s: EVAL_N_S,
                seed: EVAL_SEED,
            })
            .unwrap()
            .0;
        let cold = |i: usize, version: u64| match &asks[i] {
            Ask::TopK(q) => {
                let graph = &graphs[version as usize];
                let known = if q.filtered { graph.known_answers(q.triple, q.side) } else { &[] };
                Answer::TopK(reference.top_k(q.triple, q.side, known, q.k))
            }
            Ask::Eval(triples) => Answer::Eval {
                graph_version: version,
                ranks: kg_eval::evaluate_sampled(
                    &Linear { n: 50 },
                    triples,
                    &graphs[version as usize],
                    &samples,
                    kg_eval::TieBreak::Mean,
                    1,
                )
                .ranks,
            },
        };

        // (b) every read is the cold answer at a version inside its
        // interval; the held one, at the version its pass started on.
        assert_eq!(reads[0].answer, cold(0, 0), "ranked against the pass's snapshot");
        assert!(reads.len() > READERS * half, "readers ran beside the writers");
        for read in &reads {
            assert!(
                (read.before..=read.after).any(|v| cold(read.ask, v) == read.answer),
                "ask {} in [{}, {}] answered {:?}",
                read.ask,
                read.before,
                read.after,
                read.answer
            );
        }

        // (c) settled: whatever the caches hold now, they answer like a
        // cold server at the final version, and the untouched key hits.
        for i in 0..asks.len() {
            assert_eq!(
                ask(&entry, &router, &asks, i).answer,
                cold(i, n),
                "ask {i} after the writers"
            );
        }
        let metrics = registry.metrics();
        let (hits, passes) = (series(metrics, TOPK_HITS), entry.topk_batcher().batches_run());
        assert_eq!(ask(&entry, &router, &asks, UNTOUCHED).answer, cold(UNTOUCHED, 0));
        assert_eq!(series(metrics, TOPK_HITS), hits + 1, "a key no delta touched still hits");
        assert_eq!(entry.topk_batcher().batches_run(), passes);
    }

    #[test]
    fn topk_many_threads_of_sequential_submits_are_each_answered_exactly_once() {
        let metrics = Arc::new(HttpMetrics::new());
        let (b, engine, filter) = topk_batcher_with(Some(Arc::clone(&metrics)));
        let workers: Vec<_> = (0..4u32)
            .map(|w| {
                let (b, engine, filter) =
                    (Arc::clone(&b), Arc::clone(&engine), Arc::clone(&filter));
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let queries = topk_job(w * 100 + i);
                        assert_topk(&engine, &filter, &queries, &b.submit(queries.clone()));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let queries: usize = (0..400).map(|i| topk_job(i).len()).sum();
        let misses = series(&metrics, "kg_serve_topk_cache_misses_total");
        assert_eq!(series(&metrics, "kg_serve_topk_cache_hits_total") + misses, queries as u64);
        assert_eq!(series(&metrics, "kg_serve_topk_batch_queries_total"), misses);
        assert_eq!(b.core.pending_jobs(), 0);
    }
}
