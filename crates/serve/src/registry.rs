//! The trained-model registry: named serving entries bundling a sharded
//! [`ScoringEngine`] (the single scoring entry point), the filter index for
//! known-true removal, optional recommender artifacts for
//! Static/Probabilistic sampling, a per-model score batcher, and an LRU
//! cache of per-relation candidate samples so repeated `/eval` calls with
//! the same `(strategy, n_s, seed)` skip the sampling pass.
//!
//! Entries swap atomically: `register` (and the `/admin/models` hot-reload
//! path, [`ModelRegistry::reload_snapshot`]) replaces the `Arc<ModelEntry>`
//! under a write lock, while in-flight requests keep scoring against the
//! `Arc` they already cloned.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use kg_core::sample::seeded_rng;
use kg_core::triple::QuerySide;
use kg_core::{ApplyOutcome, FilterIndex, GraphDelta, LiveFilterIndex, LiveGraph, Triple};
use kg_eval::{EvalResult, TieBreak};
use kg_models::{KgcModel, Precision, QuantizedModel, ScoringEngine};
use kg_recommend::{
    sample_candidates_cached, CandidateSets, ProbabilisticCache, SampledCandidates,
    SamplingStrategy, ScoreMatrix,
};

use crate::batch::{ScoreBatcher, TopKBatcher};
use crate::http_metrics::{Family, HttpMetrics};
use crate::monitor::{Monitor, MonitorConfig, MonitorStatus};

/// A bounded map with least-recently-used eviction.
///
/// Small and boring on purpose: capacity is tens of entries (one per
/// distinct sampling configuration), so the O(len) recency bookkeeping is
/// noise next to the sampling pass it saves.
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, V>,
    order: Vec<K>, // front = least recent, back = most recent
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache { capacity, map: HashMap::with_capacity(capacity), order: Vec::new() }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, marking it most recently used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.map.contains_key(key) {
            self.touch(key);
            self.map.get(key)
        } else {
            None
        }
    }

    /// Insert `key → value`, evicting the least recently used entry when
    /// over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_some() {
            self.touch(&key);
            return;
        }
        self.order.push(key);
        if self.map.len() > self.capacity {
            let evicted = self.order.remove(0);
            self.map.remove(&evicted);
        }
    }

    fn touch(&mut self, key: &K) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

/// Cache key for one sampling configuration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SampleKey {
    /// Sampling strategy.
    pub strategy: SamplingStrategy,
    /// Per-column sample size.
    pub n_s: usize,
    /// RNG seed the sample was drawn with.
    pub seed: u64,
}

/// How many distinct sampling configurations to keep per model.
pub const SAMPLE_CACHE_CAPACITY: usize = 32;

/// How many `/eval` results to keep per model.
pub const EVAL_CACHE_CAPACITY: usize = 16;

/// Cache key for one `/eval` computation: every request knob plus a
/// 128-bit fingerprint of the triple list (two independently-seeded 64-bit
/// folds — the list itself can be a million entries, far too large to key
/// on directly). The *graph version* is deliberately not part of the key:
/// validity is decided per lookup from the cached value and the reader's
/// snapshot, so an entry survives every delta that leaves its keys alone.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EvalKey {
    /// Sampling strategy.
    pub strategy: SamplingStrategy,
    /// Per-column sample size.
    pub n_s: usize,
    /// RNG seed for the candidate draw.
    pub seed: u64,
    /// Tie-breaking rule.
    pub tie: TieBreak,
    /// Two-seed fingerprint of the evaluated triples, order-sensitive.
    pub fingerprint: (u64, u64),
}

impl EvalKey {
    /// Key for evaluating `triples` under the given knobs.
    pub fn new(
        strategy: SamplingStrategy,
        n_s: usize,
        seed: u64,
        tie: TieBreak,
        triples: &[Triple],
    ) -> Self {
        EvalKey {
            strategy,
            n_s,
            seed,
            tie,
            fingerprint: (fingerprint(triples, 0x51_7c_c1_b7), fingerprint(triples, 0x9e_37_79_b9)),
        }
    }
}

/// Order-sensitive 64-bit fold of a triple list (splitmix-style mixing).
fn fingerprint(triples: &[Triple], seed: u64) -> u64 {
    let mut h = seed ^ (triples.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for t in triples {
        for v in [t.head.0 as u64, t.relation.0 as u64, t.tail.0 as u64] {
            h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
    }
    h
}

/// A cached `/eval` result plus what it depends on: the graph version it
/// was computed against and the evaluated triples, whose tail-query and
/// head-query keys are every filter key it read.
struct CachedEval {
    result: EvalResult,
    version: u64,
    triples: Vec<Triple>,
}

/// The slice of the entity space a worker node owns in a multi-node
/// deployment: this node is shard `index` of `of` total workers.
///
/// The actual entity range is derived per model as
/// `ShardPlan::new(num_entities, of).range(index)` — the same deterministic
/// partition every consumer of [`kg_core::parallel::ShardPlan`] agrees on,
/// so a gateway that knows only `(|E|, of)` knows every worker's
/// boundaries without negotiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerShard {
    /// This worker's shard index (`0..of`).
    pub index: usize,
    /// Total workers the entity space is partitioned across.
    pub of: usize,
}

impl WorkerShard {
    /// The entity range this worker serves for a model with
    /// `num_entities` entities.
    pub fn range(&self, num_entities: usize) -> std::ops::Range<usize> {
        let plan = kg_core::parallel::ShardPlan::new(num_entities, self.of);
        if self.index < plan.num_shards() {
            plan.range(self.index)
        } else {
            // More workers than entities: the surplus workers own nothing.
            num_entities..num_entities
        }
    }
}

/// A recommender score matrix and the Probabilistic sampler over it. The
/// sampler (8 bytes per nonzero) is built by the first Probabilistic
/// request, so a deployment that never asks for one never pays for it, and
/// it rides with the matrix across hot-reloads.
struct Recommender {
    matrix: Arc<ScoreMatrix>,
    sampler: OnceLock<ProbabilisticCache>,
}

/// One servable model and everything needed to answer queries about it.
pub struct ModelEntry {
    name: String,
    engine: Arc<ScoringEngine>,
    live: Arc<LiveGraph>,
    recommender: Option<Arc<Recommender>>,
    sets: Option<Arc<CandidateSets>>,
    batcher: ScoreBatcher,
    topk_batcher: TopKBatcher,
    samples: Mutex<LruCache<SampleKey, Arc<SampledCandidates>>>,
    evals: Mutex<LruCache<EvalKey, Arc<CachedEval>>>,
    threads: usize,
    worker_shard: Option<WorkerShard>,
    metrics: Arc<HttpMetrics>,
}

impl ModelEntry {
    /// The entry's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sharded scoring engine (ranking, top-k, point scores).
    pub fn engine(&self) -> &Arc<ScoringEngine> {
        &self.engine
    }

    /// The scoring model behind the engine.
    pub fn model(&self) -> &Arc<dyn KgcModel> {
        self.engine.model()
    }

    /// The live known-triple graph used for filtered ranking: snapshot it
    /// ([`LiveGraph::snapshot`]) for a consistent read. Applying a delta
    /// to it directly is as safe as [`ModelEntry::apply_delta`] — no cache
    /// depends on being told — and skips only the ingest metrics.
    pub fn live(&self) -> &Arc<LiveGraph> {
        &self.live
    }

    /// The current graph version (0 until the first effective delta).
    pub fn graph_version(&self) -> u64 {
        self.live.version()
    }

    /// Apply a batch of triple inserts/deletes to the live graph and
    /// record it on `/metrics`. No cache is touched: `/topk` and `/eval`
    /// entries check themselves against the snapshot each reader holds
    /// (see [`kg_core::live`]), and candidate draws depend only on
    /// `(|E|, |R|, strategy, n_s, seed)`, never on the graph.
    ///
    /// The version gauge is raised, not set: two writers can publish their
    /// versions out of order, and the later version must win, so once
    /// writers quiesce the gauge reads [`ModelEntry::graph_version`].
    pub fn apply_delta(&self, delta: &GraphDelta) -> ApplyOutcome {
        let outcome = self.live.apply(delta);
        if outcome.changed() {
            self.metrics.raise(Family::GraphVersion, &[&self.name], outcome.version as f64);
            self.metrics.observe_ingest(outcome.inserted, outcome.deleted);
        }
        outcome
    }

    /// The cached `/eval` result for `key`, if one exists that is exact
    /// for a reader holding `snapshot`: computed at a version `v` no later
    /// than the snapshot's, with no tail- or head-query key of its triples
    /// changed since `v`. Anything else is a **miss** (never served, left
    /// for the LRU to age out or the recompute to overwrite).
    pub fn cached_eval(&self, key: &EvalKey, snapshot: &LiveFilterIndex) -> Option<EvalResult> {
        let cached = Arc::clone(self.evals.lock().unwrap().get(key)?);
        // Checked with the cache unlocked: two lookups per triple.
        let unchanged = |t: &Triple| {
            QuerySide::BOTH
                .iter()
                .all(|&side| snapshot.answers_changed_at(*t, side) <= cached.version)
        };
        let valid = cached.version <= snapshot.version() && cached.triples.iter().all(unchanged);
        valid.then(|| cached.result.clone())
    }

    /// Memoise an `/eval` result computed against graph version `version`
    /// over `triples`. Unconditional: the entry is exact for `version`
    /// whatever has happened since, and [`ModelEntry::cached_eval`]
    /// decides who may still be served it.
    pub fn store_eval(&self, key: EvalKey, result: &EvalResult, triples: &[Triple], version: u64) {
        let cached = CachedEval { result: result.clone(), version, triples: triples.to_vec() };
        self.evals.lock().unwrap().insert(key, Arc::new(cached));
    }

    /// Cached `/eval` results currently held, stale ones included (tests).
    pub fn cached_evals(&self) -> usize {
        self.evals.lock().unwrap().len()
    }

    /// The coalescing batcher for `/score` traffic.
    pub fn batcher(&self) -> &ScoreBatcher {
        &self.batcher
    }

    /// The coalescing batcher for `/topk` traffic.
    pub fn topk_batcher(&self) -> &TopKBatcher {
        &self.topk_batcher
    }

    /// Worker threads used for ranking passes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The entity range this entry's `/shard/*` endpoints evaluate: the
    /// configured [`WorkerShard`]'s slice, or the full entity space when
    /// the registry is not part of a multi-node topology.
    pub fn shard_range(&self) -> std::ops::Range<usize> {
        match self.worker_shard {
            Some(ws) => ws.range(self.engine.num_entities()),
            None => 0..self.engine.num_entities(),
        }
    }

    /// Whether `strategy` can be served (Static needs candidate sets,
    /// Probabilistic needs a score matrix).
    pub fn supports(&self, strategy: SamplingStrategy) -> bool {
        match strategy {
            SamplingStrategy::Random => true,
            SamplingStrategy::Static => self.sets.is_some(),
            SamplingStrategy::Probabilistic => self.recommender.is_some(),
        }
    }

    /// The candidate sample for `key`, drawn on miss and LRU-cached;
    /// returns `(sample, cache_hit)`.
    ///
    /// Sampling is seeded from `key.seed`, so a cache hit and a fresh draw
    /// are byte-identical — callers can treat the cache as pure memoisation.
    pub fn samples_for(&self, key: &SampleKey) -> Result<(Arc<SampledCandidates>, bool), String> {
        if !self.supports(key.strategy) {
            return Err(format!(
                "model '{}' cannot serve {} sampling (missing recommender artifacts)",
                self.name,
                key.strategy.name()
            ));
        }
        let hit = self.samples.lock().unwrap().get(key).map(Arc::clone);
        if let Some(hit) = hit {
            return Ok((hit, true));
        }
        // Drawn with the cache unlocked, so concurrent misses draw in
        // parallel instead of queueing behind one draw; two racing on one
        // key insert byte-identical samples (the draw is seeded).
        let (matrix, sampler) = match (&self.recommender, key.strategy) {
            (Some(r), SamplingStrategy::Probabilistic) => (
                Some(r.matrix.as_ref()),
                Some(r.sampler.get_or_init(|| ProbabilisticCache::new(&r.matrix))),
            ),
            _ => (None, None),
        };
        let drawn = Arc::new(sample_candidates_cached(
            key.strategy,
            self.model().num_entities(),
            self.model().num_relations(),
            key.n_s,
            matrix,
            self.sets.as_deref(),
            sampler,
            &mut seeded_rng(key.seed),
        ));
        self.samples.lock().unwrap().insert(key.clone(), Arc::clone(&drawn));
        Ok((drawn, false))
    }

    /// Cached sampling configurations (tests).
    pub fn cached_samples(&self) -> usize {
        self.samples.lock().unwrap().len()
    }
}

/// Tuning knobs shared by every entry a registry creates.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Worker threads for scoring/ranking passes.
    pub threads: usize,
    /// Entity shards per model engine (`0` = automatic: one shard per
    /// [`kg_core::parallel::DEFAULT_SHARD_TARGET`] entities).
    pub shards: usize,
    /// Shared secret required (as the `"token"` field) by mutating admin
    /// requests (`POST /admin/models`). `None` leaves the endpoint open —
    /// acceptable only for loopback/dev deployments.
    pub admin_token: Option<String>,
    /// This node's slice of the entity space in a multi-node topology.
    /// `None` (the default) serves the full range; when set, the internal
    /// `/shard/topk` and `/shard/rank` endpoints evaluate only this
    /// worker's shard of every registered model. Public endpoints
    /// (`/score`, `/eval`, …) always serve the full model — the split is
    /// in ranking work, not in model storage.
    pub worker_shard: Option<WorkerShard>,
    /// Default serving precision for snapshot loads. `None` (the default)
    /// defers to each snapshot's own precision hint — which is f32 unless
    /// the producer opted in — so quantization is never silently applied.
    /// Per-request `"precision"` on `POST /admin/models` overrides both.
    pub precision: Option<Precision>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            threads: kg_core::parallel::default_threads(),
            shards: 0,
            admin_token: None,
            worker_shard: None,
            precision: None,
        }
    }
}

/// A named collection of servable models.
pub struct ModelRegistry {
    config: RegistryConfig,
    entries: RwLock<HashMap<String, Arc<ModelEntry>>>,
    monitors: Mutex<HashMap<String, Arc<Monitor>>>,
    metrics: Arc<HttpMetrics>,
}

impl ModelRegistry {
    /// Empty registry with default tuning.
    pub fn new() -> Self {
        Self::with_config(RegistryConfig::default())
    }

    /// Empty registry with explicit tuning.
    pub fn with_config(config: RegistryConfig) -> Self {
        ModelRegistry {
            config,
            entries: RwLock::new(HashMap::new()),
            monitors: Mutex::new(HashMap::new()),
            metrics: Arc::new(HttpMetrics::new()),
        }
    }

    /// The metrics registry shared by the router and every model's batcher.
    pub fn metrics(&self) -> &Arc<HttpMetrics> {
        &self.metrics
    }

    /// The admin shared secret, if one is configured.
    pub fn admin_token(&self) -> Option<&str> {
        self.config.admin_token.as_deref()
    }

    /// This node's configured slice of the entity space, if any.
    pub fn worker_shard(&self) -> Option<WorkerShard> {
        self.config.worker_shard
    }

    /// Start (or replace) the continuous-evaluation monitor for model
    /// `name`. The monitor holds only a `Weak` back-reference, so dropping
    /// the registry stops it.
    pub fn start_monitor(
        self: &Arc<Self>,
        name: &str,
        config: MonitorConfig,
    ) -> Result<Arc<Monitor>, String> {
        if self.get(name).is_none() {
            return Err(format!("unknown model '{name}'"));
        }
        let monitor = Arc::new(Monitor::spawn(Arc::downgrade(self), name.to_string(), config));
        // Bind the displaced monitor before the guard dies: its Drop joins
        // the eval thread, which must not run under the map lock.
        let displaced =
            self.monitors.lock().unwrap().insert(name.to_string(), Arc::clone(&monitor));
        drop(displaced);
        Ok(monitor)
    }

    /// Stop and drop the monitor for `name`, and its `kg_serve_monitor_*`
    /// series with it; returns whether one existed.
    pub fn stop_monitor(&self, name: &str) -> bool {
        // Same Drop-joins-thread hazard as start_monitor: take the monitor
        // out of the map first, then let it drop with no lock held.
        let removed = self.monitors.lock().unwrap().remove(name);
        let existed = removed.is_some();
        // Dropping the last handle joins the eval thread, so no round can
        // publish after the series are forgotten.
        drop(removed);
        self.metrics.forget("kg_serve_monitor_", "model", name);
        existed
    }

    /// The running monitor for `name`, if any.
    pub fn monitor(&self, name: &str) -> Option<Arc<Monitor>> {
        self.monitors.lock().unwrap().get(name).cloned()
    }

    /// Status of every running monitor, sorted by model name.
    pub fn monitor_statuses(&self) -> Vec<MonitorStatus> {
        let monitors: Vec<Arc<Monitor>> = self.monitors.lock().unwrap().values().cloned().collect();
        let mut statuses: Vec<MonitorStatus> = monitors.iter().map(|m| m.status()).collect();
        statuses.sort_by(|a, b| a.model.cmp(&b.model));
        statuses
    }

    /// Feed a just-applied delta to the model's monitor (if one runs) so
    /// its held-out window tracks the live graph.
    pub(crate) fn notify_delta(&self, name: &str, delta: &GraphDelta) {
        // Clone the handle out before delivering: on_delta takes the
        // monitor's state lock, and an `if let` scrutinee guard would stay
        // live across the call — an undeclared registry.monitors →
        // monitor.state nesting (KL009).
        let monitor = self.monitors.lock().unwrap().get(name).cloned();
        if let Some(monitor) = monitor {
            monitor.on_delta(delta);
        }
    }

    /// Register a model under `name`, replacing any previous entry. The
    /// filter index seeds a fresh [`LiveGraph`] at version 0.
    pub fn register(
        &self,
        name: impl Into<String>,
        model: Arc<dyn KgcModel>,
        filter: Arc<FilterIndex>,
    ) -> Arc<ModelEntry> {
        self.register_with_artifacts(name, model, filter, None, None)
    }

    /// Register a model together with recommender artifacts enabling the
    /// Static / Probabilistic sampling strategies.
    pub fn register_with_artifacts(
        &self,
        name: impl Into<String>,
        model: Arc<dyn KgcModel>,
        filter: Arc<FilterIndex>,
        matrix: Option<Arc<ScoreMatrix>>,
        sets: Option<Arc<CandidateSets>>,
    ) -> Arc<ModelEntry> {
        let recommender =
            matrix.map(|matrix| Arc::new(Recommender { matrix, sampler: OnceLock::new() }));
        self.register_live(name, model, Arc::new(LiveGraph::new(filter)), recommender, sets)
    }

    /// Register a model against an existing [`LiveGraph`] — the hot-reload
    /// path uses this so a reloaded entry keeps the old entry's graph (same
    /// `Arc`: deltas applied through either entry stay visible to both, and
    /// the version counter never resets).
    fn register_live(
        &self,
        name: impl Into<String>,
        model: Arc<dyn KgcModel>,
        live: Arc<LiveGraph>,
        recommender: Option<Arc<Recommender>>,
        sets: Option<Arc<CandidateSets>>,
    ) -> Arc<ModelEntry> {
        let name = name.into();
        let engine = Arc::new(ScoringEngine::new(model, self.config.shards));
        let entry = Arc::new(ModelEntry {
            name: name.clone(),
            batcher: ScoreBatcher::new(
                Arc::clone(&engine),
                self.config.threads,
                Some(Arc::clone(&self.metrics)),
            ),
            topk_batcher: TopKBatcher::new(
                Arc::clone(&engine),
                Arc::clone(&live),
                self.config.threads,
                Some(Arc::clone(&self.metrics)),
            ),
            engine,
            live,
            recommender,
            sets,
            samples: Mutex::new(LruCache::new(SAMPLE_CACHE_CAPACITY)),
            evals: Mutex::new(LruCache::new(EVAL_CACHE_CAPACITY)),
            threads: self.config.threads,
            worker_shard: self.config.worker_shard,
            metrics: Arc::clone(&self.metrics),
        });
        self.metrics.set(Family::GraphVersion, &[&entry.name], entry.live.version() as f64);
        // The precision is a label, so a reload at another precision would
        // otherwise leave the old one's series beside the new.
        self.metrics.forget("kg_serve_model_precision_info", "model", &entry.name);
        let precision = entry.engine.precision().name();
        self.metrics.set(Family::ModelPrecision, &[&entry.name, precision], 1.0);
        self.entries.write().unwrap().insert(name, Arc::clone(&entry));
        entry
    }

    /// Load a snapshot at the precision the deployment resolves to:
    /// explicit `request` > [`RegistryConfig::precision`] > the snapshot's
    /// own hint. Quantized precisions build a [`QuantizedModel`] from the
    /// loaded model's tables (the file always stores f32), which fails
    /// loudly for families without a quantized scoring path.
    fn load_serving_model(
        &self,
        path: impl AsRef<std::path::Path>,
        request: Option<Precision>,
    ) -> Result<Arc<dyn KgcModel>, kg_core::KgError> {
        let loaded = kg_models::io::read_model_from_path(path)?;
        let precision = request.or(self.config.precision).unwrap_or(loaded.precision_hint);
        if precision.is_quantized() {
            Ok(Arc::new(QuantizedModel::from_model(loaded.model.as_ref(), loaded.kind, precision)?))
        } else {
            Ok(Arc::from(loaded.model as Box<dyn KgcModel>))
        }
    }

    /// Register a model from a snapshot file written by
    /// [`kg_models::io::save_model_to_path`].
    pub fn register_snapshot(
        &self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        filter: Arc<FilterIndex>,
    ) -> Result<Arc<ModelEntry>, kg_core::KgError> {
        let model = self.load_serving_model(path, None)?;
        Ok(self.register(name, model, filter))
    }

    /// Hot-reload `name` from a snapshot file (the `/admin/models` path):
    /// the snapshot is loaded *before* any lock is taken, then the registry
    /// entry is flipped atomically. An existing entry donates its filter
    /// index and recommender artifacts; a brand-new name starts with an
    /// empty filter (register the filter explicitly for filtered serving).
    /// In-flight requests holding the old `Arc<ModelEntry>` finish against
    /// the model they started with.
    ///
    /// Hot-reload swaps **weights, not graphs**: when an entry already
    /// exists, the snapshot must match its entity and relation counts —
    /// the donated filter index and sampling artifacts are indexed by
    /// those ids, and a shape change would make them silently wrong (or
    /// panic). Shape changes require a fresh `register*` call.
    pub fn reload_snapshot(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Arc<ModelEntry>, kg_core::KgError> {
        self.reload_snapshot_with(name, path, None)
    }

    /// [`ModelRegistry::reload_snapshot`] with an explicit serving
    /// precision, overriding both the registry default and the snapshot's
    /// hint (the `"precision"` field of `POST /admin/models`).
    pub fn reload_snapshot_with(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
        precision: Option<Precision>,
    ) -> Result<Arc<ModelEntry>, kg_core::KgError> {
        let model = self.load_serving_model(path, precision)?;
        let (live, recommender, sets) = match self.get(name) {
            Some(old) => {
                let (ne, nr) = (old.model().num_entities(), old.model().num_relations());
                if model.num_entities() != ne || model.num_relations() != nr {
                    return Err(kg_core::KgError::InvalidInput(format!(
                        "snapshot shape {}x{} does not match entry '{name}' ({ne}x{nr}); \
                         hot-reload swaps weights, not graphs",
                        model.num_entities(),
                        model.num_relations(),
                    )));
                }
                (Arc::clone(&old.live), old.recommender.clone(), old.sets.clone())
            }
            None => (Arc::new(LiveGraph::new(Arc::new(FilterIndex::new()))), None, None),
        };
        Ok(self.register_live(name, model, live, recommender, sets))
    }

    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.entries.read().unwrap().get(name).cloned()
    }

    /// Remove an entry, its monitor and every series labelled with its
    /// name; returns whether the entry existed.
    pub fn remove(&self, name: &str) -> bool {
        self.stop_monitor(name);
        let existed = self.entries.write().unwrap().remove(name).is_some();
        self.metrics.forget("kg_serve_", "model", name);
        existed
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().unwrap().is_empty()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::Triple;
    use kg_models::{build_model, ModelKind};

    fn tiny_entry(registry: &ModelRegistry) -> Arc<ModelEntry> {
        let model = build_model(ModelKind::DistMult, 20, 2, 8, 3);
        let triples: Vec<Triple> = (0..10).map(|i| Triple::new(i, i % 2, (i + 1) % 20)).collect();
        let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
        registry.register("tiny", Arc::from(model as Box<dyn KgcModel>), filter)
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(&10)); // 1 becomes most recent
        lru.insert(3, 30); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_reinsert_updates_value_without_growth() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(1, 11);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn register_and_lookup() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        tiny_entry(&registry);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["tiny".to_string()]);
        assert!(registry.get("tiny").is_some());
        assert!(registry.get("missing").is_none());
        assert!(registry.remove("tiny"));
        assert!(!registry.remove("tiny"));
    }

    #[test]
    fn sample_cache_hits_return_identical_samples() {
        let registry = ModelRegistry::new();
        let entry = tiny_entry(&registry);
        let key = SampleKey { strategy: SamplingStrategy::Random, n_s: 5, seed: 9 };
        let (a, a_hit) = entry.samples_for(&key).unwrap();
        let (b, b_hit) = entry.samples_for(&key).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert!(!a_hit, "first lookup is a miss");
        assert!(b_hit, "second lookup reports the hit");
        assert_eq!(entry.cached_samples(), 1);
        // A different seed is a different sample object.
        let (c, c_hit) = entry
            .samples_for(&SampleKey { strategy: SamplingStrategy::Random, n_s: 5, seed: 10 })
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!c_hit);
        assert_eq!(entry.cached_samples(), 2);
    }

    #[test]
    fn sample_cache_evicts_lru_at_capacity() {
        let registry = ModelRegistry::new();
        let entry = tiny_entry(&registry);
        let key = |seed: u64| SampleKey { strategy: SamplingStrategy::Random, n_s: 4, seed };
        // Fill the cache exactly to capacity.
        for seed in 0..SAMPLE_CACHE_CAPACITY as u64 {
            let (_, hit) = entry.samples_for(&key(seed)).unwrap();
            assert!(!hit, "seed {seed} drawn fresh");
        }
        assert_eq!(entry.cached_samples(), SAMPLE_CACHE_CAPACITY);
        // Touch seed 0 so seed 1 becomes the least recently used …
        assert!(entry.samples_for(&key(0)).unwrap().1, "seed 0 still cached");
        // … then overflow: the cache stays bounded and evicts seed 1.
        let (_, hit) = entry.samples_for(&key(SAMPLE_CACHE_CAPACITY as u64)).unwrap();
        assert!(!hit);
        assert_eq!(entry.cached_samples(), SAMPLE_CACHE_CAPACITY, "capacity is a hard bound");
        assert!(entry.samples_for(&key(0)).unwrap().1, "recently-used seed 0 survived");
        let (redrawn, hit) = entry.samples_for(&key(1)).unwrap();
        assert!(!hit, "LRU seed 1 was evicted and must be redrawn");
        // The redraw is seeded, so eviction never changes what `/eval`
        // computes — only how fast.
        let fresh = kg_recommend::sample_candidates(
            SamplingStrategy::Random,
            entry.model().num_entities(),
            entry.model().num_relations(),
            4,
            None,
            None,
            &mut seeded_rng(1),
        );
        for r in 0..entry.model().num_relations() as u32 {
            for side in kg_core::triple::QuerySide::BOTH {
                assert_eq!(
                    redrawn.for_query(kg_core::RelationId(r), side),
                    fresh.for_query(kg_core::RelationId(r), side),
                    "redraw after eviction must be byte-identical to a fresh draw"
                );
            }
        }
    }

    #[test]
    fn probabilistic_sampler_is_built_on_first_use_and_draws_like_the_library() {
        let registry = ModelRegistry::new();
        let model = build_model(ModelKind::DistMult, 20, 2, 8, 3);
        let columns = (0..4u32)
            .map(|c| (c..20).step_by(2).map(|e| (e, 1.0 + ((e + c) % 5) as f32)).collect())
            .collect();
        let matrix = Arc::new(ScoreMatrix::from_columns(20, 2, columns));
        let entry = registry.register_with_artifacts(
            "tiny",
            Arc::from(model as Box<dyn KgcModel>),
            Arc::new(FilterIndex::new()),
            Some(Arc::clone(&matrix)),
            None,
        );
        let sampler = || entry.recommender.as_ref().unwrap().sampler.get();
        let key = |strategy| SampleKey { strategy, n_s: 4, seed: 5 };
        entry.samples_for(&key(SamplingStrategy::Random)).unwrap();
        assert!(sampler().is_none(), "only a Probabilistic request pays for the sampler");
        let (served, _) = entry.samples_for(&key(SamplingStrategy::Probabilistic)).unwrap();
        assert!(sampler().is_some());
        // Serving and offline evaluation sample through one code path.
        let library = kg_recommend::sample_candidates(
            SamplingStrategy::Probabilistic,
            20,
            2,
            4,
            Some(&matrix),
            None,
            &mut seeded_rng(5),
        );
        for c in 0..4 {
            let c = kg_core::DrColumn(c);
            assert_eq!(served.column(c), library.column(c));
            assert_eq!(served.column(c).len(), 4);
        }
    }

    #[test]
    fn hot_reload_keeps_sample_semantics_but_not_the_cache() {
        // Hot-reload swaps weights, not graphs: the new entry starts with
        // an empty sample cache (the cache rides on the entry), but since
        // the shape and seed fully determine a Random draw, the samples an
        // `/eval` sees before and after the reload are identical.
        let registry = ModelRegistry::new();
        let entry = tiny_entry(&registry);
        let key = SampleKey { strategy: SamplingStrategy::Random, n_s: 6, seed: 42 };
        let (before, _) = entry.samples_for(&key).unwrap();
        assert_eq!(entry.cached_samples(), 1);

        let replacement = build_model(ModelKind::ComplEx, 20, 2, 8, 77);
        let dir =
            std::env::temp_dir().join(format!("kg-serve-reload-cache-{}", std::process::id()));
        let path = dir.join("v2.kgev");
        kg_models::io::save_model_to_path(replacement.as_ref(), ModelKind::ComplEx, &path).unwrap();
        let reloaded = registry.reload_snapshot("tiny", &path).unwrap();
        assert_eq!(reloaded.cached_samples(), 0, "a reloaded entry starts with no samples");
        let (after, hit) = reloaded.samples_for(&key).unwrap();
        assert!(!hit, "first post-reload lookup redraws");
        for r in 0..reloaded.model().num_relations() as u32 {
            for side in kg_core::triple::QuerySide::BOTH {
                assert_eq!(
                    before.for_query(kg_core::RelationId(r), side),
                    after.for_query(kg_core::RelationId(r), side),
                    "same shape + seed → same candidates across a reload"
                );
            }
        }
        // The old entry's cache still serves requests in flight.
        assert!(entry.samples_for(&key).unwrap().1, "old Arc keeps its cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_strategy_is_rejected() {
        let registry = ModelRegistry::new();
        let entry = tiny_entry(&registry);
        assert!(entry.supports(SamplingStrategy::Random));
        assert!(!entry.supports(SamplingStrategy::Static));
        assert!(!entry.supports(SamplingStrategy::Probabilistic));
        let err = entry
            .samples_for(&SampleKey { strategy: SamplingStrategy::Static, n_s: 5, seed: 1 })
            .unwrap_err();
        assert!(err.contains("Static"), "error names the strategy: {err}");
    }

    #[test]
    fn snapshot_precision_resolves_request_over_config_over_hint() {
        let dir = std::env::temp_dir().join(format!("kg-serve-precres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hinted.kgev");
        let model = build_model(ModelKind::ComplEx, 12, 2, 8, 5);
        // Producer recommends f16 in the snapshot header.
        let mut buf = Vec::new();
        kg_models::io::save_model_with_hint(
            model.as_ref(),
            ModelKind::ComplEx,
            kg_models::Precision::F16,
            &mut buf,
        )
        .unwrap();
        std::fs::write(&path, &buf).unwrap();
        let filter = Arc::new(FilterIndex::new());

        // No config default → the snapshot hint decides.
        let registry = ModelRegistry::new();
        let entry = registry.register_snapshot("hinted", &path, Arc::clone(&filter)).unwrap();
        assert_eq!(entry.engine().precision(), kg_models::Precision::F16);
        let precision = "kg_serve_model_precision_info";
        assert_eq!(registry.metrics().value(precision, &["hinted", "f16"]), Some(1.0));

        // Registry default overrides the hint.
        let registry = ModelRegistry::with_config(RegistryConfig {
            precision: Some(kg_models::Precision::Int8),
            ..RegistryConfig::default()
        });
        let entry = registry.register_snapshot("cfg", &path, Arc::clone(&filter)).unwrap();
        assert_eq!(entry.engine().precision(), kg_models::Precision::Int8);

        // An explicit request overrides both, including back to exact f32.
        let entry =
            registry.reload_snapshot_with("cfg", &path, Some(kg_models::Precision::F32)).unwrap();
        assert_eq!(entry.engine().precision(), kg_models::Precision::F32);
        assert_eq!(registry.metrics().value(precision, &["cfg", "f32"]), Some(1.0));
        // The precision is a label: the reload must replace the int8
        // series, not add an f32 one beside it.
        let text = registry.metrics().render();
        let series: Vec<&str> = text.lines().filter(|l| l.starts_with(precision)).collect();
        assert_eq!(series, ["kg_serve_model_precision_info{model=\"cfg\",precision=\"f32\"} 1"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What `/metrics` says about a model or its monitor must not outlive
    /// it: a stopped monitor's last `drift_alarm` (and an `eval_age` that
    /// grows forever) used to be exported for the life of the process.
    #[test]
    fn stopped_monitor_and_removed_model_leave_no_series_behind() {
        let registry = Arc::new(ModelRegistry::new());
        tiny_entry(&registry);
        let config =
            MonitorConfig { window: vec![Triple::new(0, 0, 1)], n_s: 5, ..Default::default() };
        let monitor = registry.start_monitor("tiny", config).unwrap();
        // The round count is published last, so once it reads 1 the whole
        // baseline round is on /metrics.
        let metrics = Arc::clone(registry.metrics());
        for _ in 0..500 {
            if metrics.value("kg_serve_monitor_evals_total", &["tiny"]) == Some(1.0) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let text = metrics.render();
        assert!(text.contains("kg_serve_monitor_drift_alarm{model=\"tiny\"} 0"), "{text}");
        assert!(text.contains("kg_serve_monitor_eval_age_seconds{model=\"tiny\"}"), "{text}");
        drop(monitor); // the registry's handle is now the last one

        assert!(registry.stop_monitor("tiny"));
        let text = metrics.render();
        assert!(!text.contains("kg_serve_monitor_"), "monitor series outlived it: {text}");
        assert!(text.contains("kg_serve_graph_version{model=\"tiny\"} 0"), "{text}");

        assert!(registry.remove("tiny"));
        let text = metrics.render();
        assert!(!text.contains("tiny"), "model series outlived it: {text}");
    }

    /// Racing writers leave the version gauge at the graph's version: four
    /// threads apply 50 effective one-triple deltas each, and the rendered
    /// gauge reads all 200 of them. (The interleaving that used to leave it
    /// behind is rare; `raise_only_moves_a_gauge_forward` pins the rule.)
    #[test]
    fn graph_version_gauge_ends_at_the_graph_version_under_racing_writers() {
        let registry = ModelRegistry::new();
        let entry = tiny_entry(&registry);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let entry = &entry;
                scope.spawn(move || {
                    for k in t * 50..(t + 1) * 50 {
                        let triple = Triple::new(k % 20, (k / 20) % 2, 15 + k / 40);
                        let outcome = entry.apply_delta(&GraphDelta::new(vec![triple], Vec::new()));
                        assert!(outcome.changed(), "{triple:?} was not new");
                    }
                });
            }
        });
        assert_eq!(entry.graph_version(), 200);
        let text = registry.metrics().render();
        assert!(text.contains("kg_serve_graph_version{model=\"tiny\"} 200\n"), "{text}");
    }

    #[test]
    fn quantized_load_of_unsupported_family_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("kg-serve-precbad-{}", std::process::id()));
        let path = dir.join("tucker.kgev");
        let model = build_model(ModelKind::TuckEr, 8, 2, 8, 5);
        kg_models::io::save_model_to_path(model.as_ref(), ModelKind::TuckEr, &path).unwrap();
        let registry = ModelRegistry::with_config(RegistryConfig {
            precision: Some(kg_models::Precision::Int8),
            ..RegistryConfig::default()
        });
        let err = match registry.register_snapshot("t", &path, Arc::new(FilterIndex::new())) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("TuckER must not load quantized"),
        };
        assert!(err.contains("quantized"), "error explains the rejection: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_registration_roundtrip() {
        let model = build_model(ModelKind::ComplEx, 12, 2, 8, 5);
        let dir = std::env::temp_dir().join(format!("kg-serve-reg-{}", std::process::id()));
        let path = dir.join("m.kgev");
        kg_models::io::save_model_to_path(model.as_ref(), ModelKind::ComplEx, &path).unwrap();
        let registry = ModelRegistry::new();
        let triples = [Triple::new(0, 0, 1)];
        let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
        let entry = registry.register_snapshot("loaded", &path, filter).unwrap();
        assert_eq!(entry.model().num_entities(), 12);
        assert_eq!(
            entry.model().score(kg_core::EntityId(3), kg_core::RelationId(1), kg_core::EntityId(7)),
            model.score(kg_core::EntityId(3), kg_core::RelationId(1), kg_core::EntityId(7)),
            "registry-loaded snapshot scores identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
