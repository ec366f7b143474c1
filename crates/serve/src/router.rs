//! Request routing and the JSON request/response schemas of the service.
//!
//! Endpoints (see the crate docs for full schemas):
//!
//! * `POST /score`        — score `(h, r, t)` triples, coalesced by the batcher;
//! * `POST /topk`         — top-k tail/head prediction with known-true removal,
//!   coalesced by the per-model [`crate::batch::TopKBatcher`] and executed
//!   as one multi-query pass fanned out across queries × entity shards;
//! * `POST /eval`         — sampled MRR/Hits@K via the paper's fast estimator,
//!   version-stamped against the live graph and LRU-cached;
//! * `POST /triples`      — stream triple inserts/deletes into the model's
//!   live graph (bumps the graph version; cached results that read a
//!   touched key stop being served);
//! * `POST /admin/models` — hot-reload a model snapshot, flipping the
//!   registry entry atomically;
//! * `GET  /admin/models` — list registered models (shape, graph version);
//! * `GET  /monitor`      — continuous-evaluation status per model;
//! * `POST /shard/topk`   — **internal** multi-node endpoint: the queries
//!   of a `/topk` evaluated only over this worker's configured entity
//!   range, returned as wire-encoded [`kg_core::partial`] results for a
//!   gateway to merge;
//! * `GET  /healthz`      — liveness + registered models + shard ranges;
//! * `GET  /metrics`      — Prometheus text (request counts, p50/p99, batches).
//!
//! The router is transport-independent: it maps `(method, path, body)` to a
//! [`Response`], which makes every handler unit-testable without sockets.
//! In the server it runs on the pool workers the reactor dispatches parsed
//! requests to (`crate::reactor`) — a handler may block (locks, scoring
//! passes) without stalling any other connection's I/O, but every blocked
//! handler occupies one of [`crate::ServerConfig::workers`].
//! A router can also front a [`Gateway`] instead of a local registry
//! ([`Router::gateway`]): `/score`, `/topk`, and `/eval` are then
//! scattered across remote shard workers and the partials merged (see
//! [`crate::gateway`]).

use std::sync::Arc;
use std::time::Instant;

use kg_core::triple::QuerySide;
use kg_core::{GraphDelta, Triple};
use kg_eval::{evaluate_sampled, TieBreak};
use kg_recommend::SamplingStrategy;

use crate::batch::{ranked_pass, TopKQuery};
use crate::gateway::Gateway;
use crate::http_metrics::{Family, HttpMetrics};
use crate::json::Json;
use crate::registry::{EvalKey, ModelEntry, ModelRegistry, SampleKey};

/// Largest request body the service accepts (guards the std-only parser).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Cap on triples in one `/score` or `/eval` request.
pub const MAX_TRIPLES_PER_REQUEST: usize = 1_000_000;

/// Cap on queries in one `/topk` request.
pub const MAX_TOPK_QUERIES: usize = 10_000;

/// A transport-agnostic HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// `Retry-After` seconds advertised alongside 429/503 responses.
    pub retry_after: Option<u64>,
}

impl Response {
    fn json(status: u16, value: Json) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: value.to_string(),
            retry_after: None,
        }
    }

    /// A 200 JSON response (the gateway builds merged responses with
    /// this).
    pub(crate) fn json_ok(value: Json) -> Self {
        Response::json(200, value)
    }

    /// Relay a backend's response body unchanged (the gateway's
    /// error-parity path).
    pub(crate) fn passthrough(status: u16, body: String) -> Self {
        Response { status, content_type: "application/json", body, retry_after: None }
    }

    /// Attach a `Retry-After` advertisement.
    pub(crate) fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// JSON `{"error": message}` response; also used by the HTTP layer for
    /// framing failures (400/413/431/501) so error bodies share one shape.
    pub(crate) fn error(status: u16, message: impl Into<String>) -> Self {
        Response::json(status, Json::obj([("error", Json::Str(message.into()))]))
    }
}

/// What a router fronts: a local model registry (single node or shard
/// worker), or a scatter/gather gateway over remote workers.
enum Mode {
    Local(Arc<ModelRegistry>),
    Gateway(Arc<Gateway>),
}

/// Shared state handed to the router for every request.
pub struct Router {
    mode: Mode,
    metrics: Arc<HttpMetrics>,
}

impl Router {
    /// Router over `registry`, recording into the registry's shared
    /// [`HttpMetrics`] (the same instance its batchers observe into).
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        let metrics = Arc::clone(registry.metrics());
        Router { mode: Mode::Local(registry), metrics }
    }

    /// Router in **gateway mode**: `/score`, `/topk`, and `/eval` are
    /// scattered across the gateway's backend workers and the partial
    /// results merged (see [`crate::gateway`]); no model is served
    /// locally. `/admin/models` and the internal `/shard/*` endpoints do
    /// not exist here.
    pub fn gateway(gateway: Gateway) -> Self {
        let metrics = Arc::clone(gateway.metrics());
        Router { mode: Mode::Gateway(Arc::new(gateway)), metrics }
    }

    /// The metrics registry (shared with the server and batchers).
    pub fn metrics(&self) -> &Arc<HttpMetrics> {
        &self.metrics
    }

    /// Dispatch one request, recording count + latency for the endpoint.
    pub fn handle(&self, method: &str, path: &str, body: &str) -> Response {
        let start = Instant::now();
        let response = self.dispatch(method, path, body);
        let latency_us = start.elapsed().as_micros() as u64;
        // Unknown paths share one label: per-path labels would let a path
        // scanner grow the metrics map without bound.
        let endpoint = match path {
            "/score" | "/topk" | "/eval" | "/triples" | "/monitor" | "/admin/models"
            | "/healthz" | "/metrics" | "/shard/topk" => path,
            _ => "other",
        };
        self.metrics.observe_request(endpoint, latency_us, response.status);
        response
    }

    fn dispatch(&self, method: &str, path: &str, body: &str) -> Response {
        let registry =
            match &self.mode {
                Mode::Local(registry) => registry,
                Mode::Gateway(gateway) => return match (method, path) {
                    ("GET", "/healthz") => gateway.healthz(),
                    ("GET", "/metrics") => self.render_metrics(),
                    ("POST", "/score") => gateway.score(body),
                    ("POST", "/topk") => gateway.topk(body),
                    ("POST", "/eval") => gateway.eval(body),
                    ("POST" | "GET", "/admin/models") => Response::error(
                        501,
                        "the gateway does not proxy admin endpoints; reload each worker directly",
                    ),
                    ("POST", "/triples") => Response::error(
                        501,
                        "the gateway does not proxy graph writes; apply deltas to every worker \
                         directly (a fleet must ingest identically to stay in agreement)",
                    ),
                    ("GET", "/monitor") => Response::error(
                        501,
                        "the gateway does not proxy monitors; query each worker directly",
                    ),
                    ("POST", _) | ("GET", _) => {
                        Response::error(404, format!("no route for {method} {path}"))
                    }
                    _ => Response::error(405, format!("method {method} not allowed")),
                },
            };
        match (method, path) {
            ("GET", "/healthz") => self.healthz(registry),
            ("GET", "/metrics") => self.render_metrics(),
            ("POST", "/score") => self.with_request(registry, body, |r, e| self.score(r, e)),
            ("POST", "/topk") => self.with_request(registry, body, |r, e| self.topk(r, e)),
            ("POST", "/eval") => self.with_request(registry, body, |r, e| self.eval(r, e)),
            // Internal shard-worker endpoint (multi-node topology): the
            // same parsing and validation as `/topk`, but evaluation is
            // restricted to this worker's configured entity range and
            // partial results are returned for the gateway to merge.
            ("POST", "/shard/topk") => {
                self.with_request(registry, body, |r, e| self.shard_topk(r, e))
            }
            ("POST", "/triples") => {
                self.with_request(registry, body, |r, e| self.triples(registry, r, e))
            }
            ("POST", "/admin/models") => self.admin_models(registry, body),
            ("GET", "/admin/models") => self.list_models(registry),
            ("GET", "/monitor") => self.monitor_status(registry),
            ("POST", _) | ("GET", _) => {
                Response::error(404, format!("no route for {method} {path}"))
            }
            _ => Response::error(405, format!("method {method} not allowed")),
        }
    }

    fn render_metrics(&self) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: self.metrics.render(),
            retry_after: None,
        }
    }

    fn healthz(&self, registry: &Arc<ModelRegistry>) -> Response {
        let worker_shard = match registry.worker_shard() {
            Some(ws) => {
                Json::obj([("index", Json::Num(ws.index as f64)), ("of", Json::Num(ws.of as f64))])
            }
            None => Json::Null,
        };
        let shard_ranges: Vec<Json> = registry
            .names()
            .into_iter()
            .filter_map(|name| registry.get(&name))
            .map(|entry| {
                let range = entry.shard_range();
                Json::obj([
                    ("model", Json::Str(entry.name().to_string())),
                    ("entities", Json::Num(entry.engine().num_entities() as f64)),
                    (
                        "range",
                        Json::Arr(vec![Json::Num(range.start as f64), Json::Num(range.end as f64)]),
                    ),
                    ("graph_version", Json::Num(entry.graph_version() as f64)),
                    ("precision", Json::Str(entry.engine().precision().name().to_string())),
                ])
            })
            .collect();
        Response::json(
            200,
            Json::obj([
                ("status", Json::Str("ok".into())),
                ("uptime_seconds", Json::Num(self.metrics.uptime_seconds())),
                ("kernel_isa", Json::Str(kg_models::kernels::active().name().to_string())),
                ("models", Json::Arr(registry.names().into_iter().map(Json::Str).collect())),
                ("worker_shard", worker_shard),
                ("shard_ranges", Json::Arr(shard_ranges)),
            ]),
        )
    }

    /// Parse the body, resolve the `model` field, run the handler.
    fn with_request(
        &self,
        registry: &Arc<ModelRegistry>,
        body: &str,
        f: impl FnOnce(&Json, &Arc<ModelEntry>) -> Response,
    ) -> Response {
        if body.len() > MAX_BODY_BYTES {
            return Response::error(413, "request body too large");
        }
        let parsed = match Json::parse(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, format!("invalid JSON: {e}")),
        };
        let name = match parsed.get("model").and_then(Json::as_str) {
            Some(n) => n,
            None => return Response::error(400, "missing string field 'model'"),
        };
        let entry = match registry.get(name) {
            Some(e) => e,
            None => return Response::error(404, format!("model '{name}' is not registered")),
        };
        f(&parsed, &entry)
    }

    fn score(&self, request: &Json, entry: &Arc<ModelEntry>) -> Response {
        let triples = match parse_triples(request, entry, MAX_TRIPLES_PER_REQUEST) {
            Ok(t) => t,
            Err(r) => return r,
        };
        let count = triples.len();
        let scores = entry.batcher().submit(triples);
        Response::json(
            200,
            Json::obj([
                ("model", Json::Str(entry.name().to_string())),
                ("count", Json::Num(count as f64)),
                ("scores", Json::from_f32s(&scores)),
            ]),
        )
    }

    fn topk(&self, request: &Json, entry: &Arc<ModelEntry>) -> Response {
        let (k, filtered) = match parse_topk_params(request) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let queries = match parse_topk_queries(request, entry) {
            Ok(q) => q,
            Err(r) => return r,
        };
        let engine = entry.engine();
        let k = k.min(engine.num_entities());
        // Every request goes through the model's TopKBatcher: concurrent
        // requests coalesce into one multi-query pass, and the merged
        // batch is executed under the two-level work plan — queries across
        // worker threads, spare threads fanning each query's entity shards
        // out. Per-shard bounded heaps merged deterministically; no
        // entity-count-sized row is allocated per request.
        let jobs: Vec<TopKQuery> = queries
            .into_iter()
            .map(|(triple, side)| TopKQuery { triple, side, k, filtered })
            .collect();
        let results: Vec<Json> = entry
            .topk_batcher()
            .submit(jobs)
            .into_iter()
            .map(|top| {
                Json::obj([
                    (
                        "entities",
                        Json::Arr(top.iter().map(|&(e, _)| Json::Num(e as f64)).collect()),
                    ),
                    ("scores", Json::Arr(top.iter().map(|&(_, s)| Json::Num(s as f64)).collect())),
                ])
            })
            .collect();
        Response::json(
            200,
            Json::obj([
                ("model", Json::Str(entry.name().to_string())),
                ("k", Json::Num(k as f64)),
                ("filtered", Json::Bool(filtered)),
                ("shards", Json::Num(engine.num_shards() as f64)),
                ("results", Json::Arr(results)),
            ]),
        )
    }

    /// `POST /shard/topk` (internal): the queries of a `/topk` request —
    /// same body schema, same validation — evaluated **only over this
    /// worker's configured entity range**
    /// ([`crate::registry::ModelEntry::shard_range`]), returning one
    /// wire-encoded [`kg_core::partial::PartialTopK`] per query for the
    /// gateway to merge. The response reports the range and entity count
    /// so the gateway can verify the fleet tiles the entity space.
    fn shard_topk(&self, request: &Json, entry: &Arc<ModelEntry>) -> Response {
        let (k, filtered) = match parse_topk_params(request) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let queries = match parse_topk_queries(request, entry) {
            Ok(q) => q,
            Err(r) => return r,
        };
        let engine = entry.engine();
        let k = k.min(engine.num_entities());
        let range = entry.shard_range();
        // One ranked pass (one live-graph snapshot, the same two-level
        // work plan the public path uses) over this worker's range.
        let partials = ranked_pass(
            entry.live(),
            entry.threads(),
            &queries,
            |&(triple, side)| (triple, side, filtered),
            |&(triple, side), known, inner| {
                engine.partial_top_k(triple, side, known, k, range.clone(), inner).encode()
            },
        );
        Response::json(
            200,
            Json::obj([
                ("model", Json::Str(entry.name().to_string())),
                ("k", Json::Num(k as f64)),
                ("filtered", Json::Bool(filtered)),
                ("shards", Json::Num(engine.num_shards() as f64)),
                ("entities", Json::Num(engine.num_entities() as f64)),
                (
                    "range",
                    Json::Arr(vec![Json::Num(range.start as f64), Json::Num(range.end as f64)]),
                ),
                ("partials", Json::Arr(partials.into_iter().map(Json::Str).collect())),
            ]),
        )
    }
    /// `POST /admin/models`: hot-reload a model snapshot.
    ///
    /// Body: `{"name": "m", "path": "/path/to/model.kgev"}` (plus
    /// `"token"` when [`crate::registry::RegistryConfig::admin_token`] is
    /// configured, and optionally `"precision": "f32"|"f16"|"int8"` to
    /// override the serving precision the registry would otherwise
    /// resolve). The snapshot is loaded off the registry locks, then the
    /// entry is flipped atomically; in-flight requests finish on the `Arc`
    /// they hold. An existing entry keeps its filter index and recommender
    /// artifacts, so the snapshot must match its entity/relation counts.
    fn admin_models(&self, registry: &Arc<ModelRegistry>, body: &str) -> Response {
        if body.len() > MAX_BODY_BYTES {
            return Response::error(413, "request body too large");
        }
        let parsed = match Json::parse(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, format!("invalid JSON: {e}")),
        };
        if let Some(expected) = registry.admin_token() {
            if parsed.get("token").and_then(Json::as_str) != Some(expected) {
                return Response::error(403, "missing or invalid admin token");
            }
        }
        let Some(name) = parsed.get("name").and_then(Json::as_str) else {
            return Response::error(400, "missing string field 'name'");
        };
        let Some(path) = parsed.get("path").and_then(Json::as_str) else {
            return Response::error(400, "missing string field 'path'");
        };
        // Optional explicit serving precision; overrides the registry
        // default and the snapshot's own hint. Invalid values are rejected
        // rather than silently falling back to f32.
        let precision = match parsed.get("precision") {
            None => None,
            Some(v) => match v.as_str().and_then(kg_models::Precision::parse) {
                Some(p) => Some(p),
                None => {
                    return Response::error(400, "'precision' must be one of f32|f16|int8");
                }
            },
        };
        let replaced = registry.get(name).is_some();
        match registry.reload_snapshot_with(name, path, precision) {
            Ok(entry) => Response::json(
                200,
                Json::obj([
                    ("model", Json::Str(name.to_string())),
                    ("status", Json::Str(if replaced { "replaced" } else { "loaded" }.into())),
                    ("entities", Json::Num(entry.model().num_entities() as f64)),
                    ("relations", Json::Num(entry.model().num_relations() as f64)),
                    ("shards", Json::Num(entry.engine().num_shards() as f64)),
                    ("precision", Json::Str(entry.engine().precision().name().to_string())),
                ]),
            ),
            // Shape-mismatch rejections carry actionable detail; raw I/O
            // errors are collapsed so the endpoint cannot be used to probe
            // the filesystem.
            Err(e @ kg_core::KgError::InvalidInput(_)) => {
                Response::error(422, format!("snapshot load failed: {e}"))
            }
            Err(_) => Response::error(422, "snapshot load failed: unreadable or malformed file"),
        }
    }

    fn eval(&self, request: &Json, entry: &Arc<ModelEntry>) -> Response {
        let triples = match parse_triples(request, entry, MAX_TRIPLES_PER_REQUEST) {
            Ok(t) => t,
            Err(r) => return r,
        };
        let strategy = match request.get("strategy").map(|v| v.as_str()) {
            None => SamplingStrategy::Random,
            Some(Some("random")) => SamplingStrategy::Random,
            Some(Some("static")) => SamplingStrategy::Static,
            Some(Some("probabilistic")) => SamplingStrategy::Probabilistic,
            Some(other) => {
                return Response::error(
                    400,
                    format!(
                        "'strategy' must be one of random|static|probabilistic, got '{}'",
                        other.unwrap_or("<non-string>")
                    ),
                )
            }
        };
        let Some(n_s) = request.get("n_s").map_or(Some(100), |v| v.as_usize()) else {
            return Response::error(400, "'n_s' must be a non-negative integer");
        };
        let Some(seed) = request.get("seed").map_or(Some(0), |v| v.as_u64()) else {
            return Response::error(400, "'seed' must be a non-negative integer");
        };
        let tie = match request.get("tie").map(|v| v.as_str()) {
            None => TieBreak::Mean,
            Some(Some("mean")) => TieBreak::Mean,
            Some(Some("optimistic")) => TieBreak::Optimistic,
            Some(Some("pessimistic")) => TieBreak::Pessimistic,
            Some(other) => {
                return Response::error(
                    400,
                    format!(
                        "'tie' must be one of mean|optimistic|pessimistic, got '{}'",
                        other.unwrap_or("<non-string>")
                    ),
                )
            }
        };
        let include_ranks = request.get("include_ranks").and_then(Json::as_bool).unwrap_or(false);

        let key = SampleKey { strategy, n_s, seed };
        let (samples, cache_hit) = match entry.samples_for(&key) {
            Ok(s) => s,
            Err(msg) => return Response::error(400, msg),
        };
        // One snapshot for the whole request: the response's version, the
        // cached result's stamp and the cache's validity check all come
        // from it, so a write landing mid-request can never be
        // misattributed.
        let snapshot = entry.live().snapshot();
        let graph_version = snapshot.version();
        let eval_key = EvalKey::new(strategy, n_s, seed, tie, &triples);
        let (result, eval_hit) = match entry.cached_eval(&eval_key, &snapshot) {
            Some(cached) => (cached, true),
            None => {
                let fresh = evaluate_sampled(
                    entry.model().as_ref(),
                    &triples,
                    snapshot.as_ref(),
                    &samples,
                    tie,
                    entry.threads(),
                );
                entry.store_eval(eval_key, &fresh, &triples, graph_version);
                (fresh, false)
            }
        };
        let outcome = if eval_hit { Family::EvalCacheHits } else { Family::EvalCacheMisses };
        self.metrics.add(outcome, &[], 1);
        let mut fields = vec![
            ("model".to_string(), Json::Str(entry.name().to_string())),
            ("strategy".to_string(), Json::Str(strategy.name().to_lowercase())),
            ("n_s".to_string(), Json::Num(n_s as f64)),
            ("seed".to_string(), Json::Num(seed as f64)),
            ("graph_version".to_string(), Json::Num(graph_version as f64)),
            ("sample_cache".to_string(), Json::Str(if cache_hit { "hit" } else { "miss" }.into())),
            ("eval_cache".to_string(), Json::Str(if eval_hit { "hit" } else { "miss" }.into())),
            ("num_queries".to_string(), Json::Num(result.ranks.len() as f64)),
            (
                "metrics".to_string(),
                Json::obj([
                    ("mrr", Json::Num(result.metrics.mrr)),
                    ("hits1", Json::Num(result.metrics.hits1)),
                    ("hits3", Json::Num(result.metrics.hits3)),
                    ("hits10", Json::Num(result.metrics.hits10)),
                    ("mean_rank", Json::Num(result.metrics.mean_rank)),
                ]),
            ),
            ("seconds".to_string(), Json::Num(result.seconds)),
        ];
        if include_ranks {
            fields.push(("ranks".to_string(), Json::from_f64s(&result.ranks)));
        }
        Response::json(200, Json::Obj(fields))
    }

    /// `POST /triples`: stream a batch of inserts and/or deletes into the
    /// model's live graph. Ids are validated exactly like `/score` bodies;
    /// the response reports the new graph version and the *effective*
    /// write counts (inserting a known triple or deleting an unknown one
    /// is a no-op and doesn't bump the version).
    fn triples(
        &self,
        registry: &Arc<ModelRegistry>,
        request: &Json,
        entry: &Arc<ModelEntry>,
    ) -> Response {
        if request.get("insert").is_none() && request.get("delete").is_none() {
            return Response::error(400, "provide at least one of 'insert' or 'delete'");
        }
        let parse_side = |field: &str| -> Result<Vec<Triple>, Response> {
            if request.get(field).is_none() {
                return Ok(Vec::new());
            }
            parse_triple_field(request, entry, field, MAX_TRIPLES_PER_REQUEST)
        };
        let insert = match parse_side("insert") {
            Ok(t) => t,
            Err(r) => return r,
        };
        let delete = match parse_side("delete") {
            Ok(t) => t,
            Err(r) => return r,
        };
        let delta = GraphDelta::new(insert, delete);
        let outcome = entry.apply_delta(&delta);
        if outcome.changed() {
            registry.notify_delta(entry.name(), &delta);
        }
        Response::json(
            200,
            Json::obj([
                ("model", Json::Str(entry.name().to_string())),
                ("version", Json::Num(outcome.version as f64)),
                ("inserted", Json::Num(outcome.inserted as f64)),
                ("deleted", Json::Num(outcome.deleted as f64)),
                ("known_triples", Json::Num(outcome.len as f64)),
            ]),
        )
    }

    /// `GET /admin/models`: read-only listing of every registered model —
    /// family, shape, shard count, live-graph version, known-triple count.
    /// Unlike the mutating POST, this needs no token: it exposes nothing a
    /// `/healthz` + `/metrics` scrape doesn't already.
    fn list_models(&self, registry: &Arc<ModelRegistry>) -> Response {
        let models: Vec<Json> = registry
            .names()
            .into_iter()
            .filter_map(|name| registry.get(&name))
            .map(|entry| {
                Json::obj([
                    ("name", Json::Str(entry.name().to_string())),
                    ("family", Json::Str(entry.model().name().to_string())),
                    ("entities", Json::Num(entry.model().num_entities() as f64)),
                    ("relations", Json::Num(entry.model().num_relations() as f64)),
                    ("dim", Json::Num(entry.model().dim() as f64)),
                    ("shards", Json::Num(entry.engine().num_shards() as f64)),
                    ("precision", Json::Str(entry.engine().precision().name().to_string())),
                    ("graph_version", Json::Num(entry.graph_version() as f64)),
                    ("known_triples", Json::Num(entry.live().snapshot().len() as f64)),
                ])
            })
            .collect();
        Response::json(
            200,
            Json::obj([
                ("kernel_isa", Json::Str(kg_models::kernels::active().name().to_string())),
                ("models", Json::Arr(models)),
            ]),
        )
    }

    /// `GET /monitor`: continuous-evaluation status for every monitored
    /// model (see [`crate::monitor`]).
    fn monitor_status(&self, registry: &Arc<ModelRegistry>) -> Response {
        let uptime = self.metrics.uptime_seconds();
        let monitors: Vec<Json> = registry
            .monitor_statuses()
            .into_iter()
            .map(|s| {
                Json::obj([
                    ("model", Json::Str(s.model)),
                    ("window_len", Json::Num(s.window_len as f64)),
                    ("evals_run", Json::Num(s.evals_run as f64)),
                    ("graph_version", Json::Num(s.graph_version as f64)),
                    (
                        "metrics",
                        Json::obj([
                            ("mrr", Json::Num(s.metrics.mrr)),
                            ("hits1", Json::Num(s.metrics.hits1)),
                            ("hits3", Json::Num(s.metrics.hits3)),
                            ("hits10", Json::Num(s.metrics.hits10)),
                            ("mean_rank", Json::Num(s.metrics.mean_rank)),
                        ]),
                    ),
                    ("baseline_mrr", Json::Num(s.baseline_mrr)),
                    ("drift_alarm", Json::Bool(s.drift_alarm)),
                    (
                        "eval_age_seconds",
                        if s.evals_run == 0 {
                            Json::Null
                        } else {
                            Json::Num((uptime - s.last_eval_uptime).max(0.0))
                        },
                    ),
                ])
            })
            .collect();
        Response::json(200, Json::obj([("monitors", Json::Arr(monitors))]))
    }
}

/// Parse the shared `/topk` request knobs: `k` (default 10) and
/// `filtered` (default true). One parser for the public endpoint and the
/// internal `/shard/topk`, so a gateway's workers reject exactly what a
/// single node rejects.
fn parse_topk_params(request: &Json) -> Result<(usize, bool), Response> {
    let k = match request.get("k").map(|v| v.as_usize()) {
        None => Some(10),
        Some(k @ Some(_)) => k,
        Some(None) => None,
    };
    let Some(k) = k else {
        return Err(Response::error(400, "'k' must be a non-negative integer"));
    };
    let filtered = match request.get("filtered") {
        None => true,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Err(Response::error(400, "'filtered' must be a boolean")),
        },
    };
    Ok((k, filtered))
}

/// Parse `"triples": [[h, r, t], …]`, validating ids against the model.
fn parse_triples(request: &Json, entry: &ModelEntry, max: usize) -> Result<Vec<Triple>, Response> {
    parse_triple_field(request, entry, "triples", max)
}

/// Parse `"<field>": [[h, r, t], …]`, validating ids against the model —
/// one parser behind `/score`/`/eval`'s `triples` and `/triples`'
/// `insert`/`delete` arrays, so ingest rejects exactly what scoring does.
fn parse_triple_field(
    request: &Json,
    entry: &ModelEntry,
    field: &str,
    max: usize,
) -> Result<Vec<Triple>, Response> {
    let raw = request
        .get(field)
        .and_then(Json::as_array)
        .ok_or_else(|| Response::error(400, format!("missing array field '{field}'")))?;
    if raw.len() > max {
        return Err(Response::error(413, format!("too many triples (max {max})")));
    }
    let ne = entry.model().num_entities() as u64;
    let nr = entry.model().num_relations() as u64;
    let mut out = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let parts = item.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
            Response::error(400, format!("{field}[{i}] must be a [head, relation, tail] array"))
        })?;
        let ids: Vec<u64> = parts.iter().filter_map(Json::as_u64).collect();
        if ids.len() != 3 {
            return Err(Response::error(
                400,
                format!("{field}[{i}] must hold three non-negative integers"),
            ));
        }
        // PANIC-OK: `ids.len() == 3` was checked directly above.
        let (h, r, t) = (ids[0], ids[1], ids[2]);
        if h >= ne || t >= ne {
            return Err(Response::error(
                422,
                format!("{field}[{i}]: entity id out of range (|E| = {ne})"),
            ));
        }
        if r >= nr {
            return Err(Response::error(
                422,
                format!("{field}[{i}]: relation id out of range (|R| = {nr})"),
            ));
        }
        out.push(Triple::new(h as u32, r as u32, t as u32));
    }
    Ok(out)
}

/// Parse `"queries": [{"head": h, "relation": r} | {"relation": r, "tail": t}, …]`.
fn parse_topk_queries(
    request: &Json,
    entry: &ModelEntry,
) -> Result<Vec<(Triple, QuerySide)>, Response> {
    let raw = request
        .get("queries")
        .and_then(Json::as_array)
        .ok_or_else(|| Response::error(400, "missing array field 'queries'"))?;
    if raw.len() > MAX_TOPK_QUERIES {
        return Err(Response::error(413, format!("too many queries (max {MAX_TOPK_QUERIES})")));
    }
    let ne = entry.model().num_entities() as u64;
    let nr = entry.model().num_relations() as u64;
    let mut out = Vec::with_capacity(raw.len());
    for (i, q) in raw.iter().enumerate() {
        let r = q.get("relation").and_then(Json::as_u64).ok_or_else(|| {
            Response::error(400, format!("queries[{i}]: missing integer field 'relation'"))
        })?;
        if r >= nr {
            return Err(Response::error(
                422,
                format!("queries[{i}]: relation id out of range (|R| = {nr})"),
            ));
        }
        let head = q.get("head").map(Json::as_u64);
        let tail = q.get("tail").map(Json::as_u64);
        // Validate the fixed entity's u64 value *before* the u32 cast, so
        // ids in (u32::MAX, 2^53] are rejected rather than truncated.
        let (fixed, side) = match (head, tail) {
            (Some(Some(h)), None) => (h, QuerySide::Tail),
            (None, Some(Some(t))) => (t, QuerySide::Head),
            (Some(None), _) | (_, Some(None)) => {
                return Err(Response::error(
                    400,
                    format!("queries[{i}]: 'head'/'tail' must be non-negative integers"),
                ))
            }
            (Some(_), Some(_)) => {
                return Err(Response::error(
                    400,
                    format!("queries[{i}]: give exactly one of 'head' (tail prediction) or 'tail' (head prediction)"),
                ))
            }
            (None, None) => {
                return Err(Response::error(
                    400,
                    format!("queries[{i}]: give one of 'head' or 'tail'"),
                ))
            }
        };
        if fixed >= ne {
            return Err(Response::error(
                422,
                format!("queries[{i}]: entity id out of range (|E| = {ne})"),
            ));
        }
        let triple = match side {
            QuerySide::Tail => Triple::new(fixed as u32, r as u32, 0),
            QuerySide::Head => Triple::new(0, r as u32, fixed as u32),
        };
        out.push((triple, side));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::{EntityId, FilterIndex};
    use kg_models::{build_model, KgcModel, ModelKind};

    fn router() -> (Router, Arc<ModelRegistry>) {
        let registry = Arc::new(ModelRegistry::new());
        let model = build_model(ModelKind::DistMult, 30, 3, 8, 7);
        let triples: Vec<Triple> =
            (0..15).map(|i| Triple::new(i % 30, i % 3, (i * 2 + 1) % 30)).collect();
        let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
        registry.register("m", Arc::from(model as Box<dyn KgcModel>), filter);
        (Router::new(Arc::clone(&registry)), registry)
    }

    #[test]
    fn healthz_lists_models() {
        let (router, _) = router();
        let r = router.handle("GET", "/healthz", "");
        assert_eq!(r.status, 200);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(v.get("models").and_then(Json::as_array).map(<[Json]>::len), Some(1));
    }

    #[test]
    fn healthz_and_model_list_report_kernel_and_precision() {
        let (router, _) = router();
        let r = router.handle("GET", "/healthz", "");
        let v = Json::parse(&r.body).unwrap();
        let isa = v.get("kernel_isa").and_then(Json::as_str).unwrap().to_string();
        assert!(["scalar", "avx2", "neon"].contains(&isa.as_str()), "unknown isa {isa}");
        let ranges = v.get("shard_ranges").and_then(Json::as_array).unwrap();
        assert_eq!(ranges[0].get("precision").and_then(Json::as_str), Some("f32"));

        let r = router.handle("GET", "/admin/models", "");
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("kernel_isa").and_then(Json::as_str), Some(isa.as_str()));
        let models = v.get("models").and_then(Json::as_array).unwrap();
        assert_eq!(models[0].get("precision").and_then(Json::as_str), Some("f32"));

        let m = router.handle("GET", "/metrics", "");
        assert!(m.body.contains(&format!("kg_serve_kernel_info{{isa=\"{isa}\"}} 1")), "{}", m.body);
        assert!(
            m.body.contains("kg_serve_model_precision_info{model=\"m\",precision=\"f32\"} 1"),
            "{}",
            m.body
        );
    }

    #[test]
    fn admin_reload_with_precision_quantizes() {
        let (router, registry) = router();
        let replacement = build_model(ModelKind::DistMult, 30, 3, 8, 8);
        let dir = std::env::temp_dir().join(format!("kg-serve-prec-{}", std::process::id()));
        let path = dir.join("q.kgev");
        kg_models::io::save_model_to_path(replacement.as_ref(), ModelKind::DistMult, &path)
            .unwrap();
        let body = format!(r#"{{"name":"m","path":"{}","precision":"int8"}}"#, path.display());
        let r = router.handle("POST", "/admin/models", &body);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("precision").and_then(Json::as_str), Some("int8"));
        assert_eq!(registry.get("m").unwrap().engine().precision(), kg_models::Precision::Int8);
        let m = router.handle("GET", "/metrics", "");
        assert!(
            m.body.contains("kg_serve_model_precision_info{model=\"m\",precision=\"int8\"} 1"),
            "{}",
            m.body
        );
        // Unknown precision values are rejected, not defaulted.
        let bad = format!(r#"{{"name":"m","path":"{}","precision":"int4"}}"#, path.display());
        assert_eq!(router.handle("POST", "/admin/models", &bad).status, 400);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn score_roundtrip_matches_direct_calls() {
        let (router, registry) = router();
        let r = router.handle("POST", "/score", r#"{"model":"m","triples":[[0,1,2],[5,2,7]]}"#);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        let scores = v.get("scores").and_then(Json::as_array).unwrap();
        let model = registry.get("m").unwrap();
        let expect0 = model.model().score(EntityId(0), kg_core::RelationId(1), EntityId(2));
        assert_eq!(scores[0].as_f64().unwrap() as f32, expect0);
        assert_eq!(v.get("count").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn score_validates_ids_and_shape() {
        let (router, _) = router();
        for (body, status) in [
            (r#"{"model":"m"}"#, 400),
            (r#"{"model":"m","triples":[[0,1]]}"#, 400),
            (r#"{"model":"m","triples":[[0,1,99]]}"#, 422),
            (r#"{"model":"m","triples":[[0,9,1]]}"#, 422),
            (r#"{"model":"nope","triples":[[0,1,2]]}"#, 404),
            ("not json", 400),
        ] {
            let r = router.handle("POST", "/score", body);
            assert_eq!(r.status, status, "body {body} → {}", r.body);
        }
    }

    #[test]
    fn an_over_nested_body_is_a_400_and_the_router_keeps_serving() {
        let (router, _) = router();
        let r = router.handle("POST", "/score", &"[".repeat(100_000));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("nested too deeply"), "{}", r.body);
        let r = router.handle("POST", "/score", r#"{"model":"m","triples":[[0,1,2]]}"#);
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn topk_returns_sorted_filtered_results() {
        let (router, registry) = router();
        let body =
            r#"{"model":"m","queries":[{"head":0,"relation":1},{"relation":1,"tail":3}],"k":5}"#;
        let r = router.handle("POST", "/topk", body);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        let results = v.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        let model = registry.get("m").unwrap();
        for (qi, (triple, side)) in
            [(Triple::new(0, 1, 0), QuerySide::Tail), (Triple::new(0, 1, 3), QuerySide::Head)]
                .iter()
                .enumerate()
        {
            let entities = results[qi].get("entities").and_then(Json::as_array).unwrap();
            let scores = results[qi].get("scores").and_then(Json::as_array).unwrap();
            assert_eq!(entities.len(), 5);
            // Scores descend.
            let s: Vec<f64> = scores.iter().filter_map(Json::as_f64).collect();
            assert!(s.windows(2).all(|w| w[0] >= w[1]), "unsorted: {s:?}");
            // Each reported score matches a direct model call.
            let mut all = vec![0.0f32; model.model().num_entities()];
            model.model().score_all(*triple, *side, &mut all);
            for (e, sc) in entities.iter().zip(&s) {
                let id = e.as_usize().unwrap();
                assert_eq!(all[id] as f64, *sc);
            }
            // Filtered: known answers excluded.
            let snapshot = model.live().snapshot();
            let known = snapshot.known_answers(*triple, *side);
            for e in entities {
                let id = EntityId(e.as_usize().unwrap() as u32);
                assert!(known.binary_search(&id).is_err(), "known answer {id:?} not removed");
            }
        }
    }

    #[test]
    fn topk_unfiltered_keeps_known_answers() {
        let (router, _) = router();
        let body = r#"{"model":"m","queries":[{"head":0,"relation":0}],"k":30,"filtered":false}"#;
        let r = router.handle("POST", "/topk", body);
        let v = Json::parse(&r.body).unwrap();
        let entities =
            v.get("results").and_then(Json::as_array).unwrap()[0].get("entities").unwrap();
        assert_eq!(entities.as_array().unwrap().len(), 30, "every entity returned");
    }

    #[test]
    fn topk_validates_queries() {
        let (router, _) = router();
        for body in [
            r#"{"model":"m","queries":[{"relation":1}]}"#,
            r#"{"model":"m","queries":[{"head":1,"tail":2,"relation":1}]}"#,
            r#"{"model":"m","queries":[{"head":1}]}"#,
            r#"{"model":"m","queries":[{"head":99,"relation":1}]}"#,
            r#"{"model":"m"}"#,
        ] {
            let r = router.handle("POST", "/topk", body);
            assert!(r.status >= 400, "{body} accepted: {}", r.body);
        }
    }

    #[test]
    fn topk_rejects_ids_beyond_u32_instead_of_truncating() {
        let (router, _) = router();
        // 2^32 would truncate to entity 0 if cast before validation.
        let r = router.handle(
            "POST",
            "/topk",
            r#"{"model":"m","queries":[{"head":4294967296,"relation":1}]}"#,
        );
        assert_eq!(r.status, 422, "{}", r.body);
        let r = router.handle(
            "POST",
            "/topk",
            r#"{"model":"m","queries":[{"relation":1,"tail":4294967296}]}"#,
        );
        assert_eq!(r.status, 422, "{}", r.body);
    }

    #[test]
    fn unknown_paths_share_one_metrics_label() {
        let (router, _) = router();
        router.handle("GET", "/scan-1", "");
        router.handle("GET", "/scan-2", "");
        let m = router.handle("GET", "/metrics", "");
        assert!(m.body.contains("kg_serve_requests_total{endpoint=\"other\"} 2"), "{}", m.body);
        assert!(!m.body.contains("/scan-1"), "per-path labels would be unbounded: {}", m.body);
    }

    #[test]
    fn eval_matches_library_bit_for_bit() {
        let (router, registry) = router();
        let body = r#"{"model":"m","triples":[[0,1,2],[5,2,7],[9,0,4]],"n_s":8,"seed":42,"include_ranks":true}"#;
        let r = router.handle("POST", "/eval", body);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();

        let entry = registry.get("m").unwrap();
        let triples = [Triple::new(0, 1, 2), Triple::new(5, 2, 7), Triple::new(9, 0, 4)];
        let samples = kg_recommend::sample_candidates(
            SamplingStrategy::Random,
            entry.model().num_entities(),
            entry.model().num_relations(),
            8,
            None,
            None,
            &mut kg_core::sample::seeded_rng(42),
        );
        let snapshot = entry.live().snapshot();
        let direct = evaluate_sampled(
            entry.model().as_ref(),
            &triples,
            snapshot.as_ref(),
            &samples,
            TieBreak::Mean,
            entry.threads(),
        );
        let mrr = v.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
        assert_eq!(mrr.to_bits(), direct.metrics.mrr.to_bits(), "MRR must agree bit-for-bit");
        let ranks: Vec<f64> = v
            .get("ranks")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(ranks, direct.ranks);
        assert_eq!(v.get("num_queries").and_then(Json::as_usize), Some(6));
    }

    #[test]
    fn eval_reports_cache_hits() {
        let (router, _) = router();
        let body = r#"{"model":"m","triples":[[0,1,2]],"n_s":5,"seed":1}"#;
        let first = Json::parse(&router.handle("POST", "/eval", body).body).unwrap();
        assert_eq!(first.get("sample_cache").and_then(Json::as_str), Some("miss"));
        let second = Json::parse(&router.handle("POST", "/eval", body).body).unwrap();
        assert_eq!(second.get("sample_cache").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn eval_sample_cache_survives_requests_but_not_hot_reloads() {
        // The /eval sample cache lives on the registry entry: requests
        // accumulate hits, a hot-reload flips the entry and starts cold —
        // but seeded sampling makes the reported metrics bit-identical
        // before and after (weights unchanged: we reload the same file).
        let (router, registry) = router();
        let model = registry.get("m").unwrap();
        let dir = std::env::temp_dir().join(format!("kg-serve-eval-cache-{}", std::process::id()));
        let path = dir.join("same.kgev");
        // Persist the *currently served* weights (same build args + seed
        // as the fixture) so the reload only exercises the cache
        // lifecycle, not a model change.
        let twin = build_model(ModelKind::DistMult, 30, 3, 8, 7);
        kg_models::io::save_model_to_path(twin.as_ref(), ModelKind::DistMult, &path).unwrap();
        assert_eq!(
            twin.score(EntityId(1), kg_core::RelationId(0), EntityId(2)),
            model.model().score(EntityId(1), kg_core::RelationId(0), EntityId(2)),
            "twin snapshot must carry the served weights"
        );

        let body = r#"{"model":"m","triples":[[0,1,2],[4,2,9]],"n_s":6,"seed":3}"#;
        let first = Json::parse(&router.handle("POST", "/eval", body).body).unwrap();
        assert_eq!(first.get("sample_cache").and_then(Json::as_str), Some("miss"));
        let second = Json::parse(&router.handle("POST", "/eval", body).body).unwrap();
        assert_eq!(second.get("sample_cache").and_then(Json::as_str), Some("hit"));

        let reload = format!(r#"{{"name":"m","path":"{}"}}"#, path.display());
        assert_eq!(router.handle("POST", "/admin/models", &reload).status, 200);
        let third = Json::parse(&router.handle("POST", "/eval", body).body).unwrap();
        assert_eq!(
            third.get("sample_cache").and_then(Json::as_str),
            Some("miss"),
            "the reloaded entry starts with a cold sample cache"
        );
        let fourth = Json::parse(&router.handle("POST", "/eval", body).body).unwrap();
        assert_eq!(fourth.get("sample_cache").and_then(Json::as_str), Some("hit"));
        // Identical weights + seeded samples → identical metrics through
        // the whole lifecycle.
        let mrr = |v: &Json| v.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
        assert_eq!(mrr(&first).to_bits(), mrr(&third).to_bits());
        assert_eq!(mrr(&second).to_bits(), mrr(&fourth).to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_rejects_unsupported_strategy() {
        let (router, _) = router();
        let body = r#"{"model":"m","triples":[[0,1,2]],"strategy":"static"}"#;
        let r = router.handle("POST", "/eval", body);
        assert_eq!(r.status, 400, "{}", r.body);
        let r = router.handle(
            "POST",
            "/eval",
            r#"{"model":"m","triples":[[0,1,2]],"strategy":"nope"}"#,
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn unknown_routes_and_metrics() {
        let (router, _) = router();
        assert_eq!(router.handle("GET", "/nope", "").status, 404);
        assert_eq!(router.handle("DELETE", "/score", "").status, 405);
        router.handle("POST", "/score", r#"{"model":"m","triples":[[0,0,0]]}"#);
        let m = router.handle("GET", "/metrics", "");
        assert_eq!(m.status, 200);
        // Two hits on /score: the rejected DELETE and the successful POST.
        assert!(m.body.contains("kg_serve_requests_total{endpoint=\"/score\"} 2"), "{}", m.body);
        assert!(
            m.body.contains("kg_serve_request_errors_total{endpoint=\"/score\"} 1"),
            "{}",
            m.body
        );
        assert!(m.body.contains("kg_serve_latency_seconds"));
    }

    #[test]
    fn topk_responses_identical_for_every_shard_count() {
        // The same registry contents served under different shard configs
        // must produce byte-identical /topk responses.
        let model_for = || {
            let m = build_model(ModelKind::RotatE, 30, 3, 8, 7);
            Arc::from(m as Box<dyn KgcModel>) as Arc<dyn KgcModel>
        };
        let triples: Vec<Triple> =
            (0..15).map(|i| Triple::new(i % 30, i % 3, (i * 2 + 1) % 30)).collect();
        let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
        let body = r#"{"model":"m","queries":[{"head":0,"relation":1},{"relation":2,"tail":3},{"head":7,"relation":0}],"k":9}"#;
        let single = r#"{"model":"m","queries":[{"head":4,"relation":1}],"k":30}"#;
        let serve_with = |shards: usize| {
            let registry = Arc::new(ModelRegistry::with_config(crate::registry::RegistryConfig {
                shards,
                ..crate::registry::RegistryConfig::default()
            }));
            registry.register("m", model_for(), Arc::clone(&filter));
            let router = Router::new(registry);
            (router.handle("POST", "/topk", body).body, router.handle("POST", "/topk", single).body)
        };
        let (base_multi, base_single) = serve_with(1);
        for shards in [2usize, 7, 30] {
            let (multi, single_r) = serve_with(shards);
            // The shard count is reported, so compare the results payload.
            let strip = |b: &str| {
                let v = Json::parse(b).unwrap();
                v.get("results").unwrap().to_string()
            };
            assert_eq!(strip(&multi), strip(&base_multi), "S={shards} multi-query diverged");
            assert_eq!(strip(&single_r), strip(&base_single), "S={shards} fan-out diverged");
        }
    }

    #[test]
    fn shard_topk_over_the_full_range_matches_public_topk() {
        // A worker with no shard role serves the full range: its partials
        // decode to exactly the public /topk results.
        let (router, _) = router();
        let body =
            r#"{"model":"m","queries":[{"head":0,"relation":1},{"relation":2,"tail":3}],"k":6}"#;
        let public = Json::parse(&router.handle("POST", "/topk", body).body).unwrap();
        let r = router.handle("POST", "/shard/topk", body);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("k"), public.get("k"));
        assert_eq!(v.get("filtered"), public.get("filtered"));
        assert_eq!(v.get("shards"), public.get("shards"));
        assert_eq!(v.get("entities").and_then(Json::as_usize), Some(30));
        let range = v.get("range").and_then(Json::as_array).unwrap();
        assert_eq!(
            (range[0].as_usize(), range[1].as_usize()),
            (Some(0), Some(30)),
            "no worker role → the full range"
        );
        let partials = v.get("partials").and_then(Json::as_array).unwrap();
        let results = public.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(partials.len(), results.len());
        for (wire, want) in partials.iter().zip(results) {
            let decoded = kg_core::partial::PartialTopK::decode(wire.as_str().unwrap()).unwrap();
            let entities: Vec<f64> = decoded.entries().iter().map(|&(e, _)| e as f64).collect();
            let want_entities: Vec<f64> = want
                .get("entities")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            assert_eq!(entities, want_entities, "full-range partial == public top-k");
        }
    }

    #[test]
    fn shard_workers_tile_the_entity_space_and_merge_to_the_full_result() {
        use kg_core::partial::{Partial, PartialTopK};
        // Two worker registries over the same weights, shard 0/2 and 1/2:
        // merged /shard/topk partials equal the single-node /topk.
        let model_for = || {
            let m = build_model(ModelKind::RotatE, 30, 3, 8, 7);
            Arc::from(m as Box<dyn KgcModel>) as Arc<dyn KgcModel>
        };
        let triples: Vec<Triple> =
            (0..15).map(|i| Triple::new(i % 30, i % 3, (i * 2 + 1) % 30)).collect();
        let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
        let worker = |index: usize| {
            let registry = Arc::new(ModelRegistry::with_config(crate::registry::RegistryConfig {
                worker_shard: Some(crate::registry::WorkerShard { index, of: 2 }),
                ..crate::registry::RegistryConfig::default()
            }));
            registry.register("m", model_for(), Arc::clone(&filter));
            Router::new(registry)
        };
        let (w0, w1) = (worker(0), worker(1));
        let single = {
            let registry = Arc::new(ModelRegistry::new());
            registry.register("m", model_for(), Arc::clone(&filter));
            Router::new(registry)
        };

        // /shard/topk: per-worker partials merge to the public result.
        let topk_body =
            r#"{"model":"m","queries":[{"head":2,"relation":1},{"relation":0,"tail":9}],"k":8}"#;
        let full = Json::parse(&single.handle("POST", "/topk", topk_body).body).unwrap();
        let p0 = Json::parse(&w0.handle("POST", "/shard/topk", topk_body).body).unwrap();
        let p1 = Json::parse(&w1.handle("POST", "/shard/topk", topk_body).body).unwrap();
        // The two ranges tile 0..30.
        let range_of = |v: &Json| {
            let r = v.get("range").and_then(Json::as_array).unwrap();
            (r[0].as_usize().unwrap(), r[1].as_usize().unwrap())
        };
        assert_eq!(range_of(&p0), (0, 15));
        assert_eq!(range_of(&p1), (15, 30));
        let partials = |v: &Json| -> Vec<PartialTopK> {
            v.get("partials")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|w| PartialTopK::decode(w.as_str().unwrap()).unwrap())
                .collect()
        };
        let results = full.get("results").and_then(Json::as_array).unwrap();
        for ((mut a, b), want) in partials(&p0).into_iter().zip(partials(&p1)).zip(results) {
            a.merge(b);
            let got: Vec<f64> = a.into_entries().iter().map(|&(e, _)| e as f64).collect();
            let want: Vec<f64> = want
                .get("entities")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            assert_eq!(got, want, "merged shard partials == single-node top-k");
        }
    }

    #[test]
    fn shard_endpoints_validate_like_their_public_counterparts() {
        let (router, _) = router();
        // Same rejections as /topk.
        for body in [
            r#"{"model":"m","queries":[{"relation":1}]}"#,
            r#"{"model":"m","queries":[{"head":99,"relation":1}]}"#,
            r#"{"model":"m","queries":[{"head":1,"relation":1}],"k":"many"}"#,
            r#"{"model":"nope","queries":[{"head":1,"relation":1}]}"#,
        ] {
            let public = router.handle("POST", "/topk", body);
            let shard = router.handle("POST", "/shard/topk", body);
            assert!(shard.status >= 400, "{body} accepted: {}", shard.body);
            assert_eq!(shard.status, public.status, "{body}: statuses diverge");
            assert_eq!(shard.body, public.body, "{body}: error bodies diverge");
        }
        // There is no `/shard/rank`: it answers like any unknown route.
        let r = router.handle("POST", "/shard/rank", r#"{"model":"m","triples":[[0,1,2]]}"#);
        assert_eq!(r.status, 404, "{}", r.body);
    }

    #[test]
    fn admin_reload_flips_model_and_keeps_old_arc_alive() {
        let (router, registry) = router();
        let old_entry = registry.get("m").unwrap();
        // Train-free stand-in: persist a *different* model and hot-load it.
        let replacement = build_model(ModelKind::ComplEx, 30, 3, 8, 99);
        let dir = std::env::temp_dir().join(format!("kg-serve-admin-{}", std::process::id()));
        let path = dir.join("replacement.kgev");
        kg_models::io::save_model_to_path(replacement.as_ref(), ModelKind::ComplEx, &path).unwrap();
        let body = format!(r#"{{"name":"m","path":"{}"}}"#, path.display());
        let r = router.handle("POST", "/admin/models", &body);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("replaced"));
        assert_eq!(v.get("entities").and_then(Json::as_usize), Some(30));
        // The registry now serves the replacement …
        let new_entry = registry.get("m").unwrap();
        assert_eq!(new_entry.model().name(), "ComplEx");
        assert_eq!(
            new_entry.model().score(EntityId(1), kg_core::RelationId(0), EntityId(2)),
            replacement.score(EntityId(1), kg_core::RelationId(0), EntityId(2))
        );
        // … the old live graph was inherited (same allocation, version and
        // deltas included), and the old Arc still works for requests in
        // flight across the flip.
        assert!(
            Arc::ptr_eq(old_entry.live(), new_entry.live()),
            "reload must donate the existing live graph"
        );
        assert!(old_entry
            .model()
            .score(EntityId(0), kg_core::RelationId(1), EntityId(2))
            .is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admin_reload_rejects_shape_changes_and_enforces_token() {
        // Shape change: the donated filter/artifacts would be wrong.
        let (router, _) = router();
        let wrong_shape = build_model(ModelKind::DistMult, 12, 2, 8, 5);
        let dir = std::env::temp_dir().join(format!("kg-serve-admin-shape-{}", std::process::id()));
        let path = dir.join("wrong.kgev");
        kg_models::io::save_model_to_path(wrong_shape.as_ref(), ModelKind::DistMult, &path)
            .unwrap();
        let body = format!(r#"{{"name":"m","path":"{}"}}"#, path.display());
        let r = router.handle("POST", "/admin/models", &body);
        assert_eq!(r.status, 422, "{}", r.body);
        assert!(r.body.contains("shape"), "names the mismatch: {}", r.body);

        // Token-gated registry: reloads need the shared secret.
        let registry = Arc::new(ModelRegistry::with_config(crate::registry::RegistryConfig {
            admin_token: Some("sesame".into()),
            ..crate::registry::RegistryConfig::default()
        }));
        let gated = Router::new(registry);
        let ok_model = build_model(ModelKind::DistMult, 12, 2, 8, 5);
        let ok_path = dir.join("fresh.kgev");
        kg_models::io::save_model_to_path(ok_model.as_ref(), ModelKind::DistMult, &ok_path)
            .unwrap();
        let no_token = format!(r#"{{"name":"n","path":"{}"}}"#, ok_path.display());
        assert_eq!(gated.handle("POST", "/admin/models", &no_token).status, 403);
        let bad_token = format!(r#"{{"name":"n","path":"{}","token":"guess"}}"#, ok_path.display());
        assert_eq!(gated.handle("POST", "/admin/models", &bad_token).status, 403);
        let with_token =
            format!(r#"{{"name":"n","path":"{}","token":"sesame"}}"#, ok_path.display());
        let r = gated.handle("POST", "/admin/models", &with_token);
        assert_eq!(r.status, 200, "{}", r.body);
        // I/O failures are collapsed so the endpoint cannot probe paths.
        let probe = r#"{"name":"n","path":"/etc/shadow-nope","token":"sesame"}"#;
        let r = gated.handle("POST", "/admin/models", probe);
        assert_eq!(r.status, 422);
        assert!(
            r.body.contains("unreadable or malformed") && !r.body.contains("shadow"),
            "no path/IO detail leaks: {}",
            r.body
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admin_reload_validates_input() {
        let (router, _) = router();
        for (body, status) in [
            (r#"{"path":"/nope"}"#, 400),
            (r#"{"name":"m"}"#, 400),
            ("not json", 400),
            (r#"{"name":"m","path":"/nonexistent/model.kgev"}"#, 422),
        ] {
            let r = router.handle("POST", "/admin/models", body);
            assert_eq!(r.status, status, "body {body} → {}", r.body);
        }
        // A brand-new name loads with an empty filter.
        let model = build_model(ModelKind::DistMult, 12, 2, 8, 3);
        let dir = std::env::temp_dir().join(format!("kg-serve-admin-new-{}", std::process::id()));
        let path = dir.join("fresh.kgev");
        kg_models::io::save_model_to_path(model.as_ref(), ModelKind::DistMult, &path).unwrap();
        let body = format!(r#"{{"name":"fresh","path":"{}"}}"#, path.display());
        let r = router.handle("POST", "/admin/models", &body);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("loaded"));
        let Mode::Local(registry) = &router.mode else { panic!("local router") };
        let entry = registry.get("fresh").unwrap();
        assert!(entry.live().snapshot().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
