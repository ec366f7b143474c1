//! Multi-node scatter/gather gateway: one front door over a fleet of
//! shard workers, answering **byte-identically** to a single-node server.
//!
//! ## Topology
//!
//! Every worker holds the *full* model but owns one slice of the entity
//! space ([`crate::registry::WorkerShard`]: worker `i` of `N` serves
//! `ShardPlan::new(|E|, N).range(i)` — the same deterministic partition
//! the in-process sharded engine uses, so boundaries need no
//! negotiation). The gateway holds no models at all; it scatters each
//! request across the workers over pooled keep-alive
//! [`client::Connection`]s and recombines the pieces:
//!
//! * `/topk` → every worker's internal `POST /shard/topk` evaluates the
//!   queries over its configured range and returns wire-encoded
//!   [`PartialTopK`]s; the gateway merges them with
//!   [`kg_core::partial::Partial::merge`] — the same code the in-process
//!   shard fan-out uses — and verifies the reported ranges exactly tile
//!   `0..|E|` before trusting the merge.
//! * `/score` and `/eval` decompose by *queries* rather than by entity
//!   range (each triple's score / sampled rank is independent): the
//!   triple list is split into contiguous chunks, one per worker, and the
//!   per-chunk results are concatenated in order. `/eval` metrics are
//!   refolded from the merged rank vector with the same
//!   [`kg_eval::RankingMetrics::from_ranks`] fold a single node runs, so
//!   every reported metric is bit-identical; only the wall-clock
//!   `"seconds"` field is the gateway's own (as it differs between any
//!   two runs anywhere).
//!
//! Requests the gateway cannot decompose (malformed JSON, missing
//! fields, over-limit sizes) are relayed verbatim to worker 0, and a
//! chunk-scattered request any worker rejects is **recomputed against
//! the full body** on worker 0 (whose error message then carries the
//! client's own indices, not chunk-local ones) — so even error bodies
//! are identical to a single node's.
//!
//! ## Failure semantics
//!
//! A background prober hits each worker's `/healthz` every
//! [`GatewayConfig::health_interval`]; a worker that fails a probe or a
//! live request is marked unhealthy, the failure is counted in
//! `kg_serve_gateway_backend_errors_total{backend=…}`, and requests
//! answer `503` with `Retry-After` until the prober sees the worker
//! again. There is no partial answering: a missing worker means a
//! missing entity range, and a silently range-incomplete ranking would
//! be exactly the protocol drift this design exists to prevent.
//! Scatter and merge phase latencies are exported per endpoint as
//! `kg_serve_gateway_scatter_seconds` / `kg_serve_gateway_merge_seconds`.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use kg_core::partial::{Partial, PartialTopK};
use kg_eval::RankingMetrics;

use crate::client::{ClientConfig, Connection};
use crate::http_metrics::{Family, HttpMetrics};
use crate::json::Json;
use crate::router::Response;

/// Idle connections kept per backend; beyond this, finished connections
/// are closed instead of pooled.
const POOL_MAX_IDLE: usize = 16;

/// Gateway topology and budgets.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Worker addresses, **in shard order**: `backends[i]` must be the
    /// worker configured as shard `i` of `backends.len()`
    /// ([`crate::registry::WorkerShard`]); the gateway verifies the
    /// reported ranges tile the entity space on every `/topk`.
    pub backends: Vec<String>,
    /// Connect/read budgets for every backend connection (the gateway
    /// needs both bounded: a dead backend must cost a timeout, not a
    /// hang).
    pub client: ClientConfig,
    /// How often the background prober checks each backend's `/healthz`;
    /// `Duration::ZERO` disables probing (backends are then only marked
    /// unhealthy by failing live requests, and recover on gateway
    /// restart — fine for tests, not for production).
    pub health_interval: Duration,
    /// `Retry-After` seconds advertised on 503 responses.
    pub retry_after_secs: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backends: Vec::new(),
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(2)),
                read_timeout: Some(Duration::from_secs(30)),
            },
            health_interval: Duration::from_secs(1),
            retry_after_secs: 1,
        }
    }
}

/// One backend worker: address, health flag, and a pool of keep-alive
/// connections.
struct Backend {
    addr: SocketAddr,
    label: String,
    client: ClientConfig,
    pool: Mutex<Vec<Connection>>,
    healthy: AtomicBool,
}

impl Backend {
    /// Issue one request, preferring a pooled keep-alive connection. A
    /// pooled connection may have been idle-closed by the worker since
    /// its last use; **only** that failure shape — the socket was closed
    /// before any response byte (EOF/reset/broken pipe, which fail
    /// instantly) — discards the stale connection and retries on the
    /// next (ultimately a fresh) one. Timeouts and other transport
    /// errors are *not* retried: a worker that is merely slow would
    /// otherwise have the same expensive ranking re-executed once per
    /// warm pooled connection before the caller finally saw the failure.
    fn call(&self, method: &str, path: &str, body: Option<&str>) -> std::io::Result<(u16, String)> {
        loop {
            let pooled = self.pool.lock().unwrap().pop();
            let Some(mut conn) = pooled else { break };
            match conn.request(method, path, body) {
                Ok((status, resp)) => {
                    self.recycle(conn);
                    return Ok((status, resp));
                }
                Err(e) if is_stale_connection(&e) => continue,
                Err(e) => return Err(e),
            }
        }
        let mut conn = Connection::open_with(self.addr, &self.client)?;
        let (status, resp) = conn.request(method, path, body)?;
        self.recycle(conn);
        Ok((status, resp))
    }

    fn recycle(&self, conn: Connection) {
        if !conn.server_closed() {
            let mut pool = self.pool.lock().unwrap();
            if pool.len() < POOL_MAX_IDLE {
                pool.push(conn);
            }
        }
    }
}

/// Whether a request failure looks like "the pooled keep-alive socket
/// had already been closed by the peer" (idle timeout, per-connection
/// request cap) — the only failure worth retrying on another connection.
fn is_stale_connection(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

struct Inner {
    backends: Vec<Backend>,
    metrics: Arc<HttpMetrics>,
    retry_after_secs: u64,
}

/// The scatter/gather front door (see the module docs). Construct with
/// [`Gateway::new`] and serve it through
/// [`crate::router::Router::gateway`].
pub struct Gateway {
    inner: Arc<Inner>,
}

impl Gateway {
    /// Gateway over `config.backends` (at least one required; addresses
    /// are resolved eagerly so a typo fails at construction, not at the
    /// first request). Spawns the health prober unless
    /// `config.health_interval` is zero; the prober exits when the
    /// gateway is dropped.
    pub fn new(config: GatewayConfig) -> std::io::Result<Gateway> {
        if config.backends.is_empty() {
            return Err(std::io::Error::other("gateway needs at least one backend"));
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for spec in &config.backends {
            let addr = spec
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other(format!("unresolvable backend {spec:?}")))?;
            backends.push(Backend {
                addr,
                label: spec.clone(),
                client: config.client.clone(),
                pool: Mutex::new(Vec::new()),
                healthy: AtomicBool::new(true),
            });
        }
        let inner = Arc::new(Inner {
            backends,
            metrics: Arc::new(HttpMetrics::new()),
            retry_after_secs: config.retry_after_secs,
        });
        if !config.health_interval.is_zero() {
            let weak = Arc::downgrade(&inner);
            let interval = config.health_interval;
            std::thread::spawn(move || probe_loop(weak, interval));
        }
        Ok(Gateway { inner })
    }

    /// The gateway's metrics registry (the server renders `/metrics` from
    /// it).
    pub fn metrics(&self) -> &Arc<HttpMetrics> {
        &self.inner.metrics
    }

    /// Number of configured backends.
    pub fn num_backends(&self) -> usize {
        self.inner.backends.len()
    }

    /// Whether every backend is currently believed healthy.
    pub fn all_healthy(&self) -> bool {
        // ORDERING: Relaxed — the health flag is advisory and publishes no
        // data; a stale read costs one misrouted request, which fails and
        // re-marks the backend itself.
        self.inner.backends.iter().all(|b| b.healthy.load(Ordering::Relaxed))
    }

    /// Gateway liveness: its own status plus per-backend health.
    pub fn healthz(&self) -> Response {
        let backends: Vec<Json> = self
            .inner
            .backends
            .iter()
            .map(|b| {
                Json::obj([
                    ("addr", Json::Str(b.label.clone())),
                    // ORDERING: Relaxed — advisory health flag, see
                    // `all_healthy`.
                    ("healthy", Json::Bool(b.healthy.load(Ordering::Relaxed))),
                ])
            })
            .collect();
        let status = if self.all_healthy() { "ok" } else { "degraded" };
        Response::json_ok(Json::obj([
            ("status", Json::Str(status.into())),
            ("role", Json::Str("gateway".into())),
            ("uptime_seconds", Json::Num(self.inner.metrics.uptime_seconds())),
            ("backends", Json::Arr(backends)),
        ]))
    }

    /// `POST /score`: chunk the triples across workers, concatenate the
    /// per-chunk score arrays in order.
    pub fn score(&self, body: &str) -> Response {
        let started = Instant::now();
        let Some((request, triples)) = self.parse_for_chunking(body, "triples") else {
            return self.relay_to_first("/score", body);
        };
        let chunks = chunk_field(&request, "triples", &triples, self.inner.backends.len());
        let chunk_refs: Vec<Option<&str>> = chunks.iter().map(Option::as_deref).collect();
        let responses = match self.scatter("/score", &chunk_refs) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        if let Some(resp) = self.revalidate_chunk_rejection("/score", body, &responses) {
            return resp;
        }
        let scatter_us = started.elapsed().as_micros() as u64;
        let parsed = match self.parse_backend_responses(responses) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let mut scores = Vec::with_capacity(triples.len());
        for (_, resp) in &parsed {
            let Some(part) = resp.get("scores").and_then(Json::as_array) else {
                return self.bad_backend("/score response missing 'scores'");
            };
            scores.extend_from_slice(part);
        }
        // PANIC-OK: scatter_gather errors out when no backend answered, so
        // `parsed` is nonempty here.
        let model = parsed[0].1.get("model").cloned().unwrap_or(Json::Null);
        let out = Response::json_ok(Json::obj([
            ("model", model),
            ("count", Json::Num(scores.len() as f64)),
            ("scores", Json::Arr(scores)),
        ]));
        self.observe("/score", started, scatter_us);
        out
    }

    /// `POST /eval`: chunk the triples across workers (forcing
    /// `include_ranks` so the pieces can be recombined), concatenate the
    /// rank vectors in order, refold the metrics with the exact
    /// single-node fold.
    pub fn eval(&self, body: &str) -> Response {
        let started = Instant::now();
        let Some((request, triples)) = self.parse_for_chunking(body, "triples") else {
            return self.relay_to_first("/eval", body);
        };
        let include_ranks = request.get("include_ranks").and_then(Json::as_bool).unwrap_or(false);
        let mut forced = request.clone();
        set_field(&mut forced, "include_ranks", Json::Bool(true));
        let chunks = chunk_field(&forced, "triples", &triples, self.inner.backends.len());
        let chunk_refs: Vec<Option<&str>> = chunks.iter().map(Option::as_deref).collect();
        let responses = match self.scatter("/eval", &chunk_refs) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        if let Some(resp) = self.revalidate_chunk_rejection("/eval", body, &responses) {
            return resp;
        }
        let scatter_us = started.elapsed().as_micros() as u64;
        let parsed = match self.parse_backend_responses(responses) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let mut rank_nodes: Vec<Json> = Vec::new();
        let mut all_hit = true;
        let mut eval_all_hit = true;
        let mut graph_version: Option<u64> = None;
        for (_, resp) in &parsed {
            let Some(part) = resp.get("ranks").and_then(Json::as_array) else {
                return self.bad_backend("/eval response missing 'ranks'");
            };
            rank_nodes.extend_from_slice(part);
            all_hit &= resp.get("sample_cache").and_then(Json::as_str) == Some("hit");
            eval_all_hit &= resp.get("eval_cache").and_then(Json::as_str) == Some("hit");
            // Workers ingest live deltas independently; an evaluation
            // stitched from different graph versions would silently mix
            // two graphs, so version skew is a hard 502, not a warning.
            let Some(version) = resp.get("graph_version").and_then(Json::as_u64) else {
                return self.bad_backend("/eval response missing 'graph_version'");
            };
            match graph_version {
                None => graph_version = Some(version),
                Some(expected) if expected != version => {
                    return self.bad_backend(&format!(
                        "/eval graph versions diverge across workers ({expected} vs {version}); \
                         the fleet's live graphs are out of sync"
                    ));
                }
                Some(_) => {}
            }
        }
        let ranks: Vec<f64> = rank_nodes.iter().filter_map(Json::as_f64).collect();
        if ranks.len() != rank_nodes.len() {
            return self.bad_backend("/eval response carried non-numeric ranks");
        }
        // The exact fold a single node runs over the same rank sequence —
        // bit-identical metrics, not recomputed approximations.
        let m = RankingMetrics::from_ranks(&ranks);
        // PANIC-OK: scatter_gather errors out when no backend answered, so
        // `parsed` is nonempty here.
        let first = &parsed[0].1;
        let echo = |key: &str| first.get(key).cloned().unwrap_or(Json::Null);
        let mut fields = vec![
            ("model".to_string(), echo("model")),
            ("strategy".to_string(), echo("strategy")),
            ("n_s".to_string(), echo("n_s")),
            ("seed".to_string(), echo("seed")),
            ("graph_version".to_string(), Json::Num(graph_version.unwrap_or(0) as f64)),
            ("sample_cache".to_string(), Json::Str(if all_hit { "hit" } else { "miss" }.into())),
            ("eval_cache".to_string(), Json::Str(if eval_all_hit { "hit" } else { "miss" }.into())),
            ("num_queries".to_string(), Json::Num(ranks.len() as f64)),
            (
                "metrics".to_string(),
                Json::obj([
                    ("mrr", Json::Num(m.mrr)),
                    ("hits1", Json::Num(m.hits1)),
                    ("hits3", Json::Num(m.hits3)),
                    ("hits10", Json::Num(m.hits10)),
                    ("mean_rank", Json::Num(m.mean_rank)),
                ]),
            ),
            ("seconds".to_string(), Json::Num(started.elapsed().as_secs_f64())),
        ];
        if include_ranks {
            fields.push(("ranks".to_string(), Json::Arr(rank_nodes)));
        }
        let out = Response::json_ok(Json::Obj(fields));
        self.observe("/eval", started, scatter_us);
        out
    }

    /// `POST /topk`: ship the request verbatim to every worker's
    /// `/shard/topk`, merge the wire-encoded [`PartialTopK`]s per query,
    /// and answer in the single-node `/topk` shape.
    pub fn topk(&self, body: &str) -> Response {
        let started = Instant::now();
        // The same body goes to every worker — borrowed, not cloned (it
        // can be tens of MB).
        let bodies: Vec<Option<&str>> =
            (0..self.inner.backends.len()).map(|_| Some(body)).collect();
        let responses = match self.scatter("/shard/topk", &bodies) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        let scatter_us = started.elapsed().as_micros() as u64;
        let parsed = match self.parse_backend_responses(responses) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        // The workers' ranges must exactly tile the entity space — a
        // misconfigured fleet (duplicate shard index, wrong worker count)
        // must fail loudly, never return a silently range-incomplete
        // ranking.
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(parsed.len());
        let mut entities = 0usize;
        for (i, (_, resp)) in parsed.iter().enumerate() {
            let range = resp.get("range").and_then(Json::as_array);
            let (Some(start), Some(end)) = (
                range.and_then(|r| r.first()).and_then(Json::as_usize),
                range.and_then(|r| r.get(1)).and_then(Json::as_usize),
            ) else {
                return self.bad_backend("/shard/topk response missing 'range'");
            };
            let Some(n) = resp.get("entities").and_then(Json::as_usize) else {
                return self.bad_backend("/shard/topk response missing 'entities'");
            };
            // Every worker must be ranking the same entity space: ranges
            // from differently-sized models can still tile by accident,
            // which would merge scores from different models.
            if i == 0 {
                entities = n;
            } else if n != entities {
                return self.bad_backend(
                    "workers disagree on the entity count (are all backends serving the \
                     same model snapshot?)",
                );
            }
            ranges.push((start, end));
        }
        ranges.sort_unstable();
        let mut next = 0usize;
        for &(start, end) in &ranges {
            if start != next || end < start {
                return self.bad_backend(
                    "shard ranges do not tile the entity space (check each worker's \
                     worker_shard index/count against the gateway's backend list)",
                );
            }
            next = end;
        }
        if next != entities {
            return self.bad_backend("shard ranges do not cover every entity");
        }
        // Decode and merge per query, in backend order (the merge is
        // order-independent; a fixed order keeps failures deterministic).
        // PANIC-OK: scatter_gather errors out when no backend answered, so
        // `parsed` is nonempty here.
        let first = &parsed[0].1;
        let num_queries = first.get("partials").and_then(Json::as_array).map_or(0, <[Json]>::len);
        let mut merged: Vec<Option<PartialTopK>> = vec![None; num_queries];
        for (_, resp) in &parsed {
            let Some(partials) = resp.get("partials").and_then(Json::as_array) else {
                return self.bad_backend("/shard/topk response missing 'partials'");
            };
            if partials.len() != num_queries {
                return self.bad_backend("workers disagree on the query count");
            }
            for (qi, wire) in partials.iter().enumerate() {
                let decoded = wire.as_str().map(PartialTopK::decode);
                let Some(Ok(partial)) = decoded else {
                    return self.bad_backend("malformed PartialTopK on the wire");
                };
                // PANIC-OK: `qi` enumerates `partials`, whose length was
                // just checked equal to `num_queries` == `merged.len()`.
                match &mut merged[qi] {
                    Some(acc) => acc.merge(partial),
                    slot => *slot = Some(partial),
                }
            }
        }
        let results: Vec<Json> = merged
            .into_iter()
            .map(|p| {
                let top = p.map(PartialTopK::into_entries).unwrap_or_default();
                Json::obj([
                    (
                        "entities",
                        Json::Arr(top.iter().map(|&(e, _)| Json::Num(e as f64)).collect()),
                    ),
                    ("scores", Json::Arr(top.iter().map(|&(_, s)| Json::Num(s as f64)).collect())),
                ])
            })
            .collect();
        let echo = |key: &str| first.get(key).cloned().unwrap_or(Json::Null);
        let out = Response::json_ok(Json::obj([
            ("model", echo("model")),
            ("k", echo("k")),
            ("filtered", echo("filtered")),
            ("shards", echo("shards")),
            ("results", Json::Arr(results)),
        ]));
        self.observe("/topk", started, scatter_us);
        out
    }

    /// Parse a request body for query-chunked scattering; `None` means
    /// the body should be relayed verbatim instead (malformed or
    /// over-limit — worker 0 will produce the identical error a single
    /// node would).
    fn parse_for_chunking(&self, body: &str, field: &str) -> Option<(Json, Vec<Json>)> {
        if body.len() > crate::router::MAX_BODY_BYTES {
            return None;
        }
        let request = Json::parse(body).ok()?;
        let items = request.get(field)?.as_array()?.to_vec();
        if items.len() > crate::router::MAX_TRIPLES_PER_REQUEST {
            return None;
        }
        Some((request, items))
    }

    /// If any backend rejected its *chunk* of a query-scattered request,
    /// recompute against the **full** original body on worker 0 and
    /// relay that. A chunked worker's validation error carries
    /// chunk-local indices (`triples[0]` for what the client sent as
    /// `triples[2]`); worker 0's public `/score`/`/eval` evaluate the
    /// full model regardless of its shard role, so re-running the whole
    /// request there yields byte-identical bytes to a single node —
    /// error *or* success — at the cost of one extra round trip on the
    /// rejection path only.
    fn revalidate_chunk_rejection(
        &self,
        path: &str,
        body: &str,
        responses: &[Option<(u16, String)>],
    ) -> Option<Response> {
        responses
            .iter()
            .flatten()
            .any(|(status, _)| *status != 200)
            .then(|| self.relay_to_first(path, body))
    }

    /// Forward `body` unchanged to backend 0 and relay its response —
    /// the "cannot decompose" path that keeps error bodies identical to
    /// a single node's.
    fn relay_to_first(&self, path: &str, body: &str) -> Response {
        // PANIC-OK: the constructor rejects an empty backend list, so
        // backend 0 always exists.
        let backend = &self.inner.backends[0];
        // ORDERING: Relaxed — advisory health flag, see `all_healthy`.
        if !backend.healthy.load(Ordering::Relaxed) {
            return self.unavailable(&backend.label);
        }
        match backend.call("POST", path, Some(body)) {
            Ok((status, resp)) => Response::passthrough(status, resp),
            Err(_) => {
                self.mark_failed(backend);
                self.unavailable(&backend.label)
            }
        }
    }

    /// Scatter one request across the backends (`bodies[i]` is sent to
    /// backend `i`; `None` skips it). All involved backends must be
    /// healthy and answer; any failure is a 503.
    fn scatter(
        &self,
        path: &str,
        bodies: &[Option<&str>],
    ) -> Result<Vec<Option<(u16, String)>>, Response> {
        debug_assert_eq!(bodies.len(), self.inner.backends.len());
        for (backend, body) in self.inner.backends.iter().zip(bodies) {
            // ORDERING: Relaxed — advisory health flag, see `all_healthy`.
            if body.is_some() && !backend.healthy.load(Ordering::Relaxed) {
                return Err(self.unavailable(&backend.label));
            }
        }
        let results: Vec<Option<std::io::Result<(u16, String)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .inner
                .backends
                .iter()
                .zip(bodies)
                .map(|(backend, body)| {
                    body.map(|body| scope.spawn(move || backend.call("POST", path, Some(body))))
                })
                .collect();
            // PANIC-OK: join() errs only if the worker panicked —
            // propagating that panic is the correct outcome, not a new one.
            handles.into_iter().map(|h| h.map(|h| h.join().expect("scatter worker"))).collect()
        });
        let mut out = Vec::with_capacity(results.len());
        let mut failed: Option<&Backend> = None;
        for (backend, result) in self.inner.backends.iter().zip(results) {
            match result {
                None => out.push(None),
                Some(Ok(resp)) => out.push(Some(resp)),
                Some(Err(_)) => {
                    self.mark_failed(backend);
                    failed.get_or_insert(backend);
                    out.push(None);
                }
            }
        }
        match failed {
            Some(backend) => Err(self.unavailable(&backend.label)),
            None => Ok(out),
        }
    }

    /// Require every received response to be 200 and parse it; the first
    /// non-200 (lowest backend index) is relayed verbatim — workers run
    /// the same validation code a single node does, so the error bytes
    /// match.
    fn parse_backend_responses(
        &self,
        responses: Vec<Option<(u16, String)>>,
    ) -> Result<Vec<(u16, Json)>, Response> {
        let mut parsed = Vec::with_capacity(responses.len());
        for resp in responses.into_iter().flatten() {
            if resp.0 != 200 {
                return Err(Response::passthrough(resp.0, resp.1));
            }
            match Json::parse(&resp.1) {
                Ok(v) => parsed.push((resp.0, v)),
                Err(_) => return Err(self.bad_backend("backend returned unparseable JSON")),
            }
        }
        if parsed.is_empty() {
            return Err(self.bad_backend("no backend produced a response"));
        }
        Ok(parsed)
    }

    fn mark_failed(&self, backend: &Backend) {
        // ORDERING: Relaxed — advisory health flag, see `all_healthy`.
        backend.healthy.store(false, Ordering::Relaxed);
        self.inner.metrics.add(Family::GatewayBackendErrors, &[&backend.label], 1);
    }

    fn unavailable(&self, backend: &str) -> Response {
        Response::error(503, format!("backend {backend} is unavailable"))
            .with_retry_after(self.inner.retry_after_secs)
    }

    fn bad_backend(&self, message: &str) -> Response {
        Response::error(502, message.to_string())
    }

    fn observe(&self, endpoint: &str, started: Instant, scatter_us: u64) {
        let total_us = started.elapsed().as_micros() as u64;
        self.inner.metrics.observe_gateway_phases(
            endpoint,
            scatter_us,
            total_us.saturating_sub(scatter_us),
        );
    }
}

/// The background health prober: marks a backend healthy again once its
/// `/healthz` answers, unhealthy (plus an error count) when it stops.
/// Holds only a weak reference — the loop exits when the gateway drops.
fn probe_loop(inner: Weak<Inner>, interval: Duration) {
    loop {
        let Some(gw) = inner.upgrade() else { return };
        for backend in &gw.backends {
            // One-shot connection, never the data pool. Since the reactor
            // rewrite an idle probe connection no longer pins a backend
            // worker (open connections are reactor slab state, not
            // threads), but the fresh connect-probe-close stays: it
            // exercises the backend's *accept and admission* path every
            // interval — a backend at its connection budget or with a
            // wedged reactor fails the probe, which a long-lived pooled
            // socket would mask.
            let probe = || -> std::io::Result<(u16, String)> {
                let mut conn = Connection::open_with(backend.addr, &backend.client)?;
                conn.get("/healthz")
            };
            match probe() {
                // ORDERING: Relaxed — advisory health flag, see
                // `all_healthy`; the swap is only for edge-triggered error
                // accounting, not synchronization.
                Ok((200, _)) => backend.healthy.store(true, Ordering::Relaxed),
                _ => {
                    // ORDERING: Relaxed — advisory flag; the swap is for
                    // edge-triggered error accounting, not synchronization.
                    let was_healthy = backend.healthy.swap(false, Ordering::Relaxed);
                    if was_healthy {
                        gw.metrics.add(Family::GatewayBackendErrors, &[&backend.label], 1);
                    }
                }
            }
        }
        drop(gw); // do not keep the gateway alive through the sleep
        std::thread::sleep(interval);
    }
}

/// Replace (or append) a top-level object field.
fn set_field(request: &mut Json, key: &str, value: Json) {
    if let Json::Obj(fields) = request {
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
    }
}

/// Split `items` into one contiguous chunk per involved backend
/// (`ShardPlan` balancing, so chunk boundaries are deterministic), and
/// render a per-backend request body with `field` replaced by its chunk.
/// Backends past the plan's shard count (more workers than items) get
/// `None`.
fn chunk_field(
    request: &Json,
    field: &str,
    items: &[Json],
    backends: usize,
) -> Vec<Option<String>> {
    let plan = kg_core::parallel::ShardPlan::new(items.len(), backends);
    (0..backends)
        .map(|i| {
            if i >= plan.num_shards() || (items.is_empty() && i > 0) {
                return None;
            }
            let mut piece = request.clone();
            // PANIC-OK: `ShardPlan::range(i)` partitions `0..items.len()`
            // for `i < num_shards`, checked above.
            set_field(&mut piece, field, Json::Arr(items[plan.range(i)].to_vec()));
            Some(piece.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_contiguous_and_balanced() {
        let request = Json::parse(r#"{"model":"m","triples":[1,2,3,4,5],"n_s":7}"#).unwrap();
        let items = request.get("triples").unwrap().as_array().unwrap().to_vec();
        let chunks = chunk_field(&request, "triples", &items, 2);
        assert_eq!(chunks.len(), 2);
        let a = Json::parse(chunks[0].as_ref().unwrap()).unwrap();
        let b = Json::parse(chunks[1].as_ref().unwrap()).unwrap();
        assert_eq!(a.get("triples").unwrap().to_string(), "[1,2,3]");
        assert_eq!(b.get("triples").unwrap().to_string(), "[4,5]");
        // Untouched fields survive in both pieces.
        assert_eq!(a.get("n_s").and_then(Json::as_usize), Some(7));
        assert_eq!(b.get("model").and_then(Json::as_str), Some("m"));
    }

    #[test]
    fn chunking_empty_items_involves_only_the_first_backend() {
        let request = Json::parse(r#"{"model":"m","triples":[]}"#).unwrap();
        let chunks = chunk_field(&request, "triples", &[], 3);
        assert!(chunks[0].is_some(), "someone must answer the empty request");
        assert!(chunks[1].is_none() && chunks[2].is_none());
    }

    #[test]
    fn chunking_with_more_backends_than_items_skips_the_surplus() {
        let request = Json::parse(r#"{"triples":[10,20]}"#).unwrap();
        let items = request.get("triples").unwrap().as_array().unwrap().to_vec();
        let chunks = chunk_field(&request, "triples", &items, 5);
        assert_eq!(chunks.iter().filter(|c| c.is_some()).count(), 2);
        assert!(chunks[2].is_none());
    }

    #[test]
    fn set_field_replaces_in_place_and_appends() {
        let mut v = Json::parse(r#"{"a":1,"b":2}"#).unwrap();
        set_field(&mut v, "a", Json::Num(9.0));
        set_field(&mut v, "c", Json::Bool(true));
        assert_eq!(v.to_string(), r#"{"a":9,"b":2,"c":true}"#);
    }

    #[test]
    fn gateway_requires_backends_and_resolves_addresses() {
        assert!(Gateway::new(GatewayConfig::default()).is_err(), "no backends");
        let err = Gateway::new(GatewayConfig {
            backends: vec!["not an address".into()],
            ..GatewayConfig::default()
        });
        assert!(err.is_err(), "unresolvable backend must fail at construction");
    }
}
