//! Service observability: per-endpoint request counters, latency quantiles,
//! and batch-size distributions, rendered in Prometheus text format.
//!
//! Latencies are kept as a bounded reservoir of recent microsecond samples
//! per endpoint (a ring of the last [`LATENCY_WINDOW`] observations) —
//! p50/p99 over a sliding window is what a dashboard wants, and the memory
//! bound holds under unbounded traffic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Samples retained per endpoint for quantile estimation.
pub const LATENCY_WINDOW: usize = 4096;

/// Bounded ring of the last [`LATENCY_WINDOW`] samples — the one
/// windowing implementation behind request latencies, batch sizes, and
/// the gateway's scatter/merge phase quantiles.
#[derive(Default)]
struct Reservoir {
    samples: Vec<u64>,
    next_slot: usize,
}

impl Reservoir {
    fn observe(&mut self, value: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(value);
        } else {
            // PANIC-OK: `next_slot` wraps modulo LATENCY_WINDOW and the
            // else-branch means `samples.len() == LATENCY_WINDOW`.
            self.samples[self.next_slot] = value;
            self.next_slot = (self.next_slot + 1) % LATENCY_WINDOW;
        }
    }

    /// A sorted copy of the held samples (for percentile extraction), or
    /// `None` when empty.
    fn sorted(&self) -> Option<Vec<u64>> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        Some(sorted)
    }
}

#[derive(Default)]
struct EndpointStats {
    requests: u64,
    errors: u64,
    latencies_us: Reservoir,
}

impl EndpointStats {
    fn observe(&mut self, latency_us: u64, is_error: bool) {
        self.requests += 1;
        if is_error {
            self.errors += 1;
        }
        self.latencies_us.observe(latency_us);
    }
}

#[derive(Default)]
struct BatchStats {
    batches: u64,
    jobs: u64,
    triples: u64,
    sizes: Reservoir,
}

/// Latest continuous-evaluation round for one monitored model (see
/// [`crate::monitor::Monitor`]); rendered as the `kg_serve_monitor_*`
/// series.
#[derive(Clone, Copy, Default)]
struct MonitorGauges {
    mrr: f64,
    hits1: f64,
    hits3: f64,
    hits10: f64,
    baseline_mrr: f64,
    drift_alarm: bool,
    evals: u64,
    last_eval_uptime: f64,
}

/// Thread-safe metrics registry shared by the router, the batcher, and the
/// server's connection lifecycle.
pub struct HttpMetrics {
    endpoints: Mutex<HashMap<String, EndpointStats>>,
    batches: Mutex<BatchStats>,
    /// Coalesced `/topk` batches executed.
    topk_batches: AtomicU64,
    /// Requests absorbed into `/topk` batches.
    topk_jobs: AtomicU64,
    /// Top-k queries executed through `/topk` batches.
    topk_queries: AtomicU64,
    /// Connections currently open (accepted by a worker, not yet closed).
    connections_active: AtomicU64,
    /// Connections ever handed to a worker.
    connections_total: AtomicU64,
    /// Requests served on an already-used (kept-alive) connection.
    keepalive_reuses: AtomicU64,
    /// Connections refused with 503 at the admission gate.
    connections_rejected: AtomicU64,
    /// Connections refused with 429 by a per-client token bucket.
    connections_throttled: AtomicU64,
    /// File descriptors registered with the reactor's poller (listener +
    /// waker + open connections).
    reactor_fds: AtomicU64,
    /// Times the reactor's poll wait returned (readiness or waker byte).
    reactor_wakeups: AtomicU64,
    /// Ready events delivered per reactor tick (sliding window).
    reactor_ready: Mutex<Reservoir>,
    /// Current live-graph version per model.
    graph_versions: Mutex<HashMap<String, u64>>,
    /// Entity-table storage precision per model ("f32"/"f16"/"int8").
    model_precisions: Mutex<HashMap<String, &'static str>>,
    /// Triples inserted into live graphs (effective writes only).
    triples_inserted: AtomicU64,
    /// Triples deleted from live graphs (effective writes only).
    triples_deleted: AtomicU64,
    /// `/topk` queries answered from the version-stamped result cache.
    topk_cache_hits: AtomicU64,
    /// `/topk` queries that missed the result cache and ran a ranking pass.
    topk_cache_misses: AtomicU64,
    /// `/eval` requests answered from the version-stamped result cache.
    eval_cache_hits: AtomicU64,
    /// `/eval` requests that missed the result cache.
    eval_cache_misses: AtomicU64,
    /// Continuous-evaluation stats per monitored model.
    monitors: Mutex<HashMap<String, MonitorGauges>>,
    /// Backend failures observed by the gateway, by backend address.
    gateway_backend_errors: Mutex<HashMap<String, u64>>,
    /// Gateway scatter-phase latency (request fan-out until the last
    /// backend answered), by endpoint.
    gateway_scatter: Mutex<HashMap<String, Reservoir>>,
    /// Gateway merge-phase latency (partial recombination + response
    /// building), by endpoint.
    gateway_merge: Mutex<HashMap<String, Reservoir>>,
    started: Instant,
}

impl Default for HttpMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpMetrics {
    /// Fresh registry; `uptime` counts from here.
    pub fn new() -> Self {
        HttpMetrics {
            endpoints: Mutex::new(HashMap::new()),
            batches: Mutex::new(BatchStats::default()),
            topk_batches: AtomicU64::new(0),
            topk_jobs: AtomicU64::new(0),
            topk_queries: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            connections_throttled: AtomicU64::new(0),
            reactor_fds: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            reactor_ready: Mutex::new(Reservoir::default()),
            graph_versions: Mutex::new(HashMap::new()),
            model_precisions: Mutex::new(HashMap::new()),
            triples_inserted: AtomicU64::new(0),
            triples_deleted: AtomicU64::new(0),
            topk_cache_hits: AtomicU64::new(0),
            topk_cache_misses: AtomicU64::new(0),
            eval_cache_hits: AtomicU64::new(0),
            eval_cache_misses: AtomicU64::new(0),
            monitors: Mutex::new(HashMap::new()),
            gateway_backend_errors: Mutex::new(HashMap::new()),
            gateway_scatter: Mutex::new(HashMap::new()),
            gateway_merge: Mutex::new(HashMap::new()),
            started: Instant::now(),
        }
    }

    /// A worker took ownership of a fresh connection.
    pub fn connection_opened(&self) {
        self.connections_active.fetch_add(1, Ordering::Relaxed);
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection ended (cleanly or not); pairs with
    /// [`HttpMetrics::connection_opened`].
    pub fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// A kept-alive connection served another request (the 2nd, 3rd, …
    /// request on one socket each count once).
    pub fn connection_reused(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was refused with 503 because the budget was exhausted.
    pub fn connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Connections ever handed to a worker.
    pub fn total_connections(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Requests served on reused (kept-alive) connections.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// Connections refused with 503 at the admission gate.
    pub fn rejected_connections(&self) -> u64 {
        self.connections_rejected.load(Ordering::Relaxed)
    }

    /// A connection was refused with 429 because its client's token
    /// bucket was empty (per-client fairness).
    pub fn connection_throttled(&self) {
        self.connections_throttled.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections refused with 429 by the per-client token bucket.
    pub fn throttled_connections(&self) -> u64 {
        self.connections_throttled.load(Ordering::Relaxed)
    }

    /// The reactor recounted the file descriptors registered with its
    /// poller (listener + waker + open connections).
    pub fn set_reactor_fds(&self, fds: u64) {
        self.reactor_fds.store(fds, Ordering::Relaxed);
    }

    /// File descriptors currently registered with the reactor's poller.
    pub fn reactor_fds(&self) -> u64 {
        self.reactor_fds.load(Ordering::Relaxed)
    }

    /// One reactor tick: the poll wait returned with `ready` events.
    pub fn observe_reactor_tick(&self, ready: usize) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        self.reactor_ready.lock().unwrap().observe(ready as u64);
    }

    /// Times the reactor's poll wait has returned.
    pub fn reactor_wakeups(&self) -> u64 {
        self.reactor_wakeups.load(Ordering::Relaxed)
    }

    /// The gateway observed a backend failure (connect/transport error or
    /// a failed health probe).
    pub fn gateway_backend_error(&self, backend: &str) {
        *self.gateway_backend_errors.lock().unwrap().entry(backend.to_string()).or_insert(0) += 1;
    }

    /// Total backend failures the gateway observed (all backends).
    pub fn gateway_backend_errors(&self) -> u64 {
        self.gateway_backend_errors.lock().unwrap().values().sum()
    }

    /// Record one gateway request's scatter and merge phase durations.
    pub fn observe_gateway_phases(&self, endpoint: &str, scatter_us: u64, merge_us: u64) {
        self.gateway_scatter
            .lock()
            .unwrap()
            .entry(endpoint.to_string())
            .or_default()
            .observe(scatter_us);
        self.gateway_merge
            .lock()
            .unwrap()
            .entry(endpoint.to_string())
            .or_default()
            .observe(merge_us);
    }

    /// Record one coalesced top-k batch (`jobs` requests, `queries` total).
    pub fn observe_topk_batch(&self, jobs: usize, queries: usize) {
        self.topk_batches.fetch_add(1, Ordering::Relaxed);
        self.topk_jobs.fetch_add(jobs as u64, Ordering::Relaxed);
        self.topk_queries.fetch_add(queries as u64, Ordering::Relaxed);
    }

    /// Coalesced `/topk` batches executed.
    pub fn topk_batches(&self) -> u64 {
        self.topk_batches.load(Ordering::Relaxed)
    }

    /// Requests absorbed into `/topk` batches.
    pub fn topk_jobs(&self) -> u64 {
        self.topk_jobs.load(Ordering::Relaxed)
    }

    /// Record `model`'s current live-graph version.
    pub fn set_graph_version(&self, model: &str, version: u64) {
        self.graph_versions.lock().unwrap().insert(model.to_string(), version);
    }

    /// The last recorded live-graph version for `model`, if any.
    pub fn graph_version(&self, model: &str) -> Option<u64> {
        self.graph_versions.lock().unwrap().get(model).copied()
    }

    /// Record the entity-table precision a model is served at.
    pub fn set_model_precision(&self, model: &str, precision: &'static str) {
        self.model_precisions.lock().unwrap().insert(model.to_string(), precision);
    }

    /// The recorded serving precision for `model` (tests and `/healthz`).
    pub fn model_precision(&self, model: &str) -> Option<&'static str> {
        self.model_precisions.lock().unwrap().get(model).copied()
    }

    /// Record one applied graph delta's effective writes.
    pub fn observe_ingest(&self, inserted: usize, deleted: usize) {
        self.triples_inserted.fetch_add(inserted as u64, Ordering::Relaxed);
        self.triples_deleted.fetch_add(deleted as u64, Ordering::Relaxed);
    }

    /// Record one coalesced `/topk` pass's cache outcome (`hits` queries
    /// answered from cache, `misses` ranked fresh).
    pub fn observe_topk_cache(&self, hits: usize, misses: usize) {
        self.topk_cache_hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.topk_cache_misses.fetch_add(misses as u64, Ordering::Relaxed);
    }

    /// `/topk` queries answered from the result cache.
    pub fn topk_cache_hits(&self) -> u64 {
        self.topk_cache_hits.load(Ordering::Relaxed)
    }

    /// `/topk` queries that ran a fresh ranking pass.
    pub fn topk_cache_misses(&self) -> u64 {
        self.topk_cache_misses.load(Ordering::Relaxed)
    }

    /// Record one `/eval` request's result-cache outcome.
    pub fn observe_eval_cache(&self, hit: bool) {
        if hit {
            self.eval_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.eval_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `/eval` requests answered from the result cache.
    pub fn eval_cache_hits(&self) -> u64 {
        self.eval_cache_hits.load(Ordering::Relaxed)
    }

    /// Publish one continuous-evaluation round for `model`.
    #[allow(clippy::too_many_arguments)]
    pub fn set_monitor_stats(
        &self,
        model: &str,
        metrics: &kg_eval::RankingMetrics,
        baseline_mrr: f64,
        drift_alarm: bool,
        evals: u64,
        last_eval_uptime: f64,
    ) {
        self.monitors.lock().unwrap().insert(
            model.to_string(),
            MonitorGauges {
                mrr: metrics.mrr,
                hits1: metrics.hits1,
                hits3: metrics.hits3,
                hits10: metrics.hits10,
                baseline_mrr,
                drift_alarm,
                evals,
                last_eval_uptime,
            },
        );
    }

    /// Record one request against `endpoint`.
    pub fn observe_request(&self, endpoint: &str, latency_us: u64, status: u16) {
        let mut map = self.endpoints.lock().unwrap();
        map.entry(endpoint.to_string()).or_default().observe(latency_us, status >= 400);
    }

    /// Record one coalesced scoring batch (`jobs` requests, `triples` total).
    pub fn observe_batch(&self, jobs: usize, triples: usize) {
        let mut b = self.batches.lock().unwrap();
        b.batches += 1;
        b.jobs += jobs as u64;
        b.triples += triples as u64;
        b.sizes.observe(jobs as u64);
    }

    /// Seconds since construction.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints.lock().unwrap().values().map(|s| s.requests).sum()
    }

    /// Requests recorded against one endpoint.
    pub fn requests_for(&self, endpoint: &str) -> u64 {
        self.endpoints.lock().unwrap().get(endpoint).map_or(0, |s| s.requests)
    }

    /// `(p50, p99)` latency in seconds for `endpoint`, if it has samples.
    pub fn latency_quantiles(&self, endpoint: &str) -> Option<(f64, f64)> {
        let map = self.endpoints.lock().unwrap();
        let sorted = map.get(endpoint)?.latencies_us.sorted()?;
        Some((percentile(&sorted, 0.50) / 1e6, percentile(&sorted, 0.99) / 1e6))
    }

    /// Render every series in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP kg_serve_uptime_seconds Seconds since server start.\n");
        out.push_str("# TYPE kg_serve_uptime_seconds gauge\n");
        out.push_str(&format!("kg_serve_uptime_seconds {}\n", self.uptime_seconds()));

        out.push_str("# HELP kg_serve_connections_active Connections currently open.\n");
        out.push_str("# TYPE kg_serve_connections_active gauge\n");
        out.push_str(&format!("kg_serve_connections_active {}\n", self.active_connections()));
        out.push_str("# HELP kg_serve_connections_total Connections handed to a worker.\n");
        out.push_str("# TYPE kg_serve_connections_total counter\n");
        out.push_str(&format!("kg_serve_connections_total {}\n", self.total_connections()));
        out.push_str(
            "# HELP kg_serve_keepalive_reuses_total Requests served on a reused connection.\n",
        );
        out.push_str("# TYPE kg_serve_keepalive_reuses_total counter\n");
        out.push_str(&format!("kg_serve_keepalive_reuses_total {}\n", self.keepalive_reuses()));
        out.push_str(
            "# HELP kg_serve_rejected_connections_total Connections refused with 503 at the admission gate.\n",
        );
        out.push_str("# TYPE kg_serve_rejected_connections_total counter\n");
        out.push_str(&format!(
            "kg_serve_rejected_connections_total {}\n",
            self.rejected_connections()
        ));
        out.push_str(
            "# HELP kg_serve_throttled_connections_total Connections refused with 429 by the per-client token bucket.\n",
        );
        out.push_str("# TYPE kg_serve_throttled_connections_total counter\n");
        out.push_str(&format!(
            "kg_serve_throttled_connections_total {}\n",
            self.throttled_connections()
        ));

        out.push_str(
            "# HELP kg_serve_reactor_registered_fds File descriptors registered with the reactor poller (listener + waker + connections).\n",
        );
        out.push_str("# TYPE kg_serve_reactor_registered_fds gauge\n");
        out.push_str(&format!("kg_serve_reactor_registered_fds {}\n", self.reactor_fds()));
        out.push_str(
            "# HELP kg_serve_reactor_wakeups_total Times the reactor's poll wait returned.\n",
        );
        out.push_str("# TYPE kg_serve_reactor_wakeups_total counter\n");
        out.push_str(&format!("kg_serve_reactor_wakeups_total {}\n", self.reactor_wakeups()));
        if let Some(sorted) = self.reactor_ready.lock().unwrap().sorted() {
            out.push_str(
                "# HELP kg_serve_reactor_ready_events Ready events per reactor tick, quantiles over a sliding window.\n",
            );
            out.push_str("# TYPE kg_serve_reactor_ready_events summary\n");
            for (label, q) in [("0.5", 0.50), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "kg_serve_reactor_ready_events{{quantile=\"{label}\"}} {}\n",
                    percentile(&sorted, q)
                ));
            }
        }

        let map = self.endpoints.lock().unwrap();
        let mut endpoints: Vec<&String> = map.keys().collect();
        endpoints.sort();

        out.push_str("# HELP kg_serve_requests_total Requests handled, by endpoint.\n");
        out.push_str("# TYPE kg_serve_requests_total counter\n");
        for ep in &endpoints {
            out.push_str(&format!(
                "kg_serve_requests_total{{endpoint=\"{ep}\"}} {}\n",
                map[*ep].requests // PANIC-OK: `ep` came from `map.keys()`.
            ));
        }
        out.push_str("# HELP kg_serve_request_errors_total Responses with status >= 400.\n");
        out.push_str("# TYPE kg_serve_request_errors_total counter\n");
        for ep in &endpoints {
            out.push_str(&format!(
                "kg_serve_request_errors_total{{endpoint=\"{ep}\"}} {}\n",
                map[*ep].errors // PANIC-OK: `ep` came from `map.keys()`.
            ));
        }
        out.push_str(
            "# HELP kg_serve_latency_seconds Request latency quantiles over a sliding window.\n",
        );
        out.push_str("# TYPE kg_serve_latency_seconds summary\n");
        for ep in &endpoints {
            // PANIC-OK: `ep` came from `map.keys()`.
            let Some(sorted) = map[*ep].latencies_us.sorted() else { continue };
            for (label, q) in [("0.5", 0.50), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "kg_serve_latency_seconds{{endpoint=\"{ep}\",quantile=\"{label}\"}} {}\n",
                    percentile(&sorted, q) / 1e6
                ));
            }
        }
        drop(map);

        let b = self.batches.lock().unwrap();
        out.push_str("# HELP kg_serve_score_batches_total Coalesced /score batches executed.\n");
        out.push_str("# TYPE kg_serve_score_batches_total counter\n");
        out.push_str(&format!("kg_serve_score_batches_total {}\n", b.batches));
        out.push_str("# HELP kg_serve_score_batch_jobs_total Requests absorbed into batches.\n");
        out.push_str("# TYPE kg_serve_score_batch_jobs_total counter\n");
        out.push_str(&format!("kg_serve_score_batch_jobs_total {}\n", b.jobs));
        out.push_str("# HELP kg_serve_score_batch_triples_total Triples scored through batches.\n");
        out.push_str("# TYPE kg_serve_score_batch_triples_total counter\n");
        out.push_str(&format!("kg_serve_score_batch_triples_total {}\n", b.triples));
        if let Some(sorted) = b.sizes.sorted() {
            out.push_str("# HELP kg_serve_score_batch_size Requests per batch, quantiles.\n");
            out.push_str("# TYPE kg_serve_score_batch_size summary\n");
            for (label, q) in [("0.5", 0.50), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "kg_serve_score_batch_size{{quantile=\"{label}\"}} {}\n",
                    percentile(&sorted, q)
                ));
            }
        }
        drop(b);

        out.push_str("# HELP kg_serve_topk_batches_total Coalesced /topk batches executed.\n");
        out.push_str("# TYPE kg_serve_topk_batches_total counter\n");
        out.push_str(&format!("kg_serve_topk_batches_total {}\n", self.topk_batches()));
        out.push_str(
            "# HELP kg_serve_topk_batch_jobs_total Requests absorbed into /topk batches.\n",
        );
        out.push_str("# TYPE kg_serve_topk_batch_jobs_total counter\n");
        out.push_str(&format!("kg_serve_topk_batch_jobs_total {}\n", self.topk_jobs()));
        out.push_str(
            "# HELP kg_serve_topk_batch_queries_total Top-k queries executed through batches.\n",
        );
        out.push_str("# TYPE kg_serve_topk_batch_queries_total counter\n");
        out.push_str(&format!(
            "kg_serve_topk_batch_queries_total {}\n",
            self.topk_queries.load(Ordering::Relaxed)
        ));

        let graph_versions = self.graph_versions.lock().unwrap();
        if !graph_versions.is_empty() {
            let mut models: Vec<&String> = graph_versions.keys().collect();
            models.sort();
            out.push_str("# HELP kg_serve_graph_version Current live-graph version.\n");
            out.push_str("# TYPE kg_serve_graph_version gauge\n");
            for m in models {
                out.push_str(&format!(
                    "kg_serve_graph_version{{model=\"{}\"}} {}\n",
                    escape_label(m),
                    // PANIC-OK: `m` came from `graph_versions.keys()`.
                    graph_versions[m]
                ));
            }
        }
        drop(graph_versions);

        out.push_str(
            "# HELP kg_serve_kernel_info Active scoring-kernel ISA (value is always 1).\n",
        );
        out.push_str("# TYPE kg_serve_kernel_info gauge\n");
        out.push_str(&format!(
            "kg_serve_kernel_info{{isa=\"{}\"}} 1\n",
            kg_models::kernels::active().name()
        ));

        let precisions = self.model_precisions.lock().unwrap();
        if !precisions.is_empty() {
            let mut models: Vec<&String> = precisions.keys().collect();
            models.sort();
            out.push_str(
                "# HELP kg_serve_model_precision_info Entity-table storage precision per model (value is always 1).\n",
            );
            out.push_str("# TYPE kg_serve_model_precision_info gauge\n");
            for m in models {
                out.push_str(&format!(
                    "kg_serve_model_precision_info{{model=\"{}\",precision=\"{}\"}} 1\n",
                    escape_label(m),
                    // PANIC-OK: `m` came from `precisions.keys()`.
                    precisions[m]
                ));
            }
        }
        drop(precisions);

        out.push_str(
            "# HELP kg_serve_graph_triples_inserted_total Triples inserted into live graphs.\n",
        );
        out.push_str("# TYPE kg_serve_graph_triples_inserted_total counter\n");
        out.push_str(&format!(
            "kg_serve_graph_triples_inserted_total {}\n",
            self.triples_inserted.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP kg_serve_graph_triples_deleted_total Triples deleted from live graphs.\n",
        );
        out.push_str("# TYPE kg_serve_graph_triples_deleted_total counter\n");
        out.push_str(&format!(
            "kg_serve_graph_triples_deleted_total {}\n",
            self.triples_deleted.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP kg_serve_topk_cache_hits_total /topk queries answered from the version-stamped result cache.\n",
        );
        out.push_str("# TYPE kg_serve_topk_cache_hits_total counter\n");
        out.push_str(&format!("kg_serve_topk_cache_hits_total {}\n", self.topk_cache_hits()));
        out.push_str(
            "# HELP kg_serve_topk_cache_misses_total /topk queries that ran a fresh ranking pass.\n",
        );
        out.push_str("# TYPE kg_serve_topk_cache_misses_total counter\n");
        out.push_str(&format!("kg_serve_topk_cache_misses_total {}\n", self.topk_cache_misses()));
        out.push_str(
            "# HELP kg_serve_eval_cache_hits_total /eval requests answered from the result cache.\n",
        );
        out.push_str("# TYPE kg_serve_eval_cache_hits_total counter\n");
        out.push_str(&format!("kg_serve_eval_cache_hits_total {}\n", self.eval_cache_hits()));
        out.push_str("# HELP kg_serve_eval_cache_misses_total /eval requests that recomputed.\n");
        out.push_str("# TYPE kg_serve_eval_cache_misses_total counter\n");
        out.push_str(&format!(
            "kg_serve_eval_cache_misses_total {}\n",
            self.eval_cache_misses.load(Ordering::Relaxed)
        ));

        let monitors = self.monitors.lock().unwrap();
        if !monitors.is_empty() {
            let mut models: Vec<&String> = monitors.keys().collect();
            models.sort();
            let uptime = self.uptime_seconds();
            out.push_str("# HELP kg_serve_monitor_mrr Latest continuous-evaluation MRR.\n");
            out.push_str("# TYPE kg_serve_monitor_mrr gauge\n");
            for m in &models {
                out.push_str(&format!(
                    "kg_serve_monitor_mrr{{model=\"{}\"}} {}\n",
                    escape_label(m),
                    monitors[*m].mrr // PANIC-OK: `m` came from `monitors.keys()`.
                ));
            }
            out.push_str(
                "# HELP kg_serve_monitor_hits_at_k Latest continuous-evaluation Hits@K.\n",
            );
            out.push_str("# TYPE kg_serve_monitor_hits_at_k gauge\n");
            for m in &models {
                // PANIC-OK: `m` came from `monitors.keys()`.
                let g = monitors[*m];
                for (k, v) in [("1", g.hits1), ("3", g.hits3), ("10", g.hits10)] {
                    out.push_str(&format!(
                        "kg_serve_monitor_hits_at_k{{model=\"{}\",k=\"{k}\"}} {v}\n",
                        escape_label(m)
                    ));
                }
            }
            out.push_str(
                "# HELP kg_serve_monitor_baseline_mrr MRR of the monitor's first (baseline) round.\n",
            );
            out.push_str("# TYPE kg_serve_monitor_baseline_mrr gauge\n");
            for m in &models {
                out.push_str(&format!(
                    "kg_serve_monitor_baseline_mrr{{model=\"{}\"}} {}\n",
                    escape_label(m),
                    monitors[*m].baseline_mrr // PANIC-OK: `m` came from `monitors.keys()`.
                ));
            }
            out.push_str(
                "# HELP kg_serve_monitor_drift_alarm 1 when MRR fell more than the drift threshold below baseline.\n",
            );
            out.push_str("# TYPE kg_serve_monitor_drift_alarm gauge\n");
            for m in &models {
                out.push_str(&format!(
                    "kg_serve_monitor_drift_alarm{{model=\"{}\"}} {}\n",
                    escape_label(m),
                    // PANIC-OK: `m` came from `monitors.keys()`.
                    u64::from(monitors[*m].drift_alarm)
                ));
            }
            out.push_str(
                "# HELP kg_serve_monitor_evals_total Continuous-evaluation rounds completed.\n",
            );
            out.push_str("# TYPE kg_serve_monitor_evals_total counter\n");
            for m in &models {
                out.push_str(&format!(
                    "kg_serve_monitor_evals_total{{model=\"{}\"}} {}\n",
                    escape_label(m),
                    monitors[*m].evals // PANIC-OK: `m` is a `monitors` key.
                ));
            }
            out.push_str(
                "# HELP kg_serve_monitor_eval_age_seconds Seconds since the latest round finished.\n",
            );
            out.push_str("# TYPE kg_serve_monitor_eval_age_seconds gauge\n");
            for m in &models {
                out.push_str(&format!(
                    "kg_serve_monitor_eval_age_seconds{{model=\"{}\"}} {}\n",
                    escape_label(m),
                    // PANIC-OK: `m` came from `monitors.keys()`.
                    (uptime - monitors[*m].last_eval_uptime).max(0.0)
                ));
            }
        }
        drop(monitors);

        let backend_errors = self.gateway_backend_errors.lock().unwrap();
        if !backend_errors.is_empty() {
            let mut backends: Vec<&String> = backend_errors.keys().collect();
            backends.sort();
            out.push_str(
                "# HELP kg_serve_gateway_backend_errors_total Backend failures observed by the gateway.\n",
            );
            out.push_str("# TYPE kg_serve_gateway_backend_errors_total counter\n");
            for b in backends {
                out.push_str(&format!(
                    "kg_serve_gateway_backend_errors_total{{backend=\"{}\"}} {}\n",
                    escape_label(b),
                    // PANIC-OK: `b` came from `backend_errors.keys()`.
                    backend_errors[b]
                ));
            }
        }
        drop(backend_errors);

        for (name, help, map) in [
            (
                "kg_serve_gateway_scatter_seconds",
                "Gateway scatter-phase latency (fan-out until the last backend answered).",
                &self.gateway_scatter,
            ),
            (
                "kg_serve_gateway_merge_seconds",
                "Gateway merge-phase latency (partial recombination).",
                &self.gateway_merge,
            ),
        ] {
            let map = map.lock().unwrap();
            if map.is_empty() {
                continue;
            }
            let mut endpoints: Vec<&String> = map.keys().collect();
            endpoints.sort();
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
            for ep in endpoints {
                // PANIC-OK: `ep` came from `map.keys()`.
                let Some(sorted) = map[ep].sorted() else { continue };
                for (label, q) in [("0.5", 0.50), ("0.99", 0.99)] {
                    out.push_str(&format!(
                        "{name}{{endpoint=\"{}\",quantile=\"{label}\"}} {}\n",
                        escape_label(ep),
                        percentile(&sorted, q) / 1e6
                    ));
                }
            }
        }
        out
    }
}

/// Escape a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`). Model names are caller-chosen (and reachable via the admin
/// endpoint), so they must not be able to corrupt the exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    // PANIC-OK: `rank` is clamped to `1..=sorted.len()` one line up.
    sorted[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_requests_and_errors() {
        let m = HttpMetrics::new();
        m.observe_request("/score", 100, 200);
        m.observe_request("/score", 200, 500);
        m.observe_request("/eval", 300, 200);
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.requests_for("/score"), 2);
        let text = m.render();
        assert!(text.contains("kg_serve_requests_total{endpoint=\"/score\"} 2"));
        assert!(text.contains("kg_serve_request_errors_total{endpoint=\"/score\"} 1"));
        assert!(text.contains("kg_serve_request_errors_total{endpoint=\"/eval\"} 0"));
    }

    #[test]
    fn quantiles_are_ordered_and_windowed() {
        let m = HttpMetrics::new();
        for us in 1..=1000u64 {
            m.observe_request("/score", us, 200);
        }
        let (p50, p99) = m.latency_quantiles("/score").unwrap();
        assert!(p50 <= p99);
        assert!((p50 - 500e-6).abs() < 50e-6, "p50 {p50}");
        assert!((p99 - 990e-6).abs() < 50e-6, "p99 {p99}");
        // Overflow the window; the reservoir stays bounded.
        for us in 0..(2 * LATENCY_WINDOW as u64) {
            m.observe_request("/score", us, 200);
        }
        assert!(m.latency_quantiles("/score").is_some());
    }

    #[test]
    fn batch_series_render() {
        let m = HttpMetrics::new();
        m.observe_batch(3, 120);
        m.observe_batch(1, 10);
        let text = m.render();
        assert!(text.contains("kg_serve_score_batches_total 2"));
        assert!(text.contains("kg_serve_score_batch_jobs_total 4"));
        assert!(text.contains("kg_serve_score_batch_triples_total 130"));
        assert!(text.contains("kg_serve_score_batch_size{quantile=\"0.5\"}"));
    }

    #[test]
    fn topk_batch_series_render() {
        let m = HttpMetrics::new();
        m.observe_topk_batch(2, 9);
        m.observe_topk_batch(1, 1);
        assert_eq!(m.topk_batches(), 2);
        assert_eq!(m.topk_jobs(), 3);
        let text = m.render();
        assert!(text.contains("kg_serve_topk_batches_total 2"), "{text}");
        assert!(text.contains("kg_serve_topk_batch_jobs_total 3"), "{text}");
        assert!(text.contains("kg_serve_topk_batch_queries_total 10"), "{text}");
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[10], 0.5), 10.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4.0);
    }

    /// Model names reach labels from outside (`/admin/models`); every
    /// per-model series renders them through `escape_label`.
    #[test]
    fn window_gauge_escapes_label_values() {
        let m = HttpMetrics::new();
        m.set_graph_version("evil\"} 1\nfake_metric{x=\"", 7);
        let text = m.render();
        assert!(
            text.contains("kg_serve_graph_version{model=\"evil\\\"} 1\\nfake_metric{x=\\\"\"} 7"),
            "label must be escaped, got: {text}"
        );
        assert!(!text.contains("\nfake_metric{"), "no injected series: {text}");
    }

    #[test]
    fn connection_series_track_lifecycle() {
        let m = HttpMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_reused();
        m.connection_reused();
        m.connection_reused();
        m.connection_rejected();
        m.connection_closed();
        assert_eq!(m.active_connections(), 1);
        assert_eq!(m.total_connections(), 2);
        assert_eq!(m.keepalive_reuses(), 3);
        assert_eq!(m.rejected_connections(), 1);
        let text = m.render();
        assert!(text.contains("kg_serve_connections_active 1"), "{text}");
        assert!(text.contains("kg_serve_connections_total 2"), "{text}");
        assert!(text.contains("kg_serve_keepalive_reuses_total 3"), "{text}");
        assert!(text.contains("kg_serve_rejected_connections_total 1"), "{text}");
    }

    #[test]
    fn reactor_series_render_gauge_counter_and_summary() {
        let m = HttpMetrics::new();
        assert_eq!(m.reactor_fds(), 0);
        m.set_reactor_fds(12);
        m.observe_reactor_tick(0);
        m.observe_reactor_tick(4);
        assert_eq!(m.reactor_fds(), 12);
        assert_eq!(m.reactor_wakeups(), 2);
        let text = m.render();
        assert!(text.contains("kg_serve_reactor_registered_fds 12"), "{text}");
        assert!(text.contains("kg_serve_reactor_wakeups_total 2"), "{text}");
        assert!(text.contains("kg_serve_reactor_ready_events{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("kg_serve_reactor_ready_events{quantile=\"0.99\"}"), "{text}");
    }

    #[test]
    fn unknown_endpoint_has_no_quantiles() {
        let m = HttpMetrics::new();
        assert!(m.latency_quantiles("/nope").is_none());
        assert_eq!(m.requests_for("/nope"), 0);
    }
}
