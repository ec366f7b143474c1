//! # kg-serve — evaluation as a service
//!
//! The paper's point is that recommender-guided sampled evaluation is fast
//! enough to run *continuously*; this crate makes that operational: a
//! dependency-free HTTP/1.1 service exposing trained KGC models for
//! scoring, top-k prediction, and sampled evaluation, so the fast estimator
//! **is** the serving path rather than an offline batch job.
//!
//! ## Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/score`        | POST | Score a batch of `(h, r, t)` triples (a lone request runs at once; requests arriving during a pass form the next pass) |
//! | `/topk`         | POST | Top-k tail/head prediction with filtered known-true removal (coalesced across concurrent requests, fanned out across queries × entity shards) |
//! | `/eval`         | POST | Sampled MRR / Hits@K over submitted triples ([`kg_eval::evaluate_sampled`]), version-stamped and LRU-cached |
//! | `/triples`      | POST | Stream triple inserts/deletes into the live graph; bumps the graph version; cached results that read a touched key stop being served |
//! | `/monitor`      | GET  | Continuous-evaluation status per model (window size, latest MRR/Hits@K, drift alarm) |
//! | `/admin/models` | POST | Hot-reload a model snapshot; the registry entry flips atomically (the live graph and its version survive) |
//! | `/admin/models` | GET  | List registered models: shape, shard count, graph version, known triples |
//! | `/healthz`      | GET  | Liveness, uptime, registered models, this worker's shard ranges (on a gateway: per-backend health) |
//! | `/metrics`      | GET  | Prometheus text: request counts, p50/p99 latency, batch counts and sizes |
//! | `/shard/topk`   | POST | **Internal** (multi-node): `/topk`'s queries over this worker's entity range, as wire-encoded [`kg_core::partial::PartialTopK`]s |
//! | `/shard/rank`   | POST | **Internal** (multi-node): filtered-rank counters over this worker's range, as wire-encoded [`kg_core::partial::PartialRankCounts`] |
//!
//! ## Request/response schemas (JSON)
//!
//! `POST /score`:
//! ```json
//! {"model": "default", "triples": [[0, 1, 2], [5, 0, 7]]}
//! → {"model": "default", "count": 2, "scores": [3.1, -0.4]}
//! ```
//!
//! `POST /topk` (give `head` for tail prediction, `tail` for head
//! prediction; `filtered` defaults to `true`, `k` to 10):
//! ```json
//! {"model": "default", "queries": [{"head": 0, "relation": 1}], "k": 3}
//! → {"model": "default", "k": 3, "filtered": true,
//!    "results": [{"entities": [7, 2, 9], "scores": [2.4, 2.2, 1.9]}]}
//! ```
//!
//! `POST /eval` (strategy `random` | `static` | `probabilistic`; seeds are
//! deterministic, the `(strategy, n_s, seed)` candidate sample is
//! LRU-cached per model, and the full result is LRU-cached keyed on every
//! knob plus a fingerprint of the triples — served again until a write
//! changes the known answers of one of those triples' `(head, relation)`
//! or `(relation, tail)` keys, so only such a write between two identical
//! calls forces a recompute; `graph_version` is the version of the graph
//! the response was served on):
//! ```json
//! {"model": "default", "triples": [[0, 1, 2]], "strategy": "random",
//!  "n_s": 50, "seed": 7, "include_ranks": false}
//! → {"model": "default", "strategy": "random", "n_s": 50, "seed": 7,
//!    "graph_version": 3, "sample_cache": "miss", "eval_cache": "miss",
//!    "num_queries": 2,
//!    "metrics": {"mrr": 0.41, "hits1": 0.3, "hits3": 0.45, "hits10": 0.7,
//!                "mean_rank": 5.5}, "seconds": 0.0012}
//! ```
//!
//! `POST /triples` (streaming ingest: batch inserts and/or deletes against
//! the model's live graph; no-op writes — inserting a known triple,
//! deleting an unknown one — don't bump the version):
//! ```json
//! {"model": "default", "insert": [[0, 1, 2]], "delete": [[5, 0, 7]]}
//! → {"model": "default", "version": 4, "inserted": 1, "deleted": 1,
//!    "known_triples": 1042}
//! ```
//!
//! `GET /admin/models` / `GET /monitor` (read-only introspection; see
//! [`monitor::MonitorStatus`] for the per-monitor fields):
//! ```json
//! → {"models": [{"name": "default", "family": "ComplEx", "entities": 100,
//!               "relations": 4, "dim": 32, "shards": 1,
//!               "graph_version": 4, "known_triples": 1042}]}
//! ```
//!
//! `POST /admin/models` (hot-reload; the snapshot is loaded before any
//! registry lock is taken, then the entry flips atomically — in-flight
//! requests finish on the model they started with; an existing entry keeps
//! its live graph — same `Arc`, version counter and applied deltas
//! included — and recommender artifacts, so the snapshot must match
//! its entity/relation counts; add `"token"` when
//! [`RegistryConfig::admin_token`] is set):
//! ```json
//! {"name": "default", "path": "/models/complex-v2.kgev"}
//! → {"model": "default", "status": "replaced", "entities": 100,
//!    "relations": 4, "shards": 1}
//! ```
//!
//! Responses round-trip floats through Rust's shortest-representation
//! formatter, so `/eval` metrics agree **bit-for-bit** with calling
//! [`kg_eval::evaluate_sampled`] in-process on the same seed.
//!
//! ## Connection semantics
//!
//! Connections are persistent and multiplexed by a single readiness
//! **reactor** thread (epoll/kqueue, std-only — see [`server`] and the
//! `reactor` module): pool workers execute parsed requests only, so open
//! connections cost a file descriptor and a buffer, never a thread.
//! HTTP/1.1 defaults to keep-alive (HTTP/1.0 to close), `Connection:
//! close` is honored in both directions, and pipelined requests on one
//! socket are answered in order with byte-identical bodies to the serial
//! path. The server separates an idle timeout (between requests) from the
//! in-request read timeout, caps the requests one connection may carry,
//! and admits at most [`ServerConfig::max_connections`] connections at
//! once — beyond that the reactor answers `503` with a `Retry-After`
//! header as a buffered non-blocking write. Framing failures (duplicate
//! `Content-Length`, header section over limits, …) are rejected before
//! routing and metered under the [`HTTP_PARSE_ENDPOINT`] label.
//! [`client::Connection`] is the matching reusable client (with
//! [`client::Connection::pipeline`]).
//!
//! ## Sharding
//!
//! Every registered model is wrapped in a [`kg_models::ScoringEngine`]
//! that partitions the entity space into contiguous shards
//! ([`RegistryConfig::shards`]; `0` = automatic, one shard per
//! `kg_core::parallel::DEFAULT_SHARD_TARGET` entities). `/topk` builds one
//! bounded heap per shard and merges them deterministically, so responses
//! are bit-for-bit identical for every shard count — sharding is purely a
//! locality/scale knob, never a semantics knob.
//!
//! The thread budget is split two ways at once
//! ([`kg_core::parallel::two_level_split`]): concurrent `/topk` requests
//! coalesce in the per-model [`TopKBatcher`] and the merged queries spread
//! across worker threads, while any spare threads fan each query's entity
//! shards out — so a lone query uses the whole budget instead of one core,
//! and a saturated batch degrades gracefully to pure query-parallelism.
//!
//! ## Multi-node deployment
//!
//! The same partition scales across machines: run one worker per node
//! with [`RegistryConfig::worker_shard`] set (worker `i` of `N` owns
//! `ShardPlan::new(|E|, N).range(i)`; every worker holds the full model —
//! the split is in ranking work, not storage) and put a
//! [`Router::gateway`] in front ([`Gateway`], [`GatewayConfig`]). The
//! gateway scatters `/topk` to every worker's internal `/shard/topk`,
//! chunks `/score` and `/eval` triples across workers, and merges the
//! partial results with the same [`kg_core::partial`] code the in-process
//! shard fan-out uses — so the fleet answers **byte-identically** to a
//! single-node server (all 7 families covered in `tests/gateway_http.rs`;
//! `/eval`'s wall-clock `"seconds"` is the one field that differs, as it
//! does between any two runs anywhere). Backend failures answer `503` +
//! `Retry-After` and are counted per backend; a fleet whose shard ranges
//! do not exactly tile the entity space is refused with `502` rather than
//! silently ranking over a partial range. Per-client fairness
//! ([`ServerConfig::client_bucket_size`]) meters connection admission per
//! remote IP with `429` + `Retry-After`, so one chatty client cannot
//! drain the global budget.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use kg_core::{FilterIndex, Triple};
//! use kg_models::{build_model, KgcModel, ModelKind};
//! use kg_serve::{serve, ModelRegistry, Router, ServerConfig};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! let model = build_model(ModelKind::ComplEx, 100, 4, 32, 42);
//! let train = [Triple::new(0, 0, 1)];
//! let filter = Arc::new(FilterIndex::from_slices(&[&train]));
//! registry.register("default", Arc::from(model as Box<dyn KgcModel>), filter);
//!
//! let router = Router::new(Arc::clone(&registry));
//! let server = serve(router, &ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.addr());
//! // … curl -d '{"model":"default","triples":[[0,0,1]]}' http://ADDR/score
//! server.shutdown();
//! ```

// Grown, not assumed: kg-lint (KL002/KL003) audits the code that *does*
// need unsafe — here exactly one module, the `poll` syscall shim, which
// opts in with a file-level allow; everything else stays forbidden in
// effect because this deny has no other escape hatch in the crate.
#![deny(unsafe_code)]

pub mod batch;
pub mod client;
pub mod gateway;
pub mod http_metrics;
pub mod json;
pub mod monitor;
mod poll;
mod reactor;
pub mod registry;
pub mod router;
pub mod server;

pub use batch::{ScoreBatcher, TopKBatcher, TopKQuery, TopKResults};
pub use client::{ClientConfig, Connection};
pub use gateway::{Gateway, GatewayConfig};
pub use http_metrics::HttpMetrics;
pub use json::{Json, JsonError};
pub use monitor::{Monitor, MonitorConfig, MonitorStatus};
pub use registry::{
    EvalKey, LruCache, ModelEntry, ModelRegistry, RegistryConfig, SampleKey, WorkerShard,
};
pub use router::{Response, Router};
pub use server::{serve, ServerConfig, ServerHandle, HTTP_PARSE_ENDPOINT};
