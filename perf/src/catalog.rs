//! Everything `BENCHMARK.json` says, and more: the command, the
//! workloads and why each exists, every metric by name with its unit and
//! direction, how it is measured from outside, and — written down before
//! measuring — which end-to-end metric on which workload it should move.
//! This table is the one source: `kg-perf list` prints it, and
//! `kg-perf list --json` writes `BENCHMARK.json` from it (a test fails
//! when the checked-in file is not what this module generates).

use std::fmt::Write as _;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perf"];

/// Length of the measured window the driver asks for, seconds. The
/// contract caps the total time of all its runs, which leaves no room for
/// the 30 s the issue asked for.
pub const RUN_SECONDS: u32 = 24;

/// A workload and the one-line reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The workloads, in the order `aa` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "eval_offline",
        why: "The paper's own axis, in-process, one thread: sampled sweeps against full filtered \
              ranking at a stated estimator error (MRR within 0.10 of truth); kg_recommend and \
              kg_eval do the work, kg_serve none.",
    },
    Workload {
        name: "serve_topk_1m",
        why: "Kernel- and memory-bandwidth-bound: every /topk streams a 1M x 32 table and never \
              hits the cache; framing, JSON and router are a few percent, so a framing change \
              must not move it.",
    },
    Workload {
        name: "gateway_small",
        why: "Overhead-bound: a 50k-entity /topk crosses reactor, framing, JSON and router three \
              times plus scatter, thread teams, wire codec and merge; a kernel change must not \
              move it.",
    },
    Workload {
        name: "serve_live_mixed",
        why: "Same engine used differently: a closed-loop reader mixing /score, cache hits, \
              misses and /eval beside an open-loop /triples writer, so a read gain bought with \
              write cost or lost invalidation shows.",
    },
];

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; gated by `bound`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Workloads on which the metric is the workload's own traffic; on
    /// the others it is a stand-in: the same code timed in the segment
    /// tails on a small model and graph of the harness's own (see
    /// `definition`).
    pub native: &'static str,
    /// What is measured.
    pub definition: &'static str,
}

use Better::{Higher, Lower};

/// The six end-to-end metrics. Every workload reports all six.
///
/// The bounds are what this box can repeat, not the 0.10 / 0.05 the issue
/// hoped for: everything timed here leaves L2, and the host's shared
/// cache and memory system swings it by a fifth for minutes at a time —
/// over ten runs 2–8 % in a calm hour, 13–24 % in a bad one — so timed
/// metrics carry the contract's cap, 0.25. `peak_rss_mb` spreads by up to
/// 7 % with the seed and with malloc's arenas. `latency_p90_ms`, which the
/// issue wanted gated, is a per-layer row (`load.latency_p90_ms`): it is
/// half again as sensitive to the host as the median, and the median of
/// ten runs moved by a third between two sets an hour apart, more than
/// any bound the contract allows. See README, "Bounds".
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        native: "all",
        definition: "generated inputs on disk -> first verified-correct answer (dataset/snapshot \
                     load, filter build, recommender fit + static sets, bind, connect, cache \
                     warm-up); median of complete set-up/tear-down cycles, first discarded",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.20,
        native: "all",
        definition: "VmHWM of the process when the measured window ends (one workload per \
                     process; verification comes after)",
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        native: "all",
        definition: "completed, verified operations per second: test triples evaluated by \
                     sampled sweeps (eval_offline), requests (serve_topk_1m, gateway_small), \
                     reader requests (serve_live_mixed); median over segments",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "all",
        definition: "median operation latency (a sweep; a request's client-observed round \
                     trip); median over segments",
    },
    EndToEnd {
        name: "full_eval_tps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        native: "eval_offline",
        definition: "test triples per second under evaluate_full, threads = 1 — the paper's \
                     baseline. The tail of every segment runs passes over a fixed slice back to \
                     back (>= 5); a segment's value is the slice over its median pass; median \
                     over segments. eval_offline: its own model, filter and test slice. The \
                     serving workloads, whose traffic has no full ranking: a stand-in, the same \
                     on all three — a 4096 x 32 model of the harness's own, small enough to \
                     stay in L2 (their load generator pauses for the tail)",
    },
    EndToEnd {
        name: "write_latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "serve_live_mixed",
        definition: "median latency of a 64-insert write; median over segments. \
                     serve_live_mixed: open-loop POST /triples beside the reader, timed from \
                     the due time (writes due in a head). Elsewhere a stand-in, the same on all \
                     three: the tail of every segment applies 64 fresh deltas in-process \
                     (LiveGraph::apply) to a new live graph over the harness's own 8192-triple \
                     graph",
    },
];

/// A metric of one layer, measured from outside; never gated.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is measured: `probe` = timed loop over the public call with
    /// the workload's inputs, median of repetitions; `scrape` = delta of
    /// the server's `/metrics` over the traced window; `load` = recorded
    /// by the load generator; `span` = spans around the harness's calls.
    pub how: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, how, moves }
}

/// The per-layer metrics. A workload reports 0 for a layer that is not on
/// its path (the text report prints `n/a`).
pub const PER_LAYER: [Layer; 84] = [
    // kg_core
    layer(
        "core.parallel.team_spawn_us",
        "us",
        Lower,
        "probe: parallel_map_with, 2 items, 2 threads, empty body",
        "latency_p50_ms@gateway_small (each shard worker ranks on a two-thread team); nothing \
         @serve_topk_1m, eval_offline (one scoring thread: no team is spawned)",
    ),
    layer(
        "core.topk.merge_us",
        "us",
        Lower,
        "probe: merge 16 PartialTopK, k = 10",
        "latency_p50_ms@serve_topk_1m",
    ),
    layer(
        "core.partial.codec_us",
        "us",
        Lower,
        "probe: wire encode + decode one PartialTopK",
        "latency_p50_ms@gateway_small",
    ),
    layer(
        "core.filter.build_s",
        "s",
        Lower,
        "probe: FilterIndex::from_slices on the base triples",
        "setup_s@serve_topk_1m, serve_live_mixed",
    ),
    layer(
        "core.live.apply_us",
        "us",
        Lower,
        "probe: LiveGraph::apply of a 64-insert delta at end-of-run overlay size",
        "write_latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "core.live.known_answers_ns",
        "ns",
        Lower,
        "probe: known_answers on hot keys at end-of-run overlay size",
        "load.latency_p90_ms@serve_live_mixed",
    ),
    // kg_datasets
    layer(
        "datasets.generate_s",
        "s",
        Lower,
        "timed input generation",
        "report-only (outside setup_s)",
    ),
    // kg_models
    layer(
        "models.snapshot.load_s",
        "s",
        Lower,
        "probe: load_model_from_path",
        "setup_s@serve_topk_1m",
    ),
    layer(
        "models.kernels.combine_rows_stream_gbps",
        "GB/s",
        Higher,
        "probe: combine_rows over a table of the model's shape; bytes computed from table size",
        "throughput_rps@serve_topk_1m; full_eval_tps@eval_offline",
    ),
    layer(
        "models.kernels.combine_rows_hot_gbps",
        "GB/s",
        Higher,
        "probe: combine_rows over an L2-resident 1 MiB tile; bytes computed",
        "<= 15 % of latency_p50_ms@gateway_small",
    ),
    layer(
        "models.membw_probe_gbps",
        "GB/s",
        Higher,
        "probe: STREAM-style sum over 256 MB, the reference for the two above",
        "report-only",
    ),
    layer(
        "models.engine.top_k_ms",
        "ms",
        Lower,
        "probe: ScoringEngine::top_k_fanout, threads = 2",
        "report-only: no workload ranks a whole table on two threads (bimodal on this box)",
    ),
    layer(
        "models.engine.top_k_ms.t1",
        "ms",
        Lower,
        "probe: ScoringEngine::top_k, threads = 1",
        "latency_p50_ms@serve_topk_1m",
    ),
    layer(
        "models.engine.top_k_bw_frac",
        "ratio",
        Higher,
        "computed bytes of one top_k pass / top_k_ms.t1, over membw_probe",
        "report-only: near 1 = bandwidth-bound",
    ),
    layer(
        "models.engine.rank_counts_ms",
        "ms",
        Lower,
        "probe: ScoringEngine::rank_counts",
        "full_eval_tps@eval_offline",
    ),
    layer(
        "models.engine.score_candidates_ns_per_cand",
        "ns",
        Lower,
        "probe: ScoringEngine::score_candidates over a sampled candidate list",
        "throughput_rps@eval_offline",
    ),
    // kg_recommend
    layer(
        "recommend.fit_s",
        "s",
        Lower,
        "span around Lwd::fit in set-up",
        "setup_s@eval_offline, serve_live_mixed",
    ),
    layer(
        "recommend.static_sets_s",
        "s",
        Lower,
        "span around CandidateSets::static_sets in set-up",
        "setup_s@eval_offline, serve_live_mixed",
    ),
    layer(
        "recommend.sample_candidates_ms.random",
        "ms",
        Lower,
        "span around the draw in each sweep",
        "throughput_rps, latency_p50_ms@eval_offline",
    ),
    layer(
        "recommend.sample_candidates_ms.static",
        "ms",
        Lower,
        "span around the draw in each sweep",
        "throughput_rps, latency_p50_ms@eval_offline",
    ),
    layer(
        "recommend.sample_candidates_ms.probabilistic",
        "ms",
        Lower,
        "span around the draw in each sweep",
        "throughput_rps, latency_p50_ms@eval_offline",
    ),
    // kg_eval
    layer(
        "eval.sampled.pass_ms.random",
        "ms",
        Lower,
        "span around evaluate_sampled",
        "throughput_rps@eval_offline",
    ),
    layer(
        "eval.sampled.pass_ms.static",
        "ms",
        Lower,
        "span around evaluate_sampled",
        "throughput_rps@eval_offline",
    ),
    layer(
        "eval.sampled.pass_ms.probabilistic",
        "ms",
        Lower,
        "span around evaluate_sampled",
        "throughput_rps@eval_offline",
    ),
    layer(
        "eval.full.pass_ms",
        "ms",
        Lower,
        "span around evaluate_full",
        "full_eval_tps@eval_offline",
    ),
    layer(
        "eval.sampled_speedup_x.with_draw",
        "x",
        Higher,
        "full pass / (draw + sampled pass), mean over strategies",
        "report-only: falls when full ranking gets faster",
    ),
    layer(
        "eval.sampled_speedup_x.eval_only",
        "x",
        Higher,
        "full pass / sampled pass, mean over strategies",
        "report-only",
    ),
    layer(
        "eval.mrr_abs_err.random",
        "abs",
        Lower,
        "|mean estimate - truth| over fixed sample seeds; repeats exactly for a seed",
        "report-only + ordering check",
    ),
    layer("eval.mrr_abs_err.static", "abs", Lower, "same", "report-only + budget check"),
    layer("eval.mrr_abs_err.probabilistic", "abs", Lower, "same", "report-only + budget check"),
    layer("eval.hits10_abs_err.random", "abs", Lower, "same, Hits@10", "report-only"),
    layer("eval.hits10_abs_err.static", "abs", Lower, "same, Hits@10", "report-only"),
    layer("eval.hits10_abs_err.probabilistic", "abs", Lower, "same, Hits@10", "report-only"),
    layer("eval.truth_mrr", "abs", Higher, "evaluate_full MRR over the test slice", "report-only"),
    // kg_serve::json
    layer(
        "serve.json.parse_us.score",
        "us",
        Lower,
        "probe: Json::parse on the workload's /score body",
        "latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "serve.json.parse_us.topk",
        "us",
        Lower,
        "probe: Json::parse on a /topk body",
        "latency_p50_ms@gateway_small (paid 3x)",
    ),
    layer(
        "serve.json.parse_us.triples",
        "us",
        Lower,
        "probe: Json::parse on a 64-insert /triples body",
        "write_latency_p50_ms@serve_live_mixed",
    ),
    // kg_serve::router
    layer(
        "serve.router.handle_us.score",
        "us",
        Lower,
        "probe: Router::handle in-process, no socket",
        "latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "serve.router.handle_us.topk_hit",
        "us",
        Lower,
        "probe: Router::handle, repeated key",
        "latency_p50_ms@serve_live_mixed (hit class)",
    ),
    layer(
        "serve.router.handle_us.topk_miss",
        "us",
        Lower,
        "probe: Router::handle, fresh keys",
        "load.latency_p90_ms@serve_live_mixed; latency_p50_ms@serve_topk_1m",
    ),
    layer(
        "serve.router.handle_us.eval_hit",
        "us",
        Lower,
        "probe: Router::handle, repeated /eval body",
        "load.latency_p90_ms@serve_live_mixed",
    ),
    layer(
        "serve.router.handle_us.eval_miss",
        "us",
        Lower,
        "probe: Router::handle, rotating /eval slices",
        "load.latency_p90_ms@serve_live_mixed",
    ),
    layer(
        "serve.router.handle_us.triples",
        "us",
        Lower,
        "probe: Router::handle, fresh 64-insert bodies",
        "write_latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "serve.router.handle_us.shard_topk",
        "us",
        Lower,
        "probe: a shard worker's Router::handle on /shard/topk",
        "latency_p50_ms@gateway_small",
    ),
    // kg_serve::batch
    layer(
        "serve.batch.score_submit_us",
        "us",
        Lower,
        "probe: lone-caller ScoreBatcher::submit (includes the window)",
        "latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "serve.batch.topk_submit_us",
        "us",
        Lower,
        "probe: lone-caller TopKBatcher::submit, fresh keys",
        "latency_p50_ms@gateway_small, serve_topk_1m",
    ),
    layer(
        "serve.batch.score_jobs_per_batch",
        "ratio",
        Higher,
        "scrape: score_batch_jobs_total / score_batches_total",
        "throughput_rps@serve_live_mixed",
    ),
    layer(
        "serve.batch.topk_jobs_per_batch",
        "ratio",
        Higher,
        "scrape: topk_batch_jobs_total / topk_batches_total (workers on gateway_small)",
        "throughput_rps@gateway_small",
    ),
    // kg_serve::registry
    layer(
        "serve.registry.samples_for_us.hit",
        "us",
        Lower,
        "probe: ModelEntry::samples_for, cached key",
        "load.latency_p90_ms@serve_live_mixed",
    ),
    layer(
        "serve.registry.samples_for_us.miss",
        "us",
        Lower,
        "probe: ModelEntry::samples_for, fresh seeds",
        "load.latency_p90_ms@serve_live_mixed",
    ),
    layer(
        "serve.cache.topk_hit_ratio",
        "ratio",
        Higher,
        "scrape: topk_cache_hits / (hits + misses)",
        "latency_p50_ms@serve_live_mixed; must not fall when writes get cheaper",
    ),
    layer(
        "serve.cache.eval_hit_ratio",
        "ratio",
        Higher,
        "scrape: eval_cache_hits / (hits + misses)",
        "load.latency_p90_ms@serve_live_mixed",
    ),
    // kg_serve reactor / server / client
    layer(
        "serve.transport_us",
        "us",
        Lower,
        "probe: keep-alive GET /healthz round trip (client + reactor + framing + worker hand-off)",
        "latency_p50_ms@gateway_small (3 hops), serve_live_mixed; nothing @serve_topk_1m",
    ),
    layer(
        "serve.client.connect_us",
        "us",
        Lower,
        "probe: Connection::open + first GET /healthz",
        "setup_s (all serving workloads)",
    ),
    layer(
        "serve.reactor.wakeups_per_request",
        "ratio",
        Lower,
        "scrape: reactor_wakeups_total / requests_total",
        "throughput_rps@gateway_small",
    ),
    layer(
        "serve.reactor.ready_events_per_wakeup",
        "ratio",
        Higher,
        "scrape: reactor_ready_events{quantile=0.5}",
        "throughput_rps@gateway_small",
    ),
    layer(
        "serve.errors_total",
        "count",
        Lower,
        "scrape: request_errors_total, all endpoints",
        "failed operations (any workload)",
    ),
    // kg_serve::gateway
    layer(
        "serve.gateway.topk_call_us",
        "us",
        Lower,
        "probe: Gateway::topk called directly",
        "latency_p50_ms, throughput_rps@gateway_small",
    ),
    layer(
        "serve.gateway.score_call_us",
        "us",
        Lower,
        "probe: Gateway::score called directly",
        "report-only (no /score in gateway_small)",
    ),
    layer(
        "serve.gateway.overhead_us",
        "us",
        Lower,
        "probe: gateway round trip - single-node round trip, same body",
        "latency_p50_ms@gateway_small",
    ),
    layer(
        "serve.gateway.scatter_s_p50",
        "s",
        Lower,
        "scrape: gateway_scatter_seconds{quantile=0.5}",
        "latency_p50_ms@gateway_small",
    ),
    layer(
        "serve.gateway.merge_s_p50",
        "s",
        Lower,
        "scrape: gateway_merge_seconds{quantile=0.5}",
        "latency_p50_ms@gateway_small",
    ),
    // load generator
    layer(
        "load.samples",
        "count",
        Higher,
        "load: latency samples in the window",
        "health of the generator",
    ),
    layer(
        "load.latency_p90_ms",
        "ms",
        Lower,
        "load: p90, median over segments, >= 10 samples beyond it in every head",
        "report-only: the issue wanted it gated, but it moves by a third with the host",
    ),
    layer(
        "load.latency_p99_ms",
        "ms",
        Lower,
        "load: p99, median over segments; measures the scheduler on a shared box",
        "report-only, never gated",
    ),
    layer(
        "load.latency_p50_ms.score",
        "ms",
        Lower,
        "load: class median",
        "latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "load.latency_p50_ms.topk_hit",
        "ms",
        Lower,
        "load: class median (hot-set keys)",
        "latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "load.latency_p50_ms.topk_miss",
        "ms",
        Lower,
        "load: class median (never-repeated keys)",
        "load.latency_p90_ms@serve_live_mixed; latency_p50_ms@serve_topk_1m, gateway_small",
    ),
    layer(
        "load.latency_p50_ms.eval",
        "ms",
        Lower,
        "load: class median",
        "load.latency_p90_ms@serve_live_mixed",
    ),
    layer(
        "load.latency_p50_ms.triples",
        "ms",
        Lower,
        "load: writer median, from due time",
        "write_latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "load.writer_lateness_p50_ms",
        "ms",
        Lower,
        "load: send time - due time, median",
        "near 0 or the open loop is not open",
    ),
    layer(
        "load.writes_applied",
        "count",
        Higher,
        "load: scheduled writes answered 200 with every insert effective",
        "equals the schedule",
    ),
    // trace / environment
    layer(
        "trace.self_ms.transport",
        "ms",
        Lower,
        "replay of the median operation: socket round trip - in-process handler",
        "latency_p50_ms@gateway_small, serve_live_mixed",
    ),
    layer(
        "trace.self_ms.serve",
        "ms",
        Lower,
        "replay: Router::handle - engine call (JSON, router, batch window)",
        "latency_p50_ms@serve_live_mixed",
    ),
    layer(
        "trace.self_ms.gateway",
        "ms",
        Lower,
        "replay: Gateway::topk - slower shard round trip",
        "latency_p50_ms@gateway_small",
    ),
    layer(
        "trace.self_ms.engine",
        "ms",
        Lower,
        "replay: engine call - kernel pass",
        "latency_p50_ms@serve_topk_1m",
    ),
    layer(
        "trace.self_ms.kernel",
        "ms",
        Lower,
        "replay: combine_rows over the rows one operation scores, on the engine call's threads",
        "latency_p50_ms@serve_topk_1m",
    ),
    layer(
        "trace.self_ms.eval",
        "ms",
        Lower,
        "evaluate_sampled spans - engine replay",
        "latency_p50_ms@eval_offline",
    ),
    layer(
        "trace.self_ms.recommend",
        "ms",
        Lower,
        "sample_candidates spans",
        "latency_p50_ms@eval_offline",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "(untraced - traced) / untraced throughput, same process, same connection",
        "report-only; <= 0.05",
    ),
    layer(
        "env.calib_cpu_ms.before",
        "ms",
        Lower,
        "fixed integer loop before the window",
        "report-only",
    ),
    layer(
        "env.calib_cpu_ms.after",
        "ms",
        Lower,
        "fixed integer loop after the window",
        "report-only",
    ),
    layer(
        "env.steal_frac",
        "ratio",
        Lower,
        "/proc/stat steal share over the window",
        "report-only",
    ),
    layer(
        "env.disturbed",
        "count",
        Lower,
        "1 when calibration drifted > 10 % or steal > 2 %",
        "1 marks a run not to be trusted",
    ),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`: exactly the keys the driver's contract
/// names, written from the tables above.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>, indent: &str| {
        format!("[\n{indent}  {}\n{indent}]", items.join(&format!(",\n{indent}  ")))
    };
    let strings = |items: &[&str]| items.iter().map(|s| json_string(s)).collect::<Vec<_>>();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!(r#"{{"name": {}, "why": {}}}"#, json_string(w.name), json_string(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                r#"{{"name": {}, "unit": {}, "better": {}, "bound": {}}}"#,
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                r#"{{"name": {}, "unit": {}, "better": {}}}"#,
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(strings(&COMMAND), "  "),
        list(strings(&PATHS), "  "),
        list(workloads, "  "),
        list(end_to_end, "  "),
        list(per_layer, "  "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgeval::serve::Json;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = HashSet::new();
        let names = END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name));
        for name in names.chain(WORKLOADS.iter().map(|w| w.name)) {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        assert!(END_TO_END.iter().any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", Lower)));
    }

    /// `BENCHMARK.json` is what the driver reads; it is written by
    /// `kg-perf list --json > BENCHMARK.json`, never by hand.
    #[test]
    fn benchmark_json_is_what_the_catalogue_generates() {
        let generated = benchmark_json();
        let json = Json::parse(&generated).expect("the generated text is JSON");
        let Json::Obj(fields) = &json else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(generated.len() <= 64 * 1024);
        let first = &json.get("end_to_end").and_then(Json::as_array).unwrap()[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some(END_TO_END[0].name));
        assert_eq!(first.get("bound").and_then(Json::as_f64), Some(END_TO_END[0].bound));

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, generated, "run `kg-perf list --json > BENCHMARK.json`");
    }
}
