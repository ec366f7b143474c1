//! The four workloads and what they share: the run plan (set-up cycles →
//! warm-up → window of five segments, each a head and a tail), the serving
//! configuration, the request client, and the stand-in measurements of the
//! tails.

pub mod eval_offline;
pub mod gateway_small;
pub mod serve_live_mixed;
pub mod serve_topk_1m;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgeval::core::timing::timed;
use kgeval::core::triple::QuerySide;
use kgeval::core::{FilterIndex, GraphDelta, KnownIndex, LiveFilterIndex, LiveGraph, Triple};
use kgeval::eval::{evaluate_full, TieBreak};
use kgeval::models::io::save_model_to_path;
use kgeval::models::{build_model, KgcModel, ModelKind, ScoringEngine};
use kgeval::serve::{client, Json, Router, ServerConfig, ServerHandle};

use crate::env::{self, EnvWindow};
use crate::inputs::{topk_body, InputsHash, KeyStream, SplitMix64, WorkDir, WriteBatches};
use crate::load::{self, Done, LoopLog};
use crate::scrape::{self, Scrape};
use crate::stats::{self, ClassShare, Sample, SegmentStats};
use crate::trace::{self, Recorder, Span};

/// Segments the measured window is cut into: five of 4.8 s in the 24 s
/// `BENCHMARK.json` runs (the issue's 30 s window had six of 5 s). An odd
/// count, so a median over segments is a value one segment measured.
pub const SEGMENTS: usize = 5;

/// Share of every segment that is its *tail*. The head of a segment runs
/// the workload's own operations; the tail runs `evaluate_full` passes
/// and, on a workload without a writer, stand-in writes. Every
/// end-to-end value is thus measured five times, spread over the window,
/// and a run value is the median of the five.
pub const TAIL_SHARE: f64 = 0.15;

/// 64-insert writes timed in the tail of every segment on a workload
/// without a writer of its own.
pub const TAIL_WRITES: usize = 64;

/// A traced run alternates untraced and traced windows this many times …
pub const TRACE_ROUNDS: u32 = 2;
/// … each this share of `--seconds` long, so a slow drift of the box does
/// not pass for tracing overhead.
pub const TRACE_PIECE_SHARE: f64 = 0.15;

/// Name every workload registers its model under.
pub const MODEL: &str = "m";

/// What `kg-perf --workload …` was asked to do.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Test hook: corrupt the expected answers so verification must fail.
    pub sabotage: bool,
}

/// Warm-up and window of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Unmeasured warm-up before the window.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
}

impl Plan {
    /// 2 s warm-up (less for short windows), then `seconds` measured. The
    /// issue asked for 3 s; the contract's cap on total time took one.
    pub fn new(seconds: f64) -> Plan {
        Plan {
            warmup: Duration::from_secs_f64((0.1 * seconds).min(2.0)),
            window: Duration::from_secs_f64(seconds),
        }
    }

    /// Length of one segment.
    pub fn segment(&self) -> Duration {
        self.window / SEGMENTS as u32
    }

    /// Length of a segment's head.
    pub fn head(&self) -> Duration {
        self.segment().mul_f64(1.0 - TAIL_SHARE)
    }
}

/// The six end-to-end values of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEndValues {
    /// See the catalogue for each definition.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub throughput_rps: f64,
    pub latency_p50_ms: f64,
    pub full_eval_tps: f64,
    pub write_latency_p50_ms: f64,
}

impl EndToEndValues {
    /// Value by catalogue name.
    pub fn get(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "throughput_rps" => self.throughput_rps,
            "latency_p50_ms" => self.latency_p50_ms,
            "full_eval_tps" => self.full_eval_tps,
            "write_latency_p50_ms" => self.write_latency_p50_ms,
            other => panic!("no end-to-end metric called {other}"),
        }
    }
}

/// Per-layer values by catalogue name; a layer that is not on the
/// workload's path is simply absent.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, the ones that failed — including operations a failed
    /// correctness check covers.
    pub failed: u64,
    /// Correctness findings; empty when every check passed.
    pub errors: Vec<String>,
    /// End-to-end values (untraced run only).
    pub end_to_end: Option<EndToEndValues>,
    /// Per-layer values (everything in a traced run; the load and
    /// environment rows in an untraced one).
    pub layers: Layers,
    /// `key: value` lines printed with the result: configuration, sizes,
    /// `inputs_hash`.
    pub facts: Vec<(String, String)>,
    /// When each phase of the run ended (the first entry starts the
    /// clock).
    pub laps: Vec<(&'static str, Instant)>,
}

impl Outcome {
    /// Record the per-segment values behind the run values, so a spoiled
    /// segment is visible in the report.
    pub fn segments(&mut self, segments: &[SegmentStats], tails: &Tails) {
        let row = |values: &mut dyn Iterator<Item = f64>| {
            values.map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ")
        };
        self.fact("segments.rate_per_s", row(&mut segments.iter().map(SegmentStats::rate)));
        self.fact("segments.p50_ms", row(&mut segments.iter().map(|s| s.p50_ms)));
        self.fact("segments.p90_ms", row(&mut segments.iter().map(|s| s.p90_ms)));
        self.fact("segments.full_eval_tps", row(&mut tails.full_tps.iter().copied()));
        self.fact("segments.write_ms", row(&mut tails.write_ms.iter().copied()));
    }

    /// Close the phase that began at the previous call (the first call
    /// only starts the clock). The driver caps the total time of its
    /// runs, so the report says where a run's time went.
    pub fn lap(&mut self, phase: &'static str) {
        self.laps.push((phase, Instant::now()));
    }

    /// Record a fact line.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Record a failed correctness check covering `operations`.
    pub fn fail(&mut self, operations: u64, why: String) {
        self.failed += operations.max(1);
        self.errors.push(why);
    }

    /// Record the environment rows.
    pub fn env(&mut self, env: &EnvWindow) {
        self.layers.insert("env.calib_cpu_ms.before", env.calib_before_ms);
        self.layers.insert("env.calib_cpu_ms.after", env.calib_after_ms);
        self.layers.insert("env.steal_frac", env.steal_frac);
        self.layers.insert("env.disturbed", f64::from(u8::from(env.disturbed())));
    }
}

/// Run `cycles` complete set-up/tear-down cycles and report the median
/// set-up time of all but the first; each is torn down before the next,
/// and the last one's state is kept for the window. The count is fixed
/// per workload (four, six where a cycle is under a second) rather than
/// decided from a timing: the number of cycles moves `peak_rss_mb`. A
/// traced run sets up once.
pub fn setup_cycles<S>(
    trace: bool,
    cycles: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, f64), String> {
    assert!(cycles >= 4, "the median needs three kept cycles");
    let start = Instant::now();
    let mut state = setup()?;
    if trace {
        return Ok((state, start.elapsed().as_secs_f64()));
    }
    let mut kept = Vec::with_capacity(cycles - 1);
    for _ in 1..cycles {
        teardown(state);
        let start = Instant::now();
        state = setup()?;
        kept.push(start.elapsed().as_secs_f64());
    }
    Ok((state, stats::median(&kept)))
}

/// The serving configuration of every node: the defaults users get,
/// except that a connection is never recycled or idled out mid-window.
pub fn server_config(workers: Option<usize>) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        workers: workers.unwrap_or(defaults.workers),
        max_requests_per_connection: 1_000_000_000,
        idle_timeout: Duration::from_secs(600),
        ..defaults
    }
}

/// Bind and serve `router`.
pub fn start_server(router: Router, workers: Option<usize>) -> Result<ServerHandle, String> {
    kgeval::serve::serve(router, &server_config(workers)).map_err(|e| format!("bind: {e}"))
}

/// Describe a server configuration for the report.
pub fn describe_server(config: &ServerConfig) -> String {
    format!(
        "workers={} max_connections={} read_timeout={:?} idle_timeout={:?} (raised) \
         max_requests_per_connection={} (raised)",
        config.workers,
        config.max_connections,
        config.read_timeout,
        config.idle_timeout,
        config.max_requests_per_connection
    )
}

/// One load-generator connection: the repo's own `client::Connection` —
/// what a caller of the service would use — in traced and untraced
/// windows alike, so their difference is the cost of recording and
/// nothing else. While a recorder is installed every round trip leaves a
/// `request` span.
pub struct Client {
    conn: client::Connection,
    spans: Option<Recorder>,
}

impl Client {
    /// Open a keep-alive connection.
    pub fn open(addr: SocketAddr) -> Result<Client, String> {
        let conn = client::Connection::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Client { conn, spans: None })
    }

    /// Install (or, with `None`, remove) the span recorder; returns the
    /// one that was installed.
    pub fn trace_into(&mut self, recorder: Option<Recorder>) -> Option<Recorder> {
        std::mem::replace(&mut self.spans, recorder)
    }

    /// `POST path`; returns the timestamps bounding the round trip and
    /// the body of a 200 response (anything else is an error).
    pub fn post(
        &mut self,
        path: &str,
        body: &str,
        op: u64,
    ) -> (Instant, Instant, Result<String, String>) {
        let start = Instant::now();
        let result = self.conn.post_json(path, body);
        let end = Instant::now();
        if let Some(recorder) = &mut self.spans {
            recorder.record("request", None, op, start, end);
        }
        (start, end, check_status(result))
    }
}

fn check_status(result: std::io::Result<(u16, String)>) -> Result<String, String> {
    match result {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("status {status}: {body}")),
        Err(e) => Err(format!("i/o error: {e}")),
    }
}

/// `(count, median latency in ms)` of the samples `pick` selects; the
/// median of none is 0.
fn count_and_median(log: &LoopLog, pick: impl Fn(&Sample) -> bool) -> (usize, f64) {
    let lat: Vec<f64> = log.samples.iter().filter(|s| pick(s)).map(|s| s.latency_ms).collect();
    (lat.len(), if lat.is_empty() { 0.0 } else { stats::median(&lat) })
}

/// Median latency of every operation class over a whole log, ms.
fn class_medians(log: &LoopLog, classes: usize) -> Vec<f64> {
    (0..classes).map(|c| count_and_median(log, |s| usize::from(s.class) == c).1).collect()
}

/// What the segments of a measured window produced.
pub struct Window {
    /// Every head's operations.
    pub log: LoopLog,
    /// One summary per head.
    pub segments: Vec<SegmentStats>,
    /// When each head began and ended (its tail follows).
    pub heads: Vec<(Instant, Instant)>,
}

/// Run the measured window: after the warm-up, [`SEGMENTS`] segments, each a head
/// of closed-loop `op`s followed by `tail(segment_end)`. The loop starts
/// at once — operations completing before the window opens are warm-up —
/// and a later head starts when the tail before it returns. A segment's
/// rate is its operation count over the time from its head's start to
/// its last completion, so it is not quantised to whole operations.
/// Fails if a head holds too few samples for its p90.
pub fn run_segments(
    plan: Plan,
    mut op: impl FnMut(u64) -> Done,
    mut tail: impl FnMut(Instant) -> Result<(), String>,
) -> Result<Window, String> {
    let window_start = Instant::now() + plan.warmup;
    let mut window = Window {
        log: LoopLog::default(),
        segments: Vec::with_capacity(SEGMENTS),
        heads: Vec::with_capacity(SEGMENTS),
    };
    for k in 0..SEGMENTS {
        let segment_start = window_start + plan.segment() * k as u32;
        let head_start = if k == 0 { segment_start } else { Instant::now() };
        let head_end = segment_start + plan.head();
        let head = load::closed_loop(
            head_start,
            head_end.saturating_duration_since(head_start),
            window.log.issued,
            &mut op,
        );
        let latencies = head.samples.iter().map(|s| s.latency_ms).collect();
        let span_s = head.samples.last().map_or(0.0, |s| s.end_s);
        window.log.merge(head);
        window.segments.push(stats::segment_stats(k, latencies, span_s)?);
        window.heads.push((head_start, head_end));
        tail(segment_start + plan.segment())?;
    }
    Ok(window)
}

/// What the tails of the segments measured.
#[derive(Debug, Default)]
pub struct Tails {
    /// `evaluate_full` test triples per second, one value per segment.
    pub full_tps: Vec<f64>,
    /// Median write latency in ms, one value per segment.
    pub write_ms: Vec<f64>,
}

/// The `evaluate_full` part of a tail: passes over `slice`, one thread,
/// back to back until `until`, at least five. Returns the slice over the
/// median pass time, test triples per second.
pub fn tail_full_passes<F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    filter: &F,
    slice: &[Triple],
    until: Instant,
) -> f64 {
    let mut passes = Vec::new();
    while passes.len() < 5 || Instant::now() < until {
        let start = Instant::now();
        std::hint::black_box(evaluate_full(model, slice, filter, TieBreak::Mean, 1));
        passes.push(start.elapsed().as_secs_f64());
    }
    slice.len() as f64 / stats::median(&passes)
}

/// What a workload measures, in its tails, for an end-to-end metric that
/// is not its own traffic (the driver's contract has every workload
/// report every metric): `evaluate_full` and `LiveGraph::apply` on a small
/// graph and model of the harness's own, the same on every workload.
/// Small on purpose — 4096 × 32 DistMult (512 KiB) over 8192 known
/// triples stays in a core's L2, so the stand-in times the code and not
/// the host's shared cache and memory, which on this box swing by a fifth
/// for minutes at a time. In-process, because a lone socket round trip
/// adds three thread hand-offs whose cost swings as much.
pub struct Reference {
    model: Box<dyn KgcModel>,
    filter: Arc<FilterIndex>,
    slice: Vec<Triple>,
    batches: WriteBatches,
}

impl Reference {
    const ENTITIES: usize = 4096;
    const RELATIONS: usize = 16;
    const KNOWN_TRIPLES: usize = 8192;
    const SLICE: usize = 64;

    /// The stand-in graph, model and write stream for `seed`.
    pub fn new(seed: u64) -> Reference {
        let mut rng = SplitMix64::new(seed);
        let model =
            build_model(ModelKind::DistMult, Self::ENTITIES, Self::RELATIONS, 32, rng.next_u64());
        let mut triple = || {
            Triple::new(
                rng.below(Self::ENTITIES as u64) as u32,
                rng.below(Self::RELATIONS as u64) as u32,
                rng.below(Self::ENTITIES as u64) as u32,
            )
        };
        let known: Vec<Triple> = (0..Self::KNOWN_TRIPLES).map(|_| triple()).collect();
        let filter = Arc::new(FilterIndex::from_slices(&[&known]));
        let base = Arc::clone(&filter);
        let batches = WriteBatches::new(
            SplitMix64::new(seed ^ 0x57A7),
            move |t| base.contains(t),
            Self::ENTITIES,
            Self::RELATIONS,
            Vec::new(),
            64,
            0,
        );
        let model: Box<dyn KgcModel> = model;
        Reference { model, filter, slice: known[..Self::SLICE].to_vec(), batches }
    }

    /// `full_eval_tps` of one tail: see [`tail_full_passes`].
    pub fn full_passes(&self, until: Instant) -> f64 {
        tail_full_passes(self.model.as_ref(), self.filter.as_ref(), &self.slice, until)
    }

    /// `write_latency_p50_ms` of one tail: [`TAIL_WRITES`] fresh 64-insert
    /// deltas applied to a new `LiveGraph` over the stand-in graph, so
    /// every tail measures the same thing — an overlay growing from
    /// nothing to 4096 triples. Their median latency in ms, or the first
    /// write that was not fully effective.
    pub fn writes(&mut self) -> Result<f64, String> {
        let live = LiveGraph::new(Arc::clone(&self.filter));
        let mut latencies = Vec::with_capacity(TAIL_WRITES);
        for i in 0..TAIL_WRITES {
            let delta = GraphDelta::new(self.batches.next_batch(), Vec::new());
            let start = Instant::now();
            let inserted = live.apply(&delta).inserted;
            latencies.push(start.elapsed().as_secs_f64() * 1e3);
            if inserted != delta.insert.len() {
                return Err(format!(
                    "reference write {i}: {inserted} of {} inserts were effective",
                    delta.insert.len()
                ));
            }
        }
        Ok(stats::median(&latencies))
    }
}

/// Run values of a closed-loop window.
pub struct WindowSummary {
    /// Completed operations per second, median over segments.
    pub throughput_rps: f64,
    /// Median latency, median over segments.
    pub p50_ms: f64,
    /// p90 latency, median over segments.
    pub p90_ms: f64,
    /// p99 latency, median over segments (reported, never gated).
    pub p99_ms: f64,
    /// Median latency per operation class, whole window.
    pub class_p50_ms: Vec<f64>,
}

/// Summarise a window: medians over its segments, the class-boundary
/// check on the gated percentiles, class medians. `groups` maps each
/// class to the latency group it is expected to fall in (classes of one
/// group may interleave freely; the gated percentiles must stay clear of
/// the boundaries *between* groups).
pub fn summarise(
    window: &Window,
    class_names: &[&str],
    groups: &[u8],
) -> Result<WindowSummary, String> {
    let log = &window.log;
    let num_groups = groups.iter().copied().max().map_or(0, |g| usize::from(g) + 1);
    let shares: Vec<ClassShare> = (0..num_groups)
        .map(|g| {
            let (count, median_ms) =
                count_and_median(log, |s| usize::from(groups[usize::from(s.class)]) == g);
            let members: Vec<&str> = class_names
                .iter()
                .zip(groups)
                .filter(|(_, &cg)| usize::from(cg) == g)
                .map(|(n, _)| *n)
                .collect();
            ClassShare { name: members.join("+"), count, median_ms }
        })
        .collect();
    stats::check_class_margins(&shares, &[50.0, 90.0])?;

    let segments = &window.segments;
    Ok(WindowSummary {
        throughput_rps: stats::median_over_segments(segments, SegmentStats::rate),
        p50_ms: stats::median_over_segments(segments, |s| s.p50_ms),
        p90_ms: stats::median_over_segments(segments, |s| s.p90_ms),
        p99_ms: stats::median_over_segments(segments, |s| s.p99_ms),
        class_p50_ms: class_medians(log, class_names.len()),
    })
}

/// The `/topk` operation of the two `/topk` workloads, and what it keeps
/// for verification after the window (never inside it).
pub struct TopkLoad<'a> {
    keys: &'a KeyStream,
    /// Every 64th reply, with its key index.
    pub kept: Vec<(u64, String)>,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
}

impl<'a> TopkLoad<'a> {
    /// Requests over never-repeated keys: operation `i` asks for key `i`.
    pub fn new(keys: &'a KeyStream) -> Self {
        TopkLoad { keys, kept: Vec::new(), errors: Vec::new() }
    }

    /// Operation `i` on `client`.
    pub fn request(&mut self, client: &mut Client, i: u64) -> Done {
        let (head, relation) = self.keys.key(i);
        let body = topk_body(MODEL, head, relation);
        let (start, end, reply) = client.post("/topk", &body, i);
        match reply {
            Ok(text) => {
                if i.is_multiple_of(64) {
                    self.kept.push((i, text));
                }
                Done { start, end, class: 0, ok: true }
            }
            Err(e) => {
                if self.errors.len() < 4 {
                    self.errors.push(e);
                }
                Done { start, end, class: 0, ok: false }
            }
        }
    }
}

/// Inputs of the two `/topk` workloads: an initialised DistMult snapshot
/// on disk, the known triples every node indexes, the never-repeating
/// key stream, and the seed of the reference writes.
pub struct TopkInputs {
    _dir: WorkDir,
    /// Snapshot written by `save_model_to_path`.
    pub model_path: PathBuf,
    /// Known triples (the filter's base).
    pub base: Vec<Triple>,
    /// Query keys.
    pub keys: KeyStream,
    /// Seed of the stand-in measurements of the tails.
    pub write_seed: u64,
    /// Seconds spent generating the model and the triples.
    pub generate_s: f64,
    /// Digest of all of the above.
    pub hash: String,
}

/// Generate [`TopkInputs`] for a `entities × dim` model from `seed`.
pub fn make_topk_inputs(
    tag: &str,
    (entities, relations, dim): (usize, usize, usize),
    filter_triples: usize,
    seed: u64,
) -> Result<TopkInputs, String> {
    let dir = WorkDir::create(tag).map_err(|e| format!("work dir: {e}"))?;
    let model_path = dir.join("model.kgev");
    let mut rng = SplitMix64::new(seed);
    let ((model_saved, base), generate_s) = timed(|| {
        let model = build_model(ModelKind::DistMult, entities, relations, dim, rng.next_u64());
        let saved = save_model_to_path(model.as_ref(), ModelKind::DistMult, &model_path);
        drop(model);
        let base: Vec<Triple> = (0..filter_triples)
            .map(|_| {
                Triple::new(
                    rng.below(entities as u64) as u32,
                    rng.below(relations as u64) as u32,
                    rng.below(entities as u64) as u32,
                )
            })
            .collect();
        (saved, base)
    });
    model_saved.map_err(|e| format!("save model: {e}"))?;
    let keys = KeyStream::new(entities, relations, &mut rng);

    let mut hash = InputsHash::default();
    hash.file(&model_path).map_err(|e| format!("hash model: {e}"))?;
    hash.triples(&base);
    for i in 0..1024 {
        let (h, r) = keys.key(i);
        hash.bytes(topk_body(MODEL, h, r).as_bytes());
    }
    let write_seed = rng.next_u64();
    hash.word(write_seed);
    Ok(TopkInputs { _dir: dir, model_path, base, keys, write_seed, generate_s, hash: hash.hex() })
}

/// What the alternating windows of a traced `/topk` run produced.
pub struct TracedTopk<'a> {
    /// Log of the untraced windows.
    pub plain: LoopLog,
    /// Log of the traced windows.
    pub traced: LoopLog,
    /// Kept replies and errors of both.
    pub load: TopkLoad<'a>,
    /// Scrapes of every node before each traced window …
    pub before: Vec<Scrape>,
    /// … and after it, in the same order.
    pub after: Vec<Scrape>,
    /// Spans of the traced windows.
    pub recorder: Recorder,
    /// Total length of the traced (and of the untraced) windows.
    pub window: Duration,
    /// Environment readings around all of it.
    pub env: EnvWindow,
}

/// Alternate untraced and traced windows on `client` (the same
/// connection: a traced window differs only in that every round trip is
/// recorded), scraping `nodes` around every traced window.
pub fn traced_topk_windows<'a>(
    client: &mut Client,
    nodes: &[SocketAddr],
    keys: &'a KeyStream,
    plan: Plan,
) -> Result<TracedTopk<'a>, String> {
    let piece = plan.window.mul_f64(TRACE_PIECE_SHARE);
    let mut recorder = Some(Recorder::new(Instant::now(), 1 << 18));
    let (mut plain, mut traced) = (LoopLog::default(), LoopLog::default());
    let mut load = TopkLoad::new(keys);
    let (mut before, mut after) = (Vec::new(), Vec::new());
    let ((), env) = env::around_window(|| {
        for round in 0..TRACE_ROUNDS {
            let warmup = if round == 0 { plan.warmup } else { Duration::ZERO };
            plain.merge(load::closed_loop(Instant::now() + warmup, piece, traced.issued, |i| {
                load.request(client, i)
            }));
            before.extend(nodes.iter().map(|&a| scrape(a)));
            client.trace_into(recorder.take());
            traced.merge(load::closed_loop(Instant::now(), piece, plain.issued, |i| {
                load.request(client, i)
            }));
            recorder = client.trace_into(None);
            after.extend(nodes.iter().map(|&a| scrape(a)));
        }
    });
    Ok(TracedTopk {
        plain,
        traced,
        load,
        before: before.into_iter().collect::<Result<_, _>>()?,
        after: after.into_iter().collect::<Result<_, _>>()?,
        recorder: recorder.expect("the recorder comes back after every traced window"),
        window: piece * TRACE_ROUNDS,
        env,
    })
}

/// The answer `ScoringEngine::top_k` builds in-process for key
/// `(head, relation)` against `known` — what a `/topk` reply must equal.
pub fn expected_topk(
    engine: &ScoringEngine,
    graph: &LiveFilterIndex,
    head: u32,
    relation: u32,
) -> Vec<(u32, f32)> {
    let triple = Triple::new(head, relation, 0);
    let known = graph.known_answers(triple, QuerySide::Tail);
    engine.top_k(triple, QuerySide::Tail, &known, 10)
}

/// Summary of a traced run's short windows: no segment rules, just the
/// whole window.
pub struct LooseSummary {
    /// Completed operations per second over the window.
    pub throughput_rps: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// p90 latency, ms.
    pub p90_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Median latency per operation class, ms (0 for an absent class).
    pub class_p50_ms: Vec<f64>,
}

/// Summarise a short window without the segment rules.
pub fn loose_summary(
    log: &LoopLog,
    window: Duration,
    classes: usize,
) -> Result<LooseSummary, String> {
    if log.samples.is_empty() {
        return Err("the window completed no operation".into());
    }
    let mut all: Vec<f64> = log.samples.iter().map(|s| s.latency_ms).collect();
    all.sort_by(f64::total_cmp);
    Ok(LooseSummary {
        throughput_rps: log.samples.len() as f64 / window.as_secs_f64(),
        p50_ms: stats::percentile_sorted(&all, 50.0),
        p90_ms: stats::percentile_sorted(&all, 90.0),
        p99_ms: stats::percentile_sorted(&all, 99.0),
        class_p50_ms: class_medians(log, classes),
    })
}

/// Scrape `GET /metrics` of one node.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    match client::get(addr, "/metrics") {
        Ok((200, text)) => Ok(Scrape::parse(&text)),
        Ok((status, _)) => Err(format!("GET /metrics on {addr}: status {status}")),
        Err(e) => Err(format!("GET /metrics on {addr}: {e}")),
    }
}

/// The scrape-derived rows: counter growth over the traced window, summed
/// over the nodes that execute requests (`before[i]` and `after[i]` are
/// the same node).
pub fn scrape_layers(layers: &mut Layers, before: &[Scrape], after: &[Scrape]) {
    let sum = |f: &dyn Fn(&Scrape, &Scrape) -> f64| -> f64 {
        before.iter().zip(after).map(|(b, a)| f(b, a)).sum()
    };
    let counter = |series: &'static str| sum(&|b, a| scrape::delta(b, a, series));
    let family = |name: &'static str| sum(&|b, a| scrape::family_delta(b, a, name));

    let requests = family("kg_serve_requests_total");
    layers.insert(
        "serve.reactor.wakeups_per_request",
        scrape::ratio(counter("kg_serve_reactor_wakeups_total"), requests),
    );
    let ready: Vec<f64> =
        after.iter().map(|a| a.get("kg_serve_reactor_ready_events{quantile=\"0.5\"}")).collect();
    layers.insert(
        "serve.reactor.ready_events_per_wakeup",
        ready.iter().sum::<f64>() / ready.len().max(1) as f64,
    );
    layers.insert("serve.errors_total", family("kg_serve_request_errors_total"));
    layers.insert(
        "serve.batch.score_jobs_per_batch",
        scrape::ratio(
            counter("kg_serve_score_batch_jobs_total"),
            counter("kg_serve_score_batches_total"),
        ),
    );
    layers.insert(
        "serve.batch.topk_jobs_per_batch",
        scrape::ratio(
            counter("kg_serve_topk_batch_jobs_total"),
            counter("kg_serve_topk_batches_total"),
        ),
    );
    let (hits, misses) =
        (counter("kg_serve_topk_cache_hits_total"), counter("kg_serve_topk_cache_misses_total"));
    layers.insert("serve.cache.topk_hit_ratio", scrape::ratio(hits, hits + misses));
    let (hits, misses) =
        (counter("kg_serve_eval_cache_hits_total"), counter("kg_serve_eval_cache_misses_total"));
    layers.insert("serve.cache.eval_hit_ratio", scrape::ratio(hits, hits + misses));
}

/// The load-generator rows of a traced window: sample count, p90, p99.
pub fn load_layers(layers: &mut Layers, summary: &LooseSummary, samples: usize) {
    layers.insert("load.samples", samples as f64);
    layers.insert("load.latency_p90_ms", summary.p90_ms);
    layers.insert("load.latency_p99_ms", summary.p99_ms);
}

/// When the traced windows end: write the spans out
/// (`perf/.work/trace-<workload>.jsonl`) and print where they say the
/// time went — per span name, how many, the median duration, and the
/// share of all recorded time that is the span's own (its duration minus
/// what its children cover).
pub fn finish_spans(outcome: &mut Outcome, workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = crate::inputs::work_root().join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&path, spans).map_err(|e| format!("write spans: {e}"))?;
    let totals = trace::totals_by_name(spans);
    let all_self: u64 = totals.values().map(|t| t.2).sum();
    for (name, (count, _, own)) in totals {
        outcome.fact(
            &format!("span {name}"),
            format!(
                "n={count} median={:.4} ms self={:.1} %",
                trace::median_duration_ms(spans, name),
                100.0 * own as f64 / all_self.max(1) as f64
            ),
        );
    }
    Ok(())
}

/// Report whether the replayed self times add up to the traced median
/// latency (within 15 %).
pub fn trace_consistency(outcome: &mut Outcome, self_sum_ms: f64, traced_p50_ms: f64) {
    let consistent = (self_sum_ms - traced_p50_ms).abs() <= 0.15 * traced_p50_ms;
    outcome.fact(
        "trace",
        format!(
            "self times sum to {self_sum_ms:.3} ms against a traced latency_p50_ms of {traced_p50_ms:.3} ms ({})",
            if consistent { "consistent" } else { "INCONSISTENT" }
        ),
    );
}

/// `(inserted, version)` of a `/triples` reply.
pub fn parse_write_reply(reply: &str) -> Option<(usize, u64)> {
    let json = Json::parse(reply).ok()?;
    Some((json.get("inserted")?.as_usize()?, json.get("version")?.as_u64()?))
}

/// Entities and scores of the single result of a `/topk` reply.
pub fn parse_topk_reply(reply: &str) -> Option<(Vec<u32>, Vec<f64>)> {
    let json = Json::parse(reply).ok()?;
    let result = json.get("results")?.as_array()?.first()?;
    let entities = result
        .get("entities")?
        .as_array()?
        .iter()
        .map(|e| e.as_u64().map(|e| e as u32))
        .collect::<Option<_>>()?;
    let scores =
        result.get("scores")?.as_array()?.iter().map(Json::as_f64).collect::<Option<_>>()?;
    Some((entities, scores))
}

/// Whether a `/topk` reply carries exactly the `(entity, score)` list the
/// engine computed in-process.
pub fn topk_reply_matches(reply: &str, expected: &[(u32, f32)]) -> bool {
    parse_topk_reply(reply).is_some_and(|(entities, scores)| {
        entities.len() == expected.len()
            && entities.iter().zip(&scores).zip(expected).all(|((&e, &s), &(xe, xs))| {
                // The wire carries the f32 widened to f64, shortest
                // round-trip decimal: equality is exact.
                e == xe && s == f64::from(xs)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scales_the_warmup_down_for_short_windows() {
        assert_eq!(Plan::new(30.0).warmup, Duration::from_secs(2));
        assert_eq!(Plan::new(20.0).warmup, Duration::from_secs(2));
        assert_eq!(Plan::new(4.0).warmup, Duration::from_secs_f64(0.4));
    }

    #[test]
    fn setup_cycles_discard_the_first_and_tear_down_between() {
        use std::cell::Cell;
        let (live, peak, torn) = (Cell::new(0i32), Cell::new(0i32), Cell::new(0));
        let (state, secs) = setup_cycles(
            false,
            6,
            || {
                live.set(live.get() + 1);
                peak.set(peak.get().max(live.get()));
                Ok(live.get())
            },
            |_| {
                live.set(live.get() - 1);
                torn.set(torn.get() + 1);
            },
        )
        .unwrap();
        assert_eq!((state, peak.get(), torn.get()), (1, 1, 5), "never two set-ups alive at once");
        assert!(secs < 0.01);
        let (_, _) =
            setup_cycles(true, 4, || Ok(()), |_| panic!("a traced run sets up once")).unwrap();
    }

    #[test]
    fn topk_reply_comparison_is_exact() {
        let reply = r#"{"model":"m","k":2,"filtered":true,"shards":1,"results":[{"entities":[7,2],"scores":[0.5,0.25]}]}"#;
        assert!(topk_reply_matches(reply, &[(7, 0.5), (2, 0.25)]));
        assert!(!topk_reply_matches(reply, &[(7, 0.5), (3, 0.25)]));
        assert!(!topk_reply_matches(reply, &[(7, 0.5)]));
        assert!(!topk_reply_matches(reply, &[(7, 0.5), (2, 0.250_000_03)]));
        assert!(!topk_reply_matches("{}", &[]));
    }

    #[test]
    fn mixed_window_summary_checks_group_boundaries() {
        // 30 % fast, 45 % mid, 25 % slow (two classes share the slow
        // group), 1000 operations a second in every head.
        let mut window = Window { log: LoopLog::default(), segments: vec![], heads: vec![] };
        for k in 0..SEGMENTS {
            let mut latencies = Vec::new();
            for i in 0..1000u32 {
                let (class, latency) = match i % 20 {
                    0..=5 => (0, 0.1),
                    6..=14 => (1, 0.4),
                    15..=18 => (2, 1.5),
                    _ => (3, 1.8),
                };
                let end_s = f64::from(i + 1) * 0.001;
                window.log.samples.push(Sample { end_s, latency_ms: latency, class });
                latencies.push(latency);
            }
            window.segments.push(stats::segment_stats(k, latencies, 1.0).unwrap());
        }
        let names = ["hit", "score", "miss", "eval"];
        let s = summarise(&window, &names, &[0, 1, 2, 2]).unwrap();
        assert_eq!((s.p50_ms, s.p90_ms), (0.4, 1.5));
        assert!((s.throughput_rps - 1000.0).abs() < 1e-6);
        assert_eq!(s.class_p50_ms, vec![0.1, 0.4, 1.5, 1.8]);
        // Were eval its own group, its boundary at 95 % would sit 5
        // points from p90.
        let err = summarise(&window, &names, &[0, 1, 2, 3]).err().unwrap();
        assert!(err.contains("p90"), "{err}");
    }

    #[test]
    fn segments_are_heads_then_tails_and_rates_ignore_the_tails() {
        // 10 ms segments whose heads run ~0.05 ms operations, each tail
        // "working" until its segment ends.
        let plan = Plan {
            warmup: Duration::from_millis(5),
            window: Duration::from_millis(10) * SEGMENTS as u32,
        };
        let mut tails = Vec::new();
        let window = run_segments(
            plan,
            |_| {
                let start = Instant::now();
                while start.elapsed() < Duration::from_micros(50) {
                    std::hint::spin_loop();
                }
                Done { start, end: Instant::now(), class: 0, ok: true }
            },
            |until| {
                tails.push(Instant::now());
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(
            (window.segments.len(), window.heads.len(), tails.len()),
            (SEGMENTS, SEGMENTS, SEGMENTS)
        );
        for (k, ((start, end), tail)) in window.heads.iter().zip(&tails).enumerate() {
            assert!(start < end && end <= tail, "head {k} ends before its tail begins");
            // The rate is over the head alone, so ~0.05 ms operations run
            // at well over 10 000 a second.
            let seg = &window.segments[k];
            assert!(seg.span_s <= plan.head().as_secs_f64() + 1e-4, "segment {k}: {}", seg.span_s);
            assert!(seg.rate() > 10_000.0, "segment {k} rate {}", seg.rate());
        }
        let total: usize = window.segments.iter().map(|s| s.count).sum();
        assert_eq!(total, window.log.samples.len());
        assert!(window.log.issued > total as u64, "warm-up operations are not samples");
    }

    #[test]
    fn a_thin_head_fails_the_run() {
        let plan = Plan { warmup: Duration::ZERO, window: Duration::from_millis(60) };
        let slow = |_| {
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            Done { start, end: Instant::now(), class: 0, ok: true }
        };
        let err = run_segments(plan, slow, |_| Ok(())).err().unwrap();
        assert!(err.contains("segment 0") && err.contains("beyond p90"), "{err}");
    }

    #[test]
    fn the_reference_measures_both_stand_ins_and_repeats_for_a_seed() {
        let mut reference = Reference::new(9);
        assert!(reference.writes().unwrap() > 0.0);
        assert!(reference.writes().unwrap() > 0.0, "a second tail starts from a fresh graph");
        let tps = reference.full_passes(Instant::now());
        assert!(tps > 0.0 && tps.is_finite());
        assert_eq!(Reference::new(9).slice, reference.slice);
        assert_ne!(Reference::new(10).slice, reference.slice);
    }
}
