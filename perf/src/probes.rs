//! Per-layer probes: a timed loop over one public call with the
//! workload's own inputs, reported as the median of the repetitions.
//! Nothing inside the program is instrumented — every layer is timed from
//! outside, at its public boundary.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use kgeval::core::parallel::parallel_map_with;
use kgeval::core::partial::{merge_all, PartialTopK};
use kgeval::core::sample::seeded_rng;
use kgeval::core::triple::QuerySide;
use kgeval::core::{EntityId, FilterIndex, GraphDelta, LiveGraph, Triple};
use kgeval::models::kernels::{combine_rows, Combine};
use kgeval::models::{EmbeddingTable, ScoringEngine};
use kgeval::serve::{client, Json, Router};

use crate::inputs::{SplitMix64, WriteBatches};
use crate::stats;
use crate::workloads::Layers;

/// Repetitions a probe aims for …
pub const PROBE_REPS: usize = 30;
/// … unless they would take longer than this (then at least three).
pub const PROBE_BUDGET: Duration = Duration::from_millis(600);

/// Median seconds of `f`. The first call warms caches and pools and is
/// discarded — unless it alone takes a third of the budget, in which case
/// the probe is a slow one (a filter build, a snapshot load) and the call
/// is kept as one of its three repetitions.
pub fn median_secs(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    let first = started.elapsed();
    let mut reps = Vec::with_capacity(PROBE_REPS);
    if first > PROBE_BUDGET / 3 {
        reps.push(first.as_secs_f64());
    }
    let started = Instant::now();
    while reps.len() < 3 || (reps.len() < PROBE_REPS && started.elapsed() < PROBE_BUDGET) {
        let start = Instant::now();
        f();
        reps.push(start.elapsed().as_secs_f64());
    }
    stats::median(&reps)
}

/// Median seconds of each of `boundaries`, measured round-robin: one call
/// of each per round, so a drift of the box during the replay moves every
/// boundary alike instead of whichever happened to be measured then. A
/// boundary that times itself returns its own seconds; the others are
/// timed around the call. One untimed round first; then up to
/// [`PROBE_REPS`] rounds within four times the probe budget (at least
/// five).
pub fn interleaved_median_secs(boundaries: &mut [&mut dyn FnMut() -> Option<f64>]) -> Vec<f64> {
    for f in boundaries.iter_mut() {
        f();
    }
    let mut reps: Vec<Vec<f64>> = vec![Vec::with_capacity(PROBE_REPS); boundaries.len()];
    let started = Instant::now();
    while reps[0].len() < 5 || (reps[0].len() < PROBE_REPS && started.elapsed() < 4 * PROBE_BUDGET)
    {
        for (f, reps) in boundaries.iter_mut().zip(&mut reps) {
            let start = Instant::now();
            let own = f();
            reps.push(own.unwrap_or_else(|| start.elapsed().as_secs_f64()));
        }
    }
    reps.iter().map(|r| stats::median(r)).collect()
}

/// Median seconds of one call of `f` when a single call is too short to
/// time: each repetition times `batch` calls.
pub fn median_secs_batched(batch: usize, mut f: impl FnMut()) -> f64 {
    median_secs(|| (0..batch).for_each(|_| f())) / batch as f64
}

/// `core.parallel.team_spawn_us`: what it costs to fan two empty items
/// out over a two-thread team and join it.
pub fn team_spawn_us() -> f64 {
    median_secs_batched(16, || {
        std::hint::black_box(parallel_map_with(2, 2, || (), |_, i| i));
    }) * 1e6
}

/// `core.topk.merge_us` and `core.partial.codec_us`.
pub fn partial_probes(layers: &mut Layers, rng: &mut SplitMix64) {
    let partials: Vec<PartialTopK> = (0..16)
        .map(|_| {
            let entries =
                (0..10).map(|_| (rng.below(1 << 20) as u32, rng.below(1 << 16) as f32 / 65_536.0));
            PartialTopK::from_entries(10, entries.collect())
        })
        .collect();
    let merge = median_secs_batched(64, || {
        let mut it = partials.iter().cloned();
        let first = it.next().expect("sixteen partials");
        std::hint::black_box(merge_all(first, it));
    });
    layers.insert("core.topk.merge_us", merge * 1e6);
    let codec = median_secs_batched(64, || {
        let wire = partials[0].encode();
        std::hint::black_box(PartialTopK::decode(&wire).expect("round trip"));
    });
    layers.insert("core.partial.codec_us", codec * 1e6);
}

/// `core.filter.build_s`.
pub fn filter_build_s(base: &[Triple]) -> f64 {
    median_secs(|| {
        std::hint::black_box(FilterIndex::from_slices(&[base]));
    })
}

/// `core.live.apply_us` and `core.live.known_answers_ns`, on a live graph
/// in its end-of-run state. The applies are real (each batch is fresh),
/// so call this after everything that reads `live`.
pub fn live_probes(
    layers: &mut Layers,
    live: &LiveGraph,
    batches: &mut WriteBatches,
    hot: &[(u32, u32)],
) {
    let apply = median_secs(|| {
        let delta = GraphDelta::new(batches.next_batch(), Vec::new());
        std::hint::black_box(live.apply(&delta));
    });
    layers.insert("core.live.apply_us", apply * 1e6);
    let snapshot = live.snapshot();
    let known = median_secs(|| {
        for &(h, r) in hot {
            std::hint::black_box(snapshot.known_answers(Triple::new(h, r, 0), QuerySide::Tail));
        }
    });
    layers.insert("core.live.known_answers_ns", known * 1e9 / hot.len().max(1) as f64);
}

/// `combine_rows` over a `rows × dim` table split across `threads` scoped
/// threads — the kernel boundary of the trace replay: the rows one
/// operation scores, on as many threads as the engine call above it
/// uses, so the threads share memory bandwidth the way they do inside a
/// request.
pub struct KernelTeam {
    table: EmbeddingTable,
    q: Vec<f32>,
    out: Vec<f32>,
    dim: usize,
    threads: usize,
}

impl KernelTeam {
    /// A table of the given shape, filled from a fixed seed.
    pub fn new(rows: usize, dim: usize, threads: usize) -> KernelTeam {
        let mut rng = seeded_rng(11);
        KernelTeam {
            table: EmbeddingTable::uniform(rows, dim, 0.5, &mut rng),
            q: (0..dim).map(|k| ((k as f32) * 0.37).sin()).collect(),
            out: vec![0.0f32; rows],
            dim,
            threads: threads.max(1),
        }
    }

    /// One pass over the whole table. Returns the seconds the slowest
    /// thread spent inside `combine_rows` — the kernel alone, without
    /// the cost of spawning and joining the team, which belongs to the
    /// engine above it.
    pub fn pass(&mut self) -> f64 {
        let (q, dim) = (&self.q, self.dim);
        let timed = |rows: &[f32], out: &mut [f32]| {
            let start = Instant::now();
            combine_rows(Combine::Dot, q, rows, dim, out);
            start.elapsed().as_secs_f64()
        };
        let secs = if self.threads == 1 {
            timed(self.table.as_slice(), &mut self.out)
        } else {
            let share = self.out.len().div_ceil(self.threads).max(1);
            std::thread::scope(|scope| {
                let team: Vec<_> = self
                    .table
                    .as_slice()
                    .chunks(share * dim)
                    .zip(self.out.chunks_mut(share))
                    .map(|(rows, out)| scope.spawn(move || timed(rows, out)))
                    .collect();
                team.into_iter().map(|t| t.join().expect("kernel thread")).fold(0.0, f64::max)
            })
        };
        std::hint::black_box(&self.out);
        secs
    }
}

/// Median seconds of one single-threaded `combine_rows` pass over a
/// `rows × dim` table.
pub fn combine_rows_stream_s(rows: usize, dim: usize) -> f64 {
    let mut team = KernelTeam::new(rows, dim, 1);
    // A pass over a small table is too short to time alone.
    let batch = (4_000_000 / (rows * dim).max(1)).max(1);
    median_secs_batched(batch, || {
        team.pass();
    })
}

/// The three memory-path probes: `combine_rows` streaming a table of the
/// model's shape, `combine_rows` over an L2-resident tile, and a
/// STREAM-style sum over 256 MB as the reference. Bytes are **computed**
/// from the table sizes, not measured. Returns the streaming pass time in
/// seconds.
pub fn kernel_probes(layers: &mut Layers, rows: usize, dim: usize) -> f64 {
    let stream_s = combine_rows_stream_s(rows, dim);
    layers.insert(
        "models.kernels.combine_rows_stream_gbps",
        (rows * dim * 4) as f64 / stream_s / 1e9,
    );

    // 8192 rows x 32 dims x 4 B = 1 MiB: L2-resident.
    let hot_s = combine_rows_stream_s(8_192.min(rows), dim);
    layers.insert(
        "models.kernels.combine_rows_hot_gbps",
        (8_192.min(rows) * dim * 4) as f64 / hot_s / 1e9,
    );

    let words = vec![1u64; 32 << 20]; // 256 MB
    let sum_s = median_secs(|| {
        std::hint::black_box(words.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    });
    layers.insert("models.membw_probe_gbps", (words.len() * 8) as f64 / sum_s / 1e9);
    stream_s
}

/// `models.engine.top_k_ms` (two threads), `.t1` (one thread) and
/// `top_k_bw_frac`, over fresh keys. Returns `(t2_s, t1_s)`.
pub fn top_k_probes(
    layers: &mut Layers,
    engine: &ScoringEngine,
    dim: usize,
    mut next_query: impl FnMut() -> (Triple, Vec<EntityId>),
) -> (f64, f64) {
    let mut time = |threads: usize| {
        median_secs(|| {
            let (triple, known) = next_query();
            std::hint::black_box(engine.top_k_fanout(triple, QuerySide::Tail, &known, 10, threads));
        })
    };
    let (t2, t1) = (time(2), time(1));
    layers.insert("models.engine.top_k_ms", t2 * 1e3);
    layers.insert("models.engine.top_k_ms.t1", t1 * 1e3);
    if let Some(&membw) = layers.get("models.membw_probe_gbps") {
        // Against the one-thread pass: the path `serve_topk_1m` measures.
        let gbps = (engine.num_entities() * dim * 4) as f64 / t1 / 1e9;
        layers.insert("models.engine.top_k_bw_frac", gbps / membw);
    }
    (t2, t1)
}

/// `models.engine.rank_counts_ms`.
pub fn rank_counts_ms(engine: &ScoringEngine, filter: &FilterIndex, triples: &[Triple]) -> f64 {
    let mut i = 0usize;
    median_secs(|| {
        let t = triples[i % triples.len()];
        i += 1;
        let known = filter.known_answers(t, QuerySide::Tail);
        std::hint::black_box(engine.rank_counts(t, QuerySide::Tail, known));
    }) * 1e3
}

/// `serve.json.parse_us.*` for one body.
pub fn json_parse_us(body: &str) -> f64 {
    median_secs_batched(16, || {
        std::hint::black_box(Json::parse(body).expect("the workload's own body parses"));
    }) * 1e6
}

/// `serve.router.handle_us.*`: in-process `Router::handle`, no socket,
/// bodies drawn from `next_body`. Fails on a non-200.
pub fn router_handle_us(
    router: &Router,
    path: &str,
    mut next_body: impl FnMut() -> String,
) -> Result<f64, String> {
    let mut failure = None;
    let secs = median_secs(|| {
        let body = next_body();
        let response = router.handle("POST", path, &body);
        if response.status != 200 {
            failure = Some(format!("{path} probe: status {}: {}", response.status, response.body));
        }
    });
    match failure {
        Some(f) => Err(f),
        None => Ok(secs * 1e6),
    }
}

/// `serve.transport_us` and `serve.client.connect_us` against `addr`.
pub fn transport_probes(layers: &mut Layers, addr: SocketAddr) -> Result<(), String> {
    let e = |e: std::io::Error| format!("transport probe {addr}: {e}");
    let mut conn = client::Connection::open(addr).map_err(e)?;
    let mut failure = None;
    let rtt = median_secs(|| {
        if let Err(err) = conn.get("/healthz") {
            failure = Some(e(err));
        }
    });
    if let Some(f) = failure {
        return Err(f);
    }
    layers.insert("serve.transport_us", rtt * 1e6);
    let connect =
        median_secs(|| match client::Connection::open(addr).and_then(|mut c| c.get("/healthz")) {
            Ok(_) => {}
            Err(err) => failure = Some(e(err)),
        });
    if let Some(f) = failure {
        return Err(f);
    }
    layers.insert("serve.client.connect_us", connect * 1e6);
    Ok(())
}

/// A keep-alive connection for the socket boundary of the replay: posts
/// and remembers the first failure instead of panicking mid-measurement.
pub struct ReplaySocket {
    conn: client::Connection,
    path: &'static str,
    /// The first non-200 or I/O error, if any.
    pub failure: Option<String>,
}

impl ReplaySocket {
    /// Connect to `addr` for `POST path`.
    pub fn open(addr: SocketAddr, path: &'static str) -> Result<ReplaySocket, String> {
        let conn = client::Connection::open(addr).map_err(|e| format!("replay {addr}: {e}"))?;
        Ok(ReplaySocket { conn, path, failure: None })
    }

    /// One round trip.
    pub fn post(&mut self, body: &str) {
        match self.conn.post_json(self.path, body) {
            Ok((200, _)) => {}
            Ok((status, reply)) => {
                self.failure
                    .get_or_insert(format!("replay {}: status {status}: {reply}", self.path));
            }
            Err(e) => {
                self.failure.get_or_insert(format!("replay {}: {e}", self.path));
            }
        }
    }
}
