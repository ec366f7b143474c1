//! `serve_live_mixed`: one server at its defaults, a ~100k × 32 model
//! registered **with** recommender artifacts, a closed-loop reader and an
//! open-loop writer.
//!
//! The reader repeats a fixed mix by count: 45 % `/score` (16 triples),
//! 30 % `/topk` on a 512-key hot set (cache hits), 20 % `/topk` on cold
//! keys (misses), 5 % `/eval` (64 triples, static, n_s = 200, 32 rotating
//! slices). The writer posts 64 inserts to `/triples` every 50 ms on a
//! fixed schedule, two of them on hot-set keys, and times each write from
//! when it was *due*. Same engine, used differently: writes beside reads,
//! hits beside misses, key-granular invalidation doing real work.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgeval::core::timing::timed;
use kgeval::core::triple::QuerySide;
use kgeval::core::{FilterIndex, Triple};
use kgeval::datasets::loader::{load_dir, save_dir};
use kgeval::datasets::{generate, preset, PresetId, Scale};
use kgeval::models::io::{load_model_from_path, save_model_to_path};
use kgeval::models::{build_model, KgcModel, ModelKind};
use kgeval::recommend::{CandidateSets, Lwd, RelationRecommender, SamplingStrategy, SeenSets};
use kgeval::serve::{
    client, ModelEntry, ModelRegistry, RegistryConfig, Router, SampleKey, ServerConfig,
    ServerHandle, TopKQuery,
};

use super::{
    describe_server, expected_topk, finish_spans, load_layers, loose_summary, parse_write_reply,
    run_segments, scrape, scrape_layers, server_config, setup_cycles, start_server, summarise,
    topk_reply_matches, trace_consistency, Client, EndToEndValues, Outcome, Plan, Reference,
    RunOpts, Tails, Window, MODEL, TRACE_PIECE_SHARE, TRACE_ROUNDS,
};
use crate::env;
use crate::inputs::{
    eval_body, score_body, topk_body, triples_body, FreshKeys, InputsHash, KeyStream, SplitMix64,
    WorkDir, WriteBatches,
};
use crate::load::{self, Done, LoopLog, RealClock, Scheduled};
use crate::probes;
use crate::stats;
use crate::trace::Recorder;

/// Set-up cycles: a cycle takes over a second here, so four.
const SETUP_CYCLES: usize = 4;

const ENTITIES: usize = 100_000;
const RELATIONS: usize = 24;
const TRIPLES: usize = 400_000;
const DIM: usize = 32;
const HOT_KEYS: usize = 512;
const SCORE_TRIPLES: usize = 16;
const EVAL_TRIPLES: usize = 64;
const EVAL_SLICES: usize = 32;
const EVAL_N_S: usize = 200;
const WRITE_PERIOD: Duration = Duration::from_millis(50);
const WRITE_BATCH: usize = 64;
/// Inserts of every write that land on hot-set keys.
const HOT_PER_WRITE: usize = 2;
/// Hot keys whose answers are compared with a cold-loaded server.
const VERIFIED_HOT_KEYS: usize = 64;

/// Operation classes of the reader, and the latency group each is
/// expected in: hits (fast), `/score` (pays the batch window), and
/// misses with `/eval` (a ranking pass).
const CLASSES: [&str; 4] = ["score", "topk_hit", "topk_miss", "eval"];
const GROUPS: [u8; 4] = [1, 0, 2, 2];
const SCORE: u8 = 0;
const HIT: u8 = 1;
const MISS: u8 = 2;
const EVAL: u8 = 3;
/// The repeating mix: 9 score, 6 hit, 4 miss, 1 eval in every 20.
const MIX: [u8; 20] = [
    SCORE, HIT, SCORE, MISS, SCORE, HIT, SCORE, HIT, SCORE, MISS, SCORE, HIT, EVAL, SCORE, HIT,
    MISS, SCORE, HIT, SCORE, MISS,
];

struct Inputs {
    _dir: WorkDir,
    dataset_dir: PathBuf,
    model_path: PathBuf,
    /// Every triple of the dataset as set-up loads it.
    base: Vec<Triple>,
    num_entities: usize,
    num_relations: usize,
    hot: Vec<(u32, u32)>,
    hot_bodies: Vec<String>,
    score_bodies: Vec<String>,
    eval_bodies: Vec<String>,
    cold: KeyStream,
    write_seed: u64,
    generate_s: f64,
    hash: String,
}

fn make_inputs(seed: u64) -> Result<Inputs, String> {
    let dir = WorkDir::create("serve_live_mixed").map_err(|e| format!("work dir: {e}"))?;
    let dataset_dir = dir.join("dataset");
    let model_path = dir.join("model.kgev");
    let mut rng = SplitMix64::new(seed);

    let mut config = preset(PresetId::CodexL, Scale::Paper);
    config.num_entities = ENTITIES;
    config.num_relations = RELATIONS;
    config.num_types = 40;
    config.num_triples = TRIPLES;
    config.seed = rng.next_u64();
    let (generated, generate_s) = timed(|| generate(&config));
    save_dir(&generated, &dataset_dir).map_err(|e| format!("save dataset: {e}"))?;
    drop(generated);
    // Ids are interned on load: everything below speaks the loaded ids.
    let dataset =
        load_dir(&dataset_dir, "serve_live_mixed").map_err(|e| format!("load dataset: {e}"))?;
    let (num_entities, num_relations) = (dataset.num_entities(), dataset.num_relations());
    let model = build_model(ModelKind::DistMult, num_entities, num_relations, DIM, rng.next_u64());
    save_model_to_path(model.as_ref(), ModelKind::DistMult, &model_path)
        .map_err(|e| format!("save model: {e}"))?;

    let train = dataset.train.triples();
    let mut hot: Vec<(u32, u32)> = Vec::with_capacity(HOT_KEYS);
    for t in train {
        let key = (t.head.0, t.relation.0);
        if !hot.contains(&key) {
            hot.push(key);
            if hot.len() == HOT_KEYS {
                break;
            }
        }
    }
    if hot.len() < HOT_KEYS || dataset.test.len() < EVAL_SLICES * EVAL_TRIPLES {
        return Err("the generated dataset is too small for the hot set or the eval slices".into());
    }
    let hot_bodies = hot.iter().map(|&(h, r)| topk_body(MODEL, h, r)).collect();
    let score_bodies = (0..64)
        .map(|_| {
            let at = rng.below((train.len() - SCORE_TRIPLES) as u64) as usize;
            score_body(MODEL, &train[at..at + SCORE_TRIPLES])
        })
        .collect();
    let eval_bodies = dataset
        .test
        .chunks_exact(EVAL_TRIPLES)
        .take(EVAL_SLICES)
        .map(|slice| eval_body(MODEL, slice, EVAL_N_S, 7))
        .collect();
    let cold = KeyStream::new(num_entities, num_relations, &mut rng);
    let mut base = Vec::with_capacity(dataset.filter.len());
    dataset.filter.for_each_triple(|t| base.push(t));

    let mut hash = InputsHash::default();
    for file in ["train.tsv", "valid.tsv", "test.tsv"] {
        hash.file(&dataset_dir.join(file)).map_err(|e| format!("hash {file}: {e}"))?;
    }
    hash.file(&model_path).map_err(|e| format!("hash model: {e}"))?;
    let bodies: [&Vec<String>; 3] = [&hot_bodies, &score_bodies, &eval_bodies];
    for body in bodies.into_iter().flatten() {
        hash.bytes(body.as_bytes());
    }
    for i in 0..256 {
        let (h, r) = cold.key(i);
        hash.bytes(topk_body(MODEL, h, r).as_bytes());
    }
    let write_seed = rng.next_u64();
    hash.word(write_seed);
    Ok(Inputs {
        _dir: dir,
        dataset_dir,
        model_path,
        base,
        num_entities,
        num_relations,
        hot,
        hot_bodies,
        score_bodies,
        eval_bodies,
        cold,
        write_seed,
        generate_s,
        hash: hash.hex(),
    })
}

struct Node {
    registry: Arc<ModelRegistry>,
    entry: Arc<ModelEntry>,
    model: Arc<dyn KgcModel>,
    server: ServerHandle,
    client: Client,
    fit_s: f64,
    static_sets_s: f64,
}

/// One set-up cycle: dataset and snapshot from disk, L-WD fit, static
/// sets, registration with artifacts, bind, connect, the hot set warmed
/// into the cache, and the first answer checked against the engine.
fn set_up(inputs: &Inputs) -> Result<Node, String> {
    let mut dataset = load_dir(&inputs.dataset_dir, "serve_live_mixed")
        .map_err(|e| format!("load dataset: {e}"))?;
    let model = load_model_from_path(&inputs.model_path).map_err(|e| format!("load model: {e}"))?;
    let model: Arc<dyn KgcModel> = Arc::from(model as Box<dyn KgcModel>);
    let (matrix, fit_s) = timed(|| Lwd::untyped().fit(&dataset));
    let (sets, static_sets_s) =
        timed(|| CandidateSets::static_sets(&matrix, &SeenSets::from_store(&dataset.train)));
    let filter = Arc::new(std::mem::replace(&mut dataset.filter, FilterIndex::new()));
    drop(dataset);

    let registry = Arc::new(ModelRegistry::new());
    let entry = registry.register_with_artifacts(
        MODEL,
        Arc::clone(&model),
        filter,
        Some(Arc::new(matrix)),
        Some(Arc::new(sets)),
    );
    let server = start_server(Router::new(Arc::clone(&registry)), None)?;
    let mut client = Client::open(server.addr())?;
    for (i, body) in inputs.hot_bodies.iter().enumerate() {
        let (_, _, reply) = client.post("/topk", body, 0);
        let reply = reply?;
        if i == 0 {
            let (head, relation) = inputs.hot[0];
            let expected = expected_topk(entry.engine(), &entry.live().snapshot(), head, relation);
            if !topk_reply_matches(&reply, &expected) {
                return Err("set-up: the first /topk answer differs from the engine's".into());
            }
        }
    }
    Ok(Node { registry, entry, model, server, client, fit_s, static_sets_s })
}

fn tear_down(node: Node) {
    drop(node.client);
    node.server.shutdown();
}

fn write_batches(inputs: &Inputs, filter: Arc<FilterIndex>) -> WriteBatches {
    WriteBatches::new(
        SplitMix64::new(inputs.write_seed),
        move |t| filter.contains(t),
        inputs.num_entities,
        inputs.num_relations,
        inputs.hot.clone(),
        WRITE_BATCH,
        HOT_PER_WRITE,
    )
}

/// The reader's request number `i`: which class, which path, which body.
fn reader_request(inputs: &Inputs, i: u64) -> (u8, &'static str, String) {
    let round = i / MIX.len() as u64;
    let class = MIX[(i % MIX.len() as u64) as usize];
    // How many requests of this class came before request `i`.
    let per_round = MIX.iter().filter(|&&c| c == class).count() as u64;
    let earlier =
        MIX[..(i % MIX.len() as u64) as usize].iter().filter(|&&c| c == class).count() as u64;
    let n = round * per_round + earlier;
    match class {
        SCORE => (
            class,
            "/score",
            inputs.score_bodies[(n % inputs.score_bodies.len() as u64) as usize].clone(),
        ),
        HIT => (class, "/topk", inputs.hot_bodies[(n % HOT_KEYS as u64) as usize].clone()),
        MISS => {
            let (h, r) = inputs.cold.key(n);
            (class, "/topk", topk_body(MODEL, h, r))
        }
        _ => (class, "/eval", inputs.eval_bodies[(n % EVAL_SLICES as u64) as usize].clone()),
    }
}

/// The reader's operations and the failures they met.
struct Reader<'a> {
    inputs: &'a Inputs,
    errors: Vec<String>,
}

impl Reader<'_> {
    fn request(&mut self, client: &mut Client, i: u64) -> Done {
        let (class, path, body) = reader_request(self.inputs, i);
        let (start, end, reply) = client.post(path, &body, i);
        if let Err(e) = &reply {
            if self.errors.len() < 4 {
                self.errors.push(format!("{path}: {e}"));
            }
        }
        Done { start, end, class, ok: reply.is_ok() }
    }
}

/// What the open-loop writer did, over one window or several.
#[derive(Default)]
struct WriterLog {
    /// Every write sent, warm-up included.
    writes: Vec<Scheduled>,
    errors: Vec<String>,
    /// `graph_version` the last write reported.
    last_version: u64,
    /// `(latency_ms, lateness_ms)` of the writes that were due while the
    /// reader was measuring: one list per head.
    measured: Vec<Vec<(f64, f64)>>,
}

impl WriterLog {
    /// Fold a later window in; the graph version is the later window's.
    fn absorb(&mut self, later: WriterLog) {
        self.writes.extend(later.writes);
        self.errors.extend(later.errors);
        self.last_version = later.last_version;
        self.measured.extend(later.measured);
    }
}

/// Run `reader` on this thread beside the open-loop writer (its own
/// thread, its own connection), which posts on its schedule from now
/// until `until`, so the system is in its steady state when the reader's
/// window opens. `reader` returns its result and the intervals it
/// measured in; writes due inside them are the measured ones.
fn beside_writer<T>(
    addr: std::net::SocketAddr,
    batches: &mut WriteBatches,
    until: Instant,
    reader: impl FnOnce() -> Result<(T, Vec<(Instant, Instant)>), String>,
) -> Result<(T, WriterLog), String> {
    let origin = Instant::now();
    let until = until.saturating_duration_since(origin);
    // Writes are due at i x period for every due time before `until`.
    let due_count = until.as_nanos().div_ceil(WRITE_PERIOD.as_nanos());
    // Bodies are built before the clock starts: building one inside the
    // schedule would sit in that write's latency.
    let write_bodies: Vec<String> =
        (0..due_count).map(|_| triples_body(MODEL, &batches.next_batch())).collect();
    let mut writer = client::Connection::open(addr).map_err(|e| format!("writer connect: {e}"))?;

    std::thread::scope(|scope| {
        let writer_thread = scope.spawn(move || {
            let mut log = WriterLog::default();
            log.writes =
                load::open_loop(&RealClock(origin), Duration::ZERO, WRITE_PERIOD, until, |i| {
                    let verdict = match writer.post_json("/triples", &write_bodies[i as usize]) {
                        Ok((200, reply)) => match parse_write_reply(&reply) {
                            Some((WRITE_BATCH, version)) => {
                                log.last_version = version;
                                Ok(())
                            }
                            _ => Err(format!("write {i} was not fully effective: {reply}")),
                        },
                        Ok((status, reply)) => Err(format!("write {i}: status {status}: {reply}")),
                        Err(e) => Err(format!("write {i}: {e}")),
                    };
                    if let Err(e) = &verdict {
                        if log.errors.len() < 4 {
                            log.errors.push(e.clone());
                        }
                    }
                    verdict.is_ok()
                });
            log
        });
        let read = reader();
        let mut log = writer_thread.join().expect("writer thread");
        let (out, measured) = read?;
        log.measured = measured
            .iter()
            .map(|&(from, to)| {
                let (from, to) = (from.duration_since(origin), to.duration_since(origin));
                due_within(&log.writes, from, to)
            })
            .collect();
        Ok((out, log))
    })
}

/// `(latency_ms, lateness_ms)` of the successful writes due in
/// `from..to`.
fn due_within(writes: &[Scheduled], from: Duration, to: Duration) -> Vec<(f64, f64)> {
    writes
        .iter()
        .filter(|w| w.ok && w.due >= from && w.due < to)
        .map(|w| (w.latency.as_secs_f64() * 1e3, w.lateness.as_secs_f64() * 1e3))
        .collect()
}

/// After the window: every scheduled write applied, the graph version
/// equals the number of effective writes, and hot-set answers equal those
/// of a server cold-loaded with the final graph.
fn verify(
    node: &mut Node,
    inputs: &Inputs,
    batches: &WriteBatches,
    writer: &WriterLog,
    reader: &Reader,
    sabotage: bool,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let failed_writes = writer.writes.iter().filter(|w| !w.ok).count() as u64;
    if failed_writes > 0 {
        outcome.fail(
            failed_writes,
            format!("{failed_writes} scheduled writes were not applied: {:?}", writer.errors),
        );
    }
    let effective = writer.writes.len() as u64;
    if writer.last_version != effective {
        outcome.fail(
            1,
            format!("graph_version is {} after {effective} effective writes", writer.last_version),
        );
    }
    for e in &reader.errors {
        outcome.errors.push(format!("request failed: {e}"));
    }

    let cold_filter = Arc::new(FilterIndex::from_slices(&[&inputs.base, batches.written()]));
    let cold_registry = Arc::new(ModelRegistry::new());
    cold_registry.register(MODEL, Arc::clone(&node.model), cold_filter);
    let cold = start_server(Router::new(cold_registry), None)?;
    let mut cold_conn =
        client::Connection::open(cold.addr()).map_err(|e| format!("connect cold server: {e}"))?;
    let mut wrong = 0u64;
    for body in inputs.hot_bodies.iter().step_by(HOT_KEYS / VERIFIED_HOT_KEYS) {
        let (_, _, live) = node.client.post("/topk", body, 0);
        let (status, mut expected) =
            cold_conn.post_json("/topk", body).map_err(|e| format!("cold server: {e}"))?;
        if sabotage {
            expected.push(' ');
        }
        if status != 200 || live.ok().as_deref() != Some(expected.as_str()) {
            wrong += 1;
        }
    }
    drop(cold_conn);
    cold.shutdown();
    if wrong > 0 {
        let share = outcome.attempted * 3 / 10 / VERIFIED_HOT_KEYS as u64;
        outcome.fail(
            wrong * share.max(1),
            format!(
                "{wrong} of {VERIFIED_HOT_KEYS} hot-set answers differ from a cold-loaded server's"
            ),
        );
    }
    Ok(())
}

fn describe(outcome: &mut Outcome, inputs: &Inputs) {
    outcome.fact("inputs_hash", &inputs.hash);
    outcome.fact(
        "model",
        format!(
            "DistMult {} x {DIM} ({} relations), {} known triples, L-WD artifacts registered",
            inputs.num_entities,
            inputs.num_relations,
            inputs.base.len()
        ),
    );
    outcome.fact("server", describe_server(&server_config(None)));
    outcome.fact("server defaults", format!("{:?}", ServerConfig::default()));
    outcome.fact("registry", format!("{:?}", RegistryConfig::default()));
    outcome.fact(
        "reader",
        format!("1 closed-loop connection; per 20 requests: 9 /score ({SCORE_TRIPLES} triples), 6 /topk hot ({HOT_KEYS} keys), 4 /topk cold, 1 /eval ({EVAL_TRIPLES} triples, static, n_s={EVAL_N_S}, {EVAL_SLICES} slices)"),
    );
    outcome.fact(
        "writer",
        format!("1 open-loop connection; POST /triples, {WRITE_BATCH} inserts ({HOT_PER_WRITE} on hot keys) every {WRITE_PERIOD:?}, timed from the due time"),
    );
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let plan = Plan::new(opts.seconds);
    let mut outcome = Outcome::default();
    outcome.lap("start");
    let inputs = make_inputs(opts.seed)?;
    outcome.lap("inputs");
    let (mut node, setup_s) =
        setup_cycles(opts.trace, SETUP_CYCLES, || set_up(&inputs), tear_down)?;
    outcome.lap("setup");
    describe(&mut outcome, &inputs);
    let base_filter = Arc::new(FilterIndex::from_slices(&[&inputs.base]));
    let mut batches = write_batches(&inputs, base_filter);
    if opts.trace {
        return traced(opts, plan, &inputs, node, batches, outcome);
    }

    let addr = node.server.addr();
    let mut reader = Reader { inputs: &inputs, errors: Vec::new() };
    let mut tails = Tails::default();
    let reference = Reference::new(inputs.write_seed ^ 0x4EF);
    let until = Instant::now() + plan.warmup + plan.window;
    let (run, env) = env::around_window(|| {
        beside_writer(addr, &mut batches, until, || {
            let window = run_segments(
                plan,
                |i| reader.request(&mut node.client, i),
                |until| {
                    // The writer keeps its schedule through the tail; the
                    // writes due in it are not measured ones.
                    tails.full_tps.push(reference.full_passes(until));
                    Ok(())
                },
            )?;
            let heads = window.heads.clone();
            Ok((window, heads))
        })
    });
    let (window, writer): (Window, WriterLog) = run?;
    let peak_rss_mb = env::peak_rss_mb();
    outcome.lap("window");
    outcome.env(&env);
    outcome.attempted = window.log.attempted;
    outcome.failed = window.log.failed;
    verify(&mut node, &inputs, &batches, &writer, &reader, opts.sabotage, &mut outcome)?;

    let summary = summarise(&window, &CLASSES, &GROUPS)?;
    if writer.measured.iter().any(Vec::is_empty) {
        return Err("a segment saw no write: the open loop is not open".into());
    }
    tails.write_ms = writer
        .measured
        .iter()
        .map(|head| stats::median(&head.iter().map(|w| w.0).collect::<Vec<_>>()))
        .collect();
    outcome.segments(&window.segments, &tails);
    let write_latency_p50_ms = stats::median(&tails.write_ms);
    let lateness: Vec<f64> = writer.measured.iter().flatten().map(|w| w.1).collect();

    let layers = &mut outcome.layers;
    layers.insert("load.samples", window.log.samples.len() as f64);
    layers.insert("load.latency_p90_ms", summary.p90_ms);
    layers.insert("load.latency_p99_ms", summary.p99_ms);
    layers.insert("load.latency_p50_ms.score", summary.class_p50_ms[usize::from(SCORE)]);
    layers.insert("load.latency_p50_ms.topk_hit", summary.class_p50_ms[usize::from(HIT)]);
    layers.insert("load.latency_p50_ms.topk_miss", summary.class_p50_ms[usize::from(MISS)]);
    layers.insert("load.latency_p50_ms.eval", summary.class_p50_ms[usize::from(EVAL)]);
    layers.insert("load.latency_p50_ms.triples", write_latency_p50_ms);
    layers.insert("load.writer_lateness_p50_ms", stats::median(&lateness));
    layers.insert("load.writes_applied", writer.writes.iter().filter(|w| w.ok).count() as f64);

    outcome.end_to_end = Some(EndToEndValues {
        setup_s,
        peak_rss_mb,
        throughput_rps: summary.throughput_rps,
        latency_p50_ms: summary.p50_ms,
        full_eval_tps: stats::median(&tails.full_tps),
        write_latency_p50_ms,
    });
    outcome.lap("checks");
    tear_down(node);
    Ok(outcome)
}

/// The traced run; the replay walks the median operation — a `/score` —
/// down socket → `Router::handle` → engine scoring.
fn traced(
    opts: &RunOpts,
    plan: Plan,
    inputs: &Inputs,
    mut node: Node,
    mut batches: WriteBatches,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let addr = node.server.addr();
    let piece = plan.window.mul_f64(TRACE_PIECE_SHARE);
    let mut recorder = Some(Recorder::new(Instant::now(), 1 << 18));
    let mut reader = Reader { inputs, errors: Vec::new() };
    let (mut plain, mut run) = (LoopLog::default(), LoopLog::default());
    // The writes of the untraced windows, then of all windows.
    let (mut plain_writer, mut writer) = (WriterLog::default(), WriterLog::default());
    let (mut scrapes_before, mut scrapes_after) = (Vec::new(), Vec::new());
    let (result, env) = env::around_window(|| -> Result<(), String> {
        for round in 0..TRACE_ROUNDS {
            let warmup = if round == 0 { plan.warmup } else { Duration::ZERO };
            // One piece of reader beside writer, on the same connection
            // whether traced or not.
            let mut piece_of = |first: u64, warmup: Duration, client: &mut Client| {
                let start = Instant::now() + warmup;
                beside_writer(addr, &mut batches, start + piece, || {
                    let log = load::closed_loop(start, piece, first, |i| reader.request(client, i));
                    Ok((log, vec![(start, start + piece)]))
                })
            };
            let (log, writes) = piece_of(run.issued, warmup, &mut node.client)?;
            plain.merge(log);
            plain_writer.absorb(writes);
            scrapes_before.push(scrape(addr));
            node.client.trace_into(recorder.take());
            let (log, writes) = piece_of(plain.issued, Duration::ZERO, &mut node.client)?;
            recorder = node.client.trace_into(None);
            scrapes_after.push(scrape(addr));
            run.merge(log);
            writer.absorb(writes);
        }
        Ok(())
    });
    result?;
    // Only the traced windows' writes are reported; all of them are
    // verified. Graph versions count every write of the run.
    let measured: Vec<(f64, f64)> = writer.measured.iter().flatten().copied().collect();
    writer.writes.extend(plain_writer.writes);
    writer.errors.extend(plain_writer.errors);
    let window = piece * TRACE_ROUNDS;
    let before = scrapes_before.into_iter().collect::<Result<Vec<_>, _>>()?;
    let after = scrapes_after.into_iter().collect::<Result<Vec<_>, _>>()?;
    outcome.env(&env);
    outcome.attempted = run.attempted;
    outcome.failed = run.failed;
    verify(&mut node, inputs, &batches, &writer, &reader, opts.sabotage, &mut outcome)?;
    let recorder = recorder.expect("the recorder comes back after every traced window");
    finish_spans(&mut outcome, "serve_live_mixed", recorder.spans())?;

    let summary = loose_summary(&run, window, CLASSES.len())?;
    let plain = loose_summary(&plain, window, CLASSES.len())?;
    let layers = &mut outcome.layers;
    layers.insert(
        "trace.overhead_frac",
        (plain.throughput_rps - summary.throughput_rps) / plain.throughput_rps,
    );
    load_layers(layers, &summary, run.samples.len());
    layers.insert("load.latency_p50_ms.score", summary.class_p50_ms[usize::from(SCORE)]);
    layers.insert("load.latency_p50_ms.topk_hit", summary.class_p50_ms[usize::from(HIT)]);
    layers.insert("load.latency_p50_ms.topk_miss", summary.class_p50_ms[usize::from(MISS)]);
    layers.insert("load.latency_p50_ms.eval", summary.class_p50_ms[usize::from(EVAL)]);
    if !measured.is_empty() {
        layers.insert(
            "load.latency_p50_ms.triples",
            stats::median(&measured.iter().map(|w| w.0).collect::<Vec<_>>()),
        );
        layers.insert(
            "load.writer_lateness_p50_ms",
            stats::median(&measured.iter().map(|w| w.1).collect::<Vec<_>>()),
        );
    }
    layers.insert("load.writes_applied", writer.writes.iter().filter(|w| w.ok).count() as f64);
    scrape_layers(layers, &before, &after);
    layers.insert("datasets.generate_s", inputs.generate_s);
    layers.insert("recommend.fit_s", node.fit_s);
    layers.insert("recommend.static_sets_s", node.static_sets_s);

    // Probes. Fresh cold keys come from far beyond the windows' range.
    let fresh = FreshKeys::after(&inputs.cold, run.issued + (1 << 20));
    let router = Router::new(Arc::clone(&node.registry));
    let entry = &node.entry;
    layers.insert("core.parallel.team_spawn_us", probes::team_spawn_us());
    layers.insert("core.filter.build_s", probes::filter_build_s(&inputs.base));
    layers.insert(
        "models.snapshot.load_s",
        probes::median_secs(|| {
            std::hint::black_box(load_model_from_path(&inputs.model_path).expect("snapshot loads"));
        }),
    );
    probes::kernel_probes(layers, inputs.num_entities, DIM);
    let graph = entry.live().snapshot();
    probes::top_k_probes(layers, entry.engine(), DIM, || {
        let t = fresh.next_query(MODEL).1;
        (t, graph.known_answers(t, QuerySide::Tail).into_owned())
    });
    drop(graph);
    let write_body = triples_body(MODEL, &batches.next_batch());
    layers.insert("serve.json.parse_us.score", probes::json_parse_us(&inputs.score_bodies[0]));
    layers.insert("serve.json.parse_us.topk", probes::json_parse_us(&inputs.hot_bodies[0]));
    layers.insert("serve.json.parse_us.triples", probes::json_parse_us(&write_body));
    let mut n = 0usize;
    layers.insert(
        "serve.router.handle_us.score",
        probes::router_handle_us(&router, "/score", || {
            n += 1;
            inputs.score_bodies[n % inputs.score_bodies.len()].clone()
        })?,
    );
    // Hot key 1 is never touched by the writer's probes below.
    layers.insert(
        "serve.router.handle_us.topk_hit",
        probes::router_handle_us(&router, "/topk", || inputs.hot_bodies[1].clone())?,
    );
    layers.insert(
        "serve.router.handle_us.topk_miss",
        probes::router_handle_us(&router, "/topk", || fresh.next_query(MODEL).0)?,
    );
    layers.insert(
        "serve.router.handle_us.eval_hit",
        probes::router_handle_us(&router, "/eval", || inputs.eval_bodies[0].clone())?,
    );
    layers.insert(
        "serve.router.handle_us.eval_miss",
        probes::router_handle_us(&router, "/eval", || {
            n += 1;
            inputs.eval_bodies[n % EVAL_SLICES].clone()
        })?,
    );
    let score_triples: Vec<Triple> = inputs.base[..SCORE_TRIPLES].to_vec();
    layers.insert(
        "serve.batch.score_submit_us",
        probes::median_secs(|| {
            std::hint::black_box(entry.batcher().submit(score_triples.clone()));
        }) * 1e6,
    );
    layers.insert(
        "serve.batch.topk_submit_us",
        probes::median_secs(|| {
            let query = TopKQuery {
                triple: fresh.next_query(MODEL).1,
                side: QuerySide::Tail,
                k: 10,
                filtered: true,
            };
            std::hint::black_box(entry.topk_batcher().submit(vec![query]));
        }) * 1e6,
    );
    let key = |seed: u64| SampleKey { strategy: SamplingStrategy::Static, n_s: EVAL_N_S, seed };
    layers.insert(
        "serve.registry.samples_for_us.hit",
        probes::median_secs_batched(16, || {
            std::hint::black_box(
                entry.samples_for(&key(7)).expect("static sampling is registered"),
            );
        }) * 1e6,
    );
    let mut sample_seed = 1_000u64;
    layers.insert(
        "serve.registry.samples_for_us.miss",
        probes::median_secs(|| {
            sample_seed += 1;
            std::hint::black_box(
                entry.samples_for(&key(sample_seed)).expect("static sampling is registered"),
            );
        }) * 1e6,
    );
    probes::transport_probes(layers, addr)?;

    // Replay of the median operation, a /score, round-robin over its
    // boundaries. Point scoring has no row kernel below the engine.
    let mut socket = probes::ReplaySocket::open(addr, "/score")?;
    let n = std::cell::Cell::new(n);
    let next_score = || {
        n.set(n.get() + 1);
        &inputs.score_bodies[n.get() % inputs.score_bodies.len()]
    };
    let secs = probes::interleaved_median_secs(&mut [
        &mut || {
            socket.post(next_score());
            None
        },
        &mut || {
            std::hint::black_box(router.handle("POST", "/score", next_score()));
            None
        },
        &mut || {
            for _ in 0..64 {
                for &t in &score_triples {
                    std::hint::black_box(entry.engine().score_one(t));
                }
            }
            None
        },
    ]);
    if let Some(f) = socket.failure {
        return Err(f);
    }
    let engine_s = secs[2] / 64.0;
    let selfs = [
        ("trace.self_ms.transport", secs[0] - secs[1]),
        ("trace.self_ms.serve", secs[1] - engine_s),
        ("trace.self_ms.engine", engine_s),
    ];
    let mut sum_ms = 0.0;
    for (name, secs) in selfs {
        let ms = secs.max(0.0) * 1e3;
        layers.insert(name, ms);
        sum_ms += ms;
    }

    // Last, the probes that write: they change the graph for good.
    layers.insert(
        "serve.router.handle_us.triples",
        probes::router_handle_us(&router, "/triples", || {
            triples_body(MODEL, &batches.next_batch())
        })?,
    );
    probes::live_probes(layers, entry.live(), &mut batches, &inputs.hot);
    trace_consistency(&mut outcome, sum_ms, summary.p50_ms);
    tear_down(node);
    Ok(outcome)
}
