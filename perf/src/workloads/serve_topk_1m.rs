//! `serve_topk_1m`: one server, a 1M × 32 DistMult table, one closed-loop
//! keep-alive connection asking `/topk` for keys that never repeat.
//!
//! Kernel- and memory-bandwidth-bound: each request streams the whole
//! 128 MB table through the shard heaps and their merge, on one scoring
//! thread (two are bimodal on a shared two-vCPU box, so the per-call
//! thread team is not on this workload's path; `gateway_small`'s shard
//! workers pay it). Framing, JSON and routing together are a few percent
//! of a request — a framing optimisation must **not** move this workload.

use std::sync::Arc;

use kgeval::core::triple::QuerySide;
use kgeval::core::FilterIndex;
use kgeval::models::io::load_model_from_path;
use kgeval::serve::{ModelEntry, ModelRegistry, RegistryConfig, Router, ServerHandle, TopKQuery};

use super::{
    describe_server, expected_topk, finish_spans, load_layers, loose_summary, make_topk_inputs,
    run_segments, scrape_layers, server_config, setup_cycles, start_server, summarise,
    topk_reply_matches, trace_consistency, traced_topk_windows, Client, EndToEndValues, Outcome,
    Plan, Reference, RunOpts, Tails, TopkInputs, TopkLoad, TracedTopk, MODEL,
};
use crate::env;
use crate::inputs::{topk_body, triples_body, FreshKeys, SplitMix64};
use crate::probes;
use crate::stats;

/// Set-up cycles: a cycle takes over a second here, so four.
const SETUP_CYCLES: usize = 4;

const ENTITIES: usize = 1_000_000;
const RELATIONS: usize = 16;
const DIM: usize = 32;
/// The issue asked for 2M; a set-up cycle then takes 2.6 s and four of
/// them do not fit the contract's cap on total time.
const FILTER_TRIPLES: usize = 1_000_000;
/// Request-executing workers of the server.
const WORKERS: usize = 2;
/// Scoring threads per ranking pass. The issue asked for two; a two-thread
/// pass on this box is bimodal (the two vCPUs share one core's memory
/// pipeline or do not, for seconds at a time: 76 to 165 requests a second
/// between segments of one run), so the workload ranks on one.
const THREADS: usize = 1;

type Inputs = TopkInputs;

fn make_inputs(seed: u64) -> Result<Inputs, String> {
    make_topk_inputs("serve_topk_1m", (ENTITIES, RELATIONS, DIM), FILTER_TRIPLES, seed)
}

fn registry_config() -> RegistryConfig {
    RegistryConfig { threads: THREADS, ..RegistryConfig::default() }
}

struct Node {
    registry: Arc<ModelRegistry>,
    entry: Arc<ModelEntry>,
    filter: Arc<FilterIndex>,
    server: ServerHandle,
    client: Client,
}

/// One set-up cycle: filter build, snapshot load and registration, bind,
/// connect, and a first answer checked against the engine in-process.
fn set_up(inputs: &Inputs) -> Result<Node, String> {
    let filter = Arc::new(FilterIndex::from_slices(&[&inputs.base]));
    let registry = Arc::new(ModelRegistry::with_config(registry_config()));
    let entry = registry
        .register_snapshot(MODEL, &inputs.model_path, Arc::clone(&filter))
        .map_err(|e| format!("register snapshot: {e}"))?;
    let server = start_server(Router::new(Arc::clone(&registry)), Some(WORKERS))?;
    let mut client = Client::open(server.addr())?;
    // Key 2^40 is far outside anything the window will ask for.
    let (head, relation) = inputs.keys.key(1 << 40);
    let (_, _, reply) = client.post("/topk", &topk_body(MODEL, head, relation), 0);
    let expected = expected_topk(entry.engine(), &entry.live().snapshot(), head, relation);
    if !topk_reply_matches(&reply?, &expected) {
        return Err("set-up: the first /topk answer differs from the engine's".into());
    }
    Ok(Node { registry, entry, filter, server, client })
}

fn tear_down(node: Node) {
    drop(node.client);
    node.server.shutdown();
}

/// Every kept reply must equal the answer built from
/// `ScoringEngine::top_k` in-process.
fn verify(node: &Node, inputs: &Inputs, load: &TopkLoad, sabotage: bool, outcome: &mut Outcome) {
    let graph = node.entry.live().snapshot();
    let mut wrong = 0u64;
    for (key_index, reply) in &load.kept {
        let (head, relation) = inputs.keys.key(*key_index);
        let mut expected = expected_topk(node.entry.engine(), &graph, head, relation);
        if sabotage {
            expected[0].0 ^= 1;
        }
        if !topk_reply_matches(reply, &expected) {
            wrong += 1;
        }
    }
    if wrong > 0 {
        // A kept reply stands for the 64 requests around it.
        outcome.fail(
            wrong * 64,
            format!(
                "{wrong} of {} checked /topk replies differ from ScoringEngine::top_k",
                load.kept.len()
            ),
        );
    }
    for e in &load.errors {
        outcome.errors.push(format!("request failed: {e}"));
    }
}

fn describe(outcome: &mut Outcome, node: &Node, inputs: &Inputs) {
    outcome.fact("inputs_hash", &inputs.hash);
    outcome.fact(
        "model",
        format!("DistMult {ENTITIES} x {DIM} ({RELATIONS} relations), 128 MB snapshot"),
    );
    outcome.fact("filter", format!("{} known triples", node.filter.len()));
    outcome.fact("server", describe_server(&server_config(Some(WORKERS))));
    outcome.fact("registry", format!("{:?}", registry_config()));
    outcome.fact("load", "1 closed-loop keep-alive connection, POST /topk, 1 query, k=10, filtered, never-repeated keys");
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
    describe(&mut outcome, &node, &inputs);
    if opts.trace {
        return traced(opts, plan, &inputs, node, outcome);
    }

    let mut reference = Reference::new(inputs.write_seed);
    let mut load = TopkLoad::new(&inputs.keys);
    let mut tails = Tails::default();
    let (window, env) = env::around_window(|| {
        run_segments(
            plan,
            |i| load.request(&mut node.client, i),
            |until| {
                tails.write_ms.push(reference.writes()?);
                tails.full_tps.push(reference.full_passes(until));
                Ok(())
            },
        )
    });
    let window = window?;
    let peak_rss_mb = env::peak_rss_mb();
    outcome.lap("window");
    outcome.env(&env);
    outcome.attempted = window.log.attempted;
    outcome.failed = window.log.failed;
    verify(&node, &inputs, &load, opts.sabotage, &mut outcome);

    let summary = summarise(&window, &["topk_miss"], &[0])?;
    outcome.segments(&window.segments, &tails);
    outcome.layers.insert("load.samples", window.log.samples.len() as f64);
    outcome.layers.insert("load.latency_p90_ms", summary.p90_ms);
    outcome.layers.insert("load.latency_p99_ms", summary.p99_ms);
    outcome.layers.insert("load.latency_p50_ms.topk_miss", summary.class_p50_ms[0]);
    outcome.end_to_end = Some(EndToEndValues {
        setup_s,
        peak_rss_mb,
        throughput_rps: summary.throughput_rps,
        latency_p50_ms: summary.p50_ms,
        full_eval_tps: stats::median(&tails.full_tps),
        write_latency_p50_ms: stats::median(&tails.write_ms),
    });
    outcome.lap("checks");
    tear_down(node);
    Ok(outcome)
}

/// The traced run: untraced and traced windows of equal length, the
/// `/metrics` delta over the traced one, the probes, and the replay of
/// one request at each boundary (socket → `Router::handle` →
/// `ScoringEngine::top_k` → `combine_rows`).
fn traced(
    opts: &RunOpts,
    plan: Plan,
    inputs: &Inputs,
    mut node: Node,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let addr = node.server.addr();
    let TracedTopk { plain, traced, load, before, after, recorder, window, env } =
        traced_topk_windows(&mut node.client, &[addr], &inputs.keys, plan)?;
    outcome.env(&env);
    outcome.attempted = traced.attempted;
    outcome.failed = traced.failed;
    verify(&node, inputs, &load, opts.sabotage, &mut outcome);
    finish_spans(&mut outcome, "serve_topk_1m", recorder.spans())?;

    let summary = loose_summary(&traced, window, 1)?;
    let plain = loose_summary(&plain, window, 1)?;
    let layers = &mut outcome.layers;
    layers.insert(
        "trace.overhead_frac",
        (plain.throughput_rps - summary.throughput_rps) / plain.throughput_rps,
    );
    load_layers(layers, &summary, traced.samples.len());
    layers.insert("load.latency_p50_ms.topk_miss", summary.class_p50_ms[0]);
    scrape_layers(layers, &before, &after);
    layers.insert("datasets.generate_s", inputs.generate_s);

    // Probes, on fresh keys beyond anything the windows asked for.
    let fresh = FreshKeys::after(&inputs.keys, traced.issued + (1 << 20));
    let router = Router::new(Arc::clone(&node.registry));
    let engine = node.entry.engine();
    let graph = node.entry.live().snapshot();
    layers.insert("core.parallel.team_spawn_us", probes::team_spawn_us());
    probes::partial_probes(layers, &mut SplitMix64::new(opts.seed));
    layers.insert("core.filter.build_s", probes::filter_build_s(&inputs.base));
    layers.insert(
        "models.snapshot.load_s",
        probes::median_secs(|| {
            std::hint::black_box(load_model_from_path(&inputs.model_path).expect("snapshot loads"));
        }),
    );
    probes::kernel_probes(layers, ENTITIES, DIM);
    probes::top_k_probes(layers, engine, DIM, || {
        let t = fresh.next_query(MODEL).1;
        (t, graph.known_answers(t, QuerySide::Tail).into_owned())
    });
    layers.insert(
        "models.engine.rank_counts_ms",
        probes::rank_counts_ms(engine, &node.filter, &inputs.base[..64]),
    );
    let hit_body = fresh.next_query(MODEL).0;
    layers.insert("serve.json.parse_us.topk", probes::json_parse_us(&hit_body));
    layers.insert(
        "serve.json.parse_us.triples",
        probes::json_parse_us(&triples_body(MODEL, &inputs.base[..64])),
    );
    layers.insert(
        "serve.router.handle_us.topk_miss",
        probes::router_handle_us(&router, "/topk", || fresh.next_query(MODEL).0)?,
    );
    layers.insert(
        "serve.router.handle_us.topk_hit",
        probes::router_handle_us(&router, "/topk", || hit_body.clone())?,
    );
    let submit_s = probes::median_secs(|| {
        let query = TopKQuery {
            triple: fresh.next_query(MODEL).1,
            side: QuerySide::Tail,
            k: 10,
            filtered: true,
        };
        std::hint::black_box(node.entry.topk_batcher().submit(vec![query]));
    });
    layers.insert("serve.batch.topk_submit_us", submit_s * 1e6);
    probes::transport_probes(layers, addr)?;

    // Replay: one request's time at each boundary, measured round-robin;
    // a layer's self time is its boundary minus the one below. The
    // kernel boundary is the request's one scoring thread streaming the
    // table.
    let next_body = || fresh.next_query(MODEL);
    let mut socket = probes::ReplaySocket::open(addr, "/topk")?;
    let mut kernel = probes::KernelTeam::new(ENTITIES, DIM, THREADS);
    let secs = probes::interleaved_median_secs(&mut [
        &mut || {
            socket.post(&next_body().0);
            None
        },
        &mut || {
            std::hint::black_box(router.handle("POST", "/topk", &next_body().0));
            None
        },
        &mut || {
            let t = next_body().1;
            let known = graph.known_answers(t, QuerySide::Tail);
            std::hint::black_box(engine.top_k_fanout(t, QuerySide::Tail, &known, 10, THREADS));
            None
        },
        &mut || Some(kernel.pass()),
    ]);
    if let Some(f) = socket.failure {
        return Err(f);
    }
    let selfs = [
        ("trace.self_ms.transport", secs[0] - secs[1]),
        ("trace.self_ms.serve", secs[1] - secs[2]),
        ("trace.self_ms.engine", secs[2] - secs[3]),
        ("trace.self_ms.kernel", secs[3]),
    ];
    let mut sum_ms = 0.0;
    for (name, secs) in selfs {
        let ms = secs.max(0.0) * 1e3;
        layers.insert(name, ms);
        sum_ms += ms;
    }
    trace_consistency(&mut outcome, sum_ms, summary.p50_ms);
    tear_down(node);
    Ok(outcome)
}
