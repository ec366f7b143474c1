//! `gateway_small`: three servers in one process on loopback — two shard
//! workers and a scatter/gather gateway — over a 50k × 32 model, with one
//! closed-loop connection asking the gateway `/topk` for keys that never
//! repeat.
//!
//! Overhead-bound: each request crosses reactor → framing → JSON → router
//! three times, plus scatter, the partial wire codec and the merge; the
//! kernel is a small share of a request. A kernel optimisation must
//! **not** move this workload; reactor, codec and gateway changes do.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use kgeval::core::triple::QuerySide;
use kgeval::core::FilterIndex;
use kgeval::models::io::load_model_from_path;
use kgeval::serve::{
    client, Gateway, GatewayConfig, ModelEntry, ModelRegistry, RegistryConfig, Router,
    ServerHandle, WorkerShard,
};

use super::{
    describe_server, expected_topk, finish_spans, load_layers, loose_summary, make_topk_inputs,
    run_segments, scrape_layers, server_config, setup_cycles, start_server, summarise,
    topk_reply_matches, trace_consistency, traced_topk_windows, Client, EndToEndValues, Outcome,
    Plan, Reference, RunOpts, Tails, TopkInputs, TopkLoad, TracedTopk, MODEL,
};
use crate::env;
use crate::inputs::{score_body, topk_body, FreshKeys, SplitMix64};
use crate::probes;
use crate::stats;

/// Set-up cycles: a cycle takes under a second here, so six.
const SETUP_CYCLES: usize = 6;

const ENTITIES: usize = 50_000;
const RELATIONS: usize = 16;
const DIM: usize = 32;
/// Known triples every node indexes: sized so one set-up cycle (two
/// workers, each loading the snapshot and building its filter) takes at
/// least a quarter of a second.
const FILTER_TRIPLES: usize = 400_000;
const WORKERS: usize = 2;

type Inputs = TopkInputs;

fn make_inputs(seed: u64) -> Result<Inputs, String> {
    make_topk_inputs("gateway_small", (ENTITIES, RELATIONS, DIM), FILTER_TRIPLES, seed)
}

/// A node serving the model: a shard worker, or (with `shard = None`) the
/// single-node server the gateway's answers are compared with.
struct ModelNode {
    registry: Arc<ModelRegistry>,
    entry: Arc<ModelEntry>,
    filter: Arc<FilterIndex>,
    server: ServerHandle,
}

fn start_model_node(inputs: &Inputs, shard: Option<WorkerShard>) -> Result<ModelNode, String> {
    let filter = Arc::new(FilterIndex::from_slices(&[&inputs.base]));
    let registry = Arc::new(ModelRegistry::with_config(RegistryConfig {
        worker_shard: shard,
        ..RegistryConfig::default()
    }));
    let entry = registry
        .register_snapshot(MODEL, &inputs.model_path, Arc::clone(&filter))
        .map_err(|e| format!("register snapshot: {e}"))?;
    let server = start_server(Router::new(Arc::clone(&registry)), None)?;
    Ok(ModelNode { registry, entry, filter, server })
}

fn gateway_over(
    workers: &[ModelNode],
    health_interval: Option<Duration>,
) -> Result<Gateway, String> {
    let defaults = GatewayConfig::default();
    Gateway::new(GatewayConfig {
        backends: workers.iter().map(|w| w.server.addr().to_string()).collect(),
        health_interval: health_interval.unwrap_or(defaults.health_interval),
        ..defaults
    })
    .map_err(|e| format!("gateway: {e}"))
}

struct Fleet {
    workers: Vec<ModelNode>,
    gateway: ServerHandle,
    client: Client,
}

/// One set-up cycle: two workers (snapshot load + filter build each), the
/// gateway, its health check, the connection, and a first answer checked
/// against the engine in-process.
fn set_up(inputs: &Inputs) -> Result<Fleet, String> {
    let workers = (0..WORKERS)
        .map(|index| start_model_node(inputs, Some(WorkerShard { index, of: WORKERS })))
        .collect::<Result<Vec<_>, _>>()?;
    let gateway = start_server(Router::gateway(gateway_over(&workers, None)?), None)?;
    match client::get(gateway.addr(), "/healthz") {
        Ok((200, body)) if body.contains(r#""status":"ok""#) => {}
        other => return Err(format!("set-up: gateway is not healthy: {other:?}")),
    }
    let mut client = Client::open(gateway.addr())?;
    let (head, relation) = inputs.keys.key(1 << 40);
    let (_, _, reply) = client.post("/topk", &topk_body(MODEL, head, relation), 0);
    let entry = &workers[0].entry;
    let expected = expected_topk(entry.engine(), &entry.live().snapshot(), head, relation);
    if !topk_reply_matches(&reply?, &expected) {
        return Err("set-up: the gateway's first /topk answer differs from the engine's".into());
    }
    Ok(Fleet { workers, gateway, client })
}

fn tear_down(fleet: Fleet) {
    drop(fleet.client);
    fleet.gateway.shutdown();
    for worker in fleet.workers {
        worker.server.shutdown();
    }
}

/// Every kept gateway reply must be byte-identical to the single-node
/// server's reply to the same request.
fn verify(
    single: SocketAddr,
    inputs: &Inputs,
    load: &TopkLoad,
    sabotage: bool,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut conn =
        client::Connection::open(single).map_err(|e| format!("connect single node: {e}"))?;
    let mut wrong = 0u64;
    for (key_index, reply) in &load.kept {
        let (head, relation) = inputs.keys.key(*key_index);
        let (status, mut expected) = conn
            .post_json("/topk", &topk_body(MODEL, head, relation))
            .map_err(|e| format!("single node: {e}"))?;
        if sabotage {
            expected.push(' ');
        }
        if status != 200 || &expected != reply {
            wrong += 1;
        }
    }
    if wrong > 0 {
        outcome.fail(
            wrong * 64,
            format!(
                "{wrong} of {} checked gateway replies differ from the single node's",
                load.kept.len()
            ),
        );
    }
    for e in &load.errors {
        outcome.errors.push(format!("request failed: {e}"));
    }
    Ok(())
}

fn describe(outcome: &mut Outcome, inputs: &Inputs) {
    outcome.fact("inputs_hash", &inputs.hash);
    outcome.fact("model", format!("DistMult {ENTITIES} x {DIM} ({RELATIONS} relations), {FILTER_TRIPLES} known triples per node"));
    outcome.fact("topology", format!("{WORKERS} shard workers + 1 gateway, one process, loopback"));
    outcome.fact("server (each of 3)", describe_server(&server_config(None)));
    outcome.fact(
        "registry (workers)",
        format!("{:?} + worker_shard i of {WORKERS}", RegistryConfig::default()),
    );
    outcome.fact(
        "gateway",
        format!("health_interval={:?} (default)", GatewayConfig::default().health_interval),
    );
    outcome.fact(
        "load",
        "1 closed-loop keep-alive connection to the gateway, POST /topk, 1 query, k=10, filtered, never-repeated keys",
    );
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let plan = Plan::new(opts.seconds);
    let mut outcome = Outcome::default();
    outcome.lap("start");
    let inputs = make_inputs(opts.seed)?;
    outcome.lap("inputs");
    let (mut fleet, setup_s) =
        setup_cycles(opts.trace, SETUP_CYCLES, || set_up(&inputs), tear_down)?;
    outcome.lap("setup");
    describe(&mut outcome, &inputs);
    if opts.trace {
        return traced(opts, plan, &inputs, fleet, outcome);
    }

    let mut reference = Reference::new(inputs.write_seed);
    let mut load = TopkLoad::new(&inputs.keys);
    let mut tails = Tails::default();
    let (window, env) = env::around_window(|| {
        run_segments(
            plan,
            |i| load.request(&mut fleet.client, i),
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

    let single = start_model_node(&inputs, None)?;
    verify(single.server.addr(), &inputs, &load, opts.sabotage, &mut outcome)?;
    single.server.shutdown();

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
    tear_down(fleet);
    Ok(outcome)
}

/// The traced run; the replay walks one request down socket →
/// `Gateway::topk` → worker socket → worker `Router::handle` →
/// `ScoringEngine::partial_top_k` → `combine_rows`.
fn traced(
    opts: &RunOpts,
    plan: Plan,
    inputs: &Inputs,
    mut fleet: Fleet,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let gateway_addr = fleet.gateway.addr();
    let nodes: Vec<SocketAddr> =
        fleet.workers.iter().map(|w| w.server.addr()).chain([gateway_addr]).collect();
    let TracedTopk { plain, traced, load, before, after, recorder, window, env } =
        traced_topk_windows(&mut fleet.client, &nodes, &inputs.keys, plan)?;
    outcome.env(&env);
    outcome.attempted = traced.attempted;
    outcome.failed = traced.failed;
    finish_spans(&mut outcome, "gateway_small", recorder.spans())?;

    let single = start_model_node(inputs, None)?;
    verify(single.server.addr(), inputs, &load, opts.sabotage, &mut outcome)?;

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
    let gateway_after = after.last().expect("the gateway was scraped");
    layers.insert(
        "serve.gateway.scatter_s_p50",
        gateway_after.get(r#"kg_serve_gateway_scatter_seconds{endpoint="/topk",quantile="0.5"}"#),
    );
    layers.insert(
        "serve.gateway.merge_s_p50",
        gateway_after.get(r#"kg_serve_gateway_merge_seconds{endpoint="/topk",quantile="0.5"}"#),
    );
    layers.insert("datasets.generate_s", inputs.generate_s);

    // Probes, on fresh keys beyond anything the windows asked for.
    let fresh = FreshKeys::after(&inputs.keys, traced.issued + (1 << 20));
    let fresh_body = || fresh.next_query(MODEL);
    let worker = &fleet.workers[0];
    let engine = worker.entry.engine();
    let graph = worker.entry.live().snapshot();
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
        let t = fresh_body().1;
        (t, graph.known_answers(t, QuerySide::Tail).into_owned())
    });
    layers.insert(
        "models.engine.rank_counts_ms",
        probes::rank_counts_ms(engine, &worker.filter, &inputs.base[..64]),
    );
    layers.insert("serve.json.parse_us.topk", probes::json_parse_us(&fresh_body().0));
    let worker_router = Router::new(Arc::clone(&worker.registry));
    layers.insert(
        "serve.router.handle_us.shard_topk",
        probes::router_handle_us(&worker_router, "/shard/topk", || fresh_body().0)?,
    );
    let single_router = Router::new(Arc::clone(&single.registry));
    layers.insert(
        "serve.router.handle_us.topk_miss",
        probes::router_handle_us(&single_router, "/topk", || fresh_body().0)?,
    );
    probes::transport_probes(layers, gateway_addr)?;

    // The gateway called directly, without its own server hop (a second
    // gateway over the same workers; its prober is off).
    let direct = gateway_over(&fleet.workers, Some(Duration::ZERO))?;
    let mut failure = None;
    let gateway_s = probes::median_secs(|| {
        let response = direct.topk(&fresh_body().0);
        if response.status != 200 {
            failure = Some(format!("Gateway::topk: status {}: {}", response.status, response.body));
        }
    });
    layers.insert("serve.gateway.topk_call_us", gateway_s * 1e6);
    let score = score_body(MODEL, &inputs.base[..16]);
    let score_s = probes::median_secs(|| {
        let response = direct.score(&score);
        if response.status != 200 {
            failure =
                Some(format!("Gateway::score: status {}: {}", response.status, response.body));
        }
    });
    if let Some(f) = failure {
        return Err(f);
    }
    layers.insert("serve.gateway.score_call_us", score_s * 1e6);

    // Replay, round-robin over the boundaries.
    let range = worker.entry.shard_range();
    let mut gateway_socket = probes::ReplaySocket::open(gateway_addr, "/topk")?;
    let mut single_socket = probes::ReplaySocket::open(single.server.addr(), "/topk")?;
    let mut worker_socket = probes::ReplaySocket::open(worker.server.addr(), "/shard/topk")?;
    let mut kernel = probes::KernelTeam::new(range.len(), DIM, 2);
    let secs = probes::interleaved_median_secs(&mut [
        &mut || {
            gateway_socket.post(&fresh_body().0);
            None
        },
        &mut || {
            std::hint::black_box(direct.topk(&fresh_body().0));
            None
        },
        &mut || {
            worker_socket.post(&fresh_body().0);
            None
        },
        &mut || {
            std::hint::black_box(worker_router.handle("POST", "/shard/topk", &fresh_body().0));
            None
        },
        &mut || {
            let t = fresh_body().1;
            let known = graph.known_answers(t, QuerySide::Tail);
            std::hint::black_box(engine.partial_top_k(
                t,
                QuerySide::Tail,
                &known,
                10,
                range.clone(),
                2,
            ));
            None
        },
        &mut || Some(kernel.pass()),
        &mut || {
            single_socket.post(&fresh_body().0);
            None
        },
    ]);
    if let Some(f) = gateway_socket.failure.or(single_socket.failure).or(worker_socket.failure) {
        return Err(f);
    }
    let [socket_s, gateway_s, worker_socket_s, shard_handle_s, engine_s, kernel_s, single_s] =
        secs[..]
    else {
        unreachable!("seven boundaries were measured")
    };
    layers.insert("serve.gateway.overhead_us", (socket_s - single_s) * 1e6);
    let selfs = [
        (
            "trace.self_ms.transport",
            (socket_s - gateway_s).max(0.0) + (worker_socket_s - shard_handle_s).max(0.0),
        ),
        ("trace.self_ms.gateway", gateway_s - worker_socket_s),
        ("trace.self_ms.serve", shard_handle_s - engine_s),
        ("trace.self_ms.engine", engine_s - kernel_s),
        ("trace.self_ms.kernel", kernel_s),
    ];
    let mut sum_ms = 0.0;
    for (name, secs) in selfs {
        let ms = secs.max(0.0) * 1e3;
        layers.insert(name, ms);
        sum_ms += ms;
    }
    trace_consistency(&mut outcome, sum_ms, summary.p50_ms);
    single.server.shutdown();
    tear_down(fleet);
    Ok(outcome)
}
