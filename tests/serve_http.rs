//! Integration tests for `kg-serve`: a real server on an ephemeral port,
//! driven over TCP, with responses checked bit-for-bit against direct
//! library calls — including a concurrent-client run that exercises the
//! `/score` batcher, keep-alive/pipelining parity against the serial
//! path, and the connection-lifecycle regressions (clean EOF close,
//! duplicate `Content-Length`, header caps, idle timeout, 503 admission).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use kgeval::core::sample::seeded_rng;
use kgeval::core::{FilterIndex, Triple};
use kgeval::datasets::{generate, SyntheticKgConfig};
use kgeval::eval::{evaluate_sampled, TieBreak};
use kgeval::models::{build_model, train, KgcModel, ModelKind, TrainConfig};
use kgeval::recommend::{sample_candidates, SamplingStrategy};
use kgeval::serve::{
    client, serve, HttpMetrics, Json, ModelRegistry, RegistryConfig, Router, ServerConfig,
    ServerHandle,
};

struct Fixture {
    server: ServerHandle,
    model: Arc<dyn KgcModel>,
    filter: Arc<FilterIndex>,
    test: Vec<Triple>,
    threads: usize,
    metrics: Arc<HttpMetrics>,
}

impl Fixture {
    fn start() -> Fixture {
        Fixture::start_with(ServerConfig { workers: 8, ..Default::default() })
    }

    fn start_with(config: ServerConfig) -> Fixture {
        let dataset = generate(&SyntheticKgConfig {
            num_entities: 200,
            num_relations: 5,
            num_types: 6,
            num_triples: 1500,
            seed: 13,
            ..Default::default()
        });
        let mut model = build_model(
            ModelKind::DistMult,
            dataset.num_entities(),
            dataset.num_relations(),
            16,
            99,
        );
        train(
            model.as_mut(),
            dataset.train.triples(),
            &TrainConfig { epochs: 3, ..Default::default() },
            None,
        );
        let model: Arc<dyn KgcModel> = Arc::from(model as Box<dyn KgcModel>);
        let filter = Arc::new(dataset.filter.clone());
        let registry = Arc::new(ModelRegistry::new());
        registry.register("m", Arc::clone(&model), Arc::clone(&filter));
        let metrics = Arc::clone(registry.metrics());
        let router = Router::new(Arc::clone(&registry));
        let server = serve(router, &config).expect("bind");
        let threads = kgeval::core::parallel::default_threads();
        Fixture { server, model, filter, test: dataset.test.clone(), threads, metrics }
    }

    fn triples_json(&self, triples: &[Triple]) -> String {
        triples
            .iter()
            .map(|t| format!("[{},{},{}]", t.head.0, t.relation.0, t.tail.0))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[test]
fn score_roundtrip_matches_direct_calls_bit_for_bit() {
    let fx = Fixture::start();
    let triples: Vec<Triple> = fx.test.iter().take(16).copied().collect();
    let body = format!("{{\"model\":\"m\",\"triples\":[{}]}}", fx.triples_json(&triples));
    let (status, response) = client::post_json(fx.server.addr(), "/score", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let parsed = Json::parse(&response).unwrap();
    let scores = parsed.get("scores").and_then(Json::as_array).unwrap();
    assert_eq!(scores.len(), triples.len());
    for (t, s) in triples.iter().zip(scores) {
        let direct = fx.model.score(t.head, t.relation, t.tail);
        let served = s.as_f64().unwrap() as f32;
        assert_eq!(served.to_bits(), direct.to_bits(), "score mismatch for {t:?}");
    }
    fx.server.shutdown();
}

#[test]
fn topk_matches_a_full_scoring_pass() {
    let fx = Fixture::start();
    let q = fx.test[0];
    let body = format!(
        "{{\"model\":\"m\",\"queries\":[{{\"head\":{},\"relation\":{}}},{{\"relation\":{},\"tail\":{}}}],\"k\":7}}",
        q.head.0, q.relation.0, q.relation.0, q.tail.0
    );
    let (status, response) = client::post_json(fx.server.addr(), "/topk", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let parsed = Json::parse(&response).unwrap();
    let results = parsed.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 2);

    use kgeval::core::triple::QuerySide;
    for (result, side) in results.iter().zip([QuerySide::Tail, QuerySide::Head]) {
        let entities: Vec<usize> = result
            .get("entities")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_usize)
            .collect();
        let scores: Vec<f64> = result
            .get("scores")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(entities.len(), 7);
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "descending order");

        // Recompute: full scoring pass, drop known answers, take the best 7.
        let mut all = vec![0.0f32; fx.model.num_entities()];
        fx.model.score_all(q, side, &mut all);
        let known = fx.filter.known_answers(q, side);
        let mut ranked: Vec<(usize, f32)> = all
            .iter()
            .enumerate()
            .filter(|(e, _)| known.binary_search(&kgeval::core::EntityId(*e as u32)).is_err())
            .map(|(e, &s)| (e, s))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        let expected: Vec<usize> = ranked.iter().take(7).map(|&(e, _)| e).collect();
        assert_eq!(entities, expected, "top-k disagrees with the full pass on side {side:?}");
        for (e, s) in entities.iter().zip(&scores) {
            assert_eq!((*s as f32).to_bits(), all[*e].to_bits());
        }
    }
    fx.server.shutdown();
}

#[test]
fn eval_agrees_with_evaluate_sampled_bit_for_bit() {
    let fx = Fixture::start();
    let triples: Vec<Triple> = fx.test.iter().take(40).copied().collect();
    let (n_s, seed) = (25usize, 4242u64);
    let body = format!(
        "{{\"model\":\"m\",\"n_s\":{n_s},\"seed\":{seed},\"include_ranks\":true,\"triples\":[{}]}}",
        fx.triples_json(&triples)
    );
    let (status, response) = client::post_json(fx.server.addr(), "/eval", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let parsed = Json::parse(&response).unwrap();

    let samples = sample_candidates(
        SamplingStrategy::Random,
        fx.model.num_entities(),
        fx.model.num_relations(),
        n_s,
        None,
        None,
        &mut seeded_rng(seed),
    );
    let direct = evaluate_sampled(
        fx.model.as_ref(),
        &triples,
        fx.filter.as_ref(),
        &samples,
        TieBreak::Mean,
        fx.threads,
    );

    let m = parsed.get("metrics").unwrap();
    for (field, expected) in [
        ("mrr", direct.metrics.mrr),
        ("hits1", direct.metrics.hits1),
        ("hits3", direct.metrics.hits3),
        ("hits10", direct.metrics.hits10),
        ("mean_rank", direct.metrics.mean_rank),
    ] {
        let served = m.get(field).and_then(Json::as_f64).unwrap();
        assert_eq!(served.to_bits(), expected.to_bits(), "{field}: {served} != {expected}");
    }
    let ranks: Vec<f64> = parsed
        .get("ranks")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    assert_eq!(ranks, direct.ranks, "per-query ranks must round-trip exactly");

    // Same request again: sample cache hit, same bits.
    let (_, response2) = client::post_json(fx.server.addr(), "/eval", &body).unwrap();
    let parsed2 = Json::parse(&response2).unwrap();
    assert_eq!(parsed2.get("sample_cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(
        parsed2.get("metrics").unwrap().get("mrr").and_then(Json::as_f64),
        m.get("mrr").and_then(Json::as_f64)
    );
    fx.server.shutdown();
}

#[test]
fn concurrent_clients_exercise_the_batcher_and_stay_correct() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    const CLIENTS: usize = 12;

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let triples: Vec<Triple> = fx.test.iter().skip(c * 3).take(5 + c % 4).copied().collect();
        let body = format!("{{\"model\":\"m\",\"triples\":[{}]}}", fx.triples_json(&triples));
        handles.push(std::thread::spawn(move || {
            let (status, response) = client::post_json(addr, "/score", &body).unwrap();
            (status, response, triples)
        }));
    }
    for h in handles {
        let (status, response, triples) = h.join().unwrap();
        assert_eq!(status, 200, "{response}");
        let parsed = Json::parse(&response).unwrap();
        let scores = parsed.get("scores").and_then(Json::as_array).unwrap();
        assert_eq!(scores.len(), triples.len());
        for (t, s) in triples.iter().zip(scores) {
            let direct = fx.model.score(t.head, t.relation, t.tail);
            assert_eq!(
                (s.as_f64().unwrap() as f32).to_bits(),
                direct.to_bits(),
                "concurrent batching corrupted the score of {t:?}"
            );
        }
    }

    // The batcher saw all 12 jobs, and the metrics agree.
    let (_, prom) = client::get(addr, "/metrics").unwrap();
    let jobs: u64 = prom
        .lines()
        .find(|l| l.starts_with("kg_serve_score_batch_jobs_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert_eq!(jobs, CLIENTS as u64, "every request went through the batcher");
    assert_eq!(fx.metrics.value("kg_serve_requests_total", &["/score"]), Some(CLIENTS as f64));
    let (p50, p99) = fx.metrics.latency_quantiles("/score").unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "latency quantiles populated: {p50} {p99}");
    fx.server.shutdown();
}

#[test]
fn concurrent_topk_clients_coalesce_and_stay_correct() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    const CLIENTS: usize = 10;

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let q = fx.test[c % fx.test.len()];
        let body = if c % 2 == 0 {
            format!(
                "{{\"model\":\"m\",\"queries\":[{{\"head\":{},\"relation\":{}}}],\"k\":{}}}",
                q.head.0,
                q.relation.0,
                3 + c
            )
        } else {
            format!(
                "{{\"model\":\"m\",\"queries\":[{{\"relation\":{},\"tail\":{}}}],\"k\":{}}}",
                q.relation.0,
                q.tail.0,
                3 + c
            )
        };
        handles.push(std::thread::spawn(move || {
            let (status, response) = client::post_json(addr, "/topk", &body).unwrap();
            (c, q, status, response)
        }));
    }
    use kgeval::core::triple::QuerySide;
    for h in handles {
        let (c, q, status, response) = h.join().unwrap();
        assert_eq!(status, 200, "{response}");
        let side = if c % 2 == 0 { QuerySide::Tail } else { QuerySide::Head };
        let parsed = Json::parse(&response).unwrap();
        let result = &parsed.get("results").and_then(Json::as_array).unwrap()[0];
        let entities: Vec<usize> = result
            .get("entities")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_usize)
            .collect();
        assert_eq!(entities.len(), 3 + c);
        // Recompute the expectation with a direct full scoring pass.
        let mut all = vec![0.0f32; fx.model.num_entities()];
        fx.model.score_all(q, side, &mut all);
        let known = fx.filter.known_answers(q, side);
        let mut ranked: Vec<(usize, f32)> = all
            .iter()
            .enumerate()
            .filter(|(e, _)| known.binary_search(&kgeval::core::EntityId(*e as u32)).is_err())
            .map(|(e, &s)| (e, s))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        let expected: Vec<usize> = ranked.iter().take(3 + c).map(|&(e, _)| e).collect();
        assert_eq!(entities, expected, "client {c}: coalesced top-k diverged from a direct pass");
    }

    // Every request went through the TopKBatcher, in (far) fewer passes
    // than requests when any coalescing happened.
    let (_, prom) = client::get(addr, "/metrics").unwrap();
    let metric = |name: &str| -> u64 {
        prom.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from:\n{prom}"))
    };
    assert_eq!(metric("kg_serve_topk_batch_jobs_total"), CLIENTS as u64);
    assert_eq!(metric("kg_serve_topk_batch_queries_total"), CLIENTS as u64);
    assert!(metric("kg_serve_topk_batches_total") <= CLIENTS as u64);
    fx.server.shutdown();
}

#[test]
fn expect_continue_roundtrip_over_the_wire_matches_plain_post() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    let triples: Vec<Triple> = fx.test.iter().take(8).copied().collect();
    let body = format!("{{\"model\":\"m\",\"triples\":[{}]}}", fx.triples_json(&triples));
    let (plain_status, plain_body) = client::post_json(addr, "/score", &body).unwrap();
    let mut conn = client::Connection::open(addr).unwrap();
    let (status, got) = conn.post_json_expect_continue("/score", &body).unwrap();
    assert_eq!(status, plain_status);
    assert_eq!(got, plain_body, "the 100-continue handshake must not change the bytes served");
    drop(conn);
    fx.server.shutdown();
}

#[test]
fn topk_responses_identical_for_every_shard_config() {
    // The same model served under different engine shard counts must send
    // byte-identical /topk result payloads over the wire.
    let model_for = || {
        let m = build_model(ModelKind::ComplEx, 120, 4, 16, 7);
        Arc::from(m as Box<dyn KgcModel>) as Arc<dyn KgcModel>
    };
    let train: Vec<Triple> =
        (0..60u32).map(|i| Triple::new(i % 120, i % 4, (i * 7 + 3) % 120)).collect();
    let filter = Arc::new(FilterIndex::from_slices(&[&train]));
    let body =
        r#"{"model":"m","queries":[{"head":5,"relation":2},{"relation":1,"tail":77}],"k":12}"#;
    let single = r#"{"model":"m","queries":[{"head":33,"relation":0}],"k":120}"#;
    let serve_with = |shards: usize| {
        let registry = Arc::new(ModelRegistry::with_config(RegistryConfig {
            shards,
            ..RegistryConfig::default()
        }));
        registry.register("m", model_for(), Arc::clone(&filter));
        let server = serve(Router::new(registry), &ServerConfig::default()).expect("bind");
        let (s1, multi) = client::post_json(server.addr(), "/topk", body).unwrap();
        let (s2, one) = client::post_json(server.addr(), "/topk", single).unwrap();
        server.shutdown();
        assert_eq!((s1, s2), (200, 200), "{multi} {one}");
        let results = |b: &str| Json::parse(b).unwrap().get("results").unwrap().to_string();
        (results(&multi), results(&one))
    };
    let baseline = serve_with(1);
    for shards in [3usize, 8, 120] {
        assert_eq!(serve_with(shards), baseline, "shards={shards} changed /topk bytes");
    }
}

#[test]
fn admin_hot_reload_swaps_the_model_without_downtime() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    // Persist a differently-seeded model as the replacement snapshot.
    let replacement = build_model(
        ModelKind::DistMult,
        fx.model.num_entities(),
        fx.model.num_relations(),
        16,
        123_456,
    );
    let dir = std::env::temp_dir().join(format!("kg-serve-http-admin-{}", std::process::id()));
    let path = dir.join("v2.kgev");
    kgeval::models::io::save_model_to_path(replacement.as_ref(), ModelKind::DistMult, &path)
        .unwrap();

    let t = fx.test[0];
    let score_body =
        format!("{{\"model\":\"m\",\"triples\":[[{},{},{}]]}}", t.head.0, t.relation.0, t.tail.0);
    let served_score = |label: &str| {
        let (status, response) = client::post_json(addr, "/score", &score_body).unwrap();
        assert_eq!(status, 200, "{label}: {response}");
        Json::parse(&response).unwrap().get("scores").and_then(Json::as_array).unwrap()[0]
            .as_f64()
            .unwrap() as f32
    };
    let before = served_score("before reload");
    assert_eq!(before.to_bits(), fx.model.score(t.head, t.relation, t.tail).to_bits());

    let reload = format!("{{\"name\":\"m\",\"path\":\"{}\"}}", path.display());
    let (status, response) = client::post_json(addr, "/admin/models", &reload).unwrap();
    assert_eq!(status, 200, "{response}");
    let parsed = Json::parse(&response).unwrap();
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("replaced"));

    let after = served_score("after reload");
    assert_eq!(
        after.to_bits(),
        replacement.score(t.head, t.relation, t.tail).to_bits(),
        "served scores must come from the reloaded snapshot"
    );
    // /healthz still lists exactly one model under the same name.
    let (_, health) = client::get(addr, "/healthz").unwrap();
    let models = Json::parse(&health).unwrap();
    assert_eq!(models.get("models").and_then(Json::as_array).map(<[Json]>::len), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
    fx.server.shutdown();
}

/// A snapshot whose header disagrees with what its family can build is a
/// 422 with the reason, and the model already registered keeps serving.
/// (These headers used to reach the model constructor unchecked: a panic,
/// hence a 500, for the first two, and an 8 TiB allocation that aborted
/// the process for the third.)
#[test]
fn admin_reload_of_a_hostile_snapshot_header_is_a_422_and_the_server_keeps_serving() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    // Format-2 header: magic, version, kind tag, f32 hint, shape, table count.
    let header = |kind_tag: u8, [ne, nr, dim]: [u64; 3], n_tables: u8| {
        let mut raw = b"KGEV".to_vec();
        raw.extend(2u16.to_le_bytes());
        raw.extend([kind_tag, 0]);
        for field in [ne, nr, dim] {
            raw.extend(field.to_le_bytes());
        }
        raw.push(n_tables);
        raw
    };
    let mut odd_rotate = header(4, [2, 1, 3], 2);
    for len in [6u64, 1] {
        odd_rotate.extend(len.to_le_bytes());
        odd_rotate.extend(std::iter::repeat_n(0u8, 4 * len as usize));
    }
    let mut conve_dim_5 = header(6, [2, 1, 5], 7);
    conve_dim_5.extend([0u8; 64]);
    let mut huge = header(0, [1 << 36, 1, 32], 2);
    huge.extend((32u64 << 36).to_le_bytes());

    let dir = std::env::temp_dir().join(format!("kg-serve-http-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let t = fx.test[0];
    let score_body =
        format!("{{\"model\":\"m\",\"triples\":[[{},{},{}]]}}", t.head.0, t.relation.0, t.tail.0);
    let want = fx.model.score(t.head, t.relation, t.tail).to_bits();
    for (file, bytes, reason) in [
        ("rotate.kgev", odd_rotate, "RotatE needs an even dimension, got 3"),
        ("conve.kgev", conve_dim_5, "ConvE dim must be a positive multiple of 4, got 5"),
        ("huge.kgev", huge, "truncated table payload"),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, bytes).unwrap();
        let reload = format!("{{\"name\":\"m\",\"path\":\"{}\"}}", path.display());
        let (status, response) = client::post_json(addr, "/admin/models", &reload).unwrap();
        assert_eq!(status, 422, "{file}: {response}");
        assert!(response.contains(reason), "{file}: {response}");
        let (status, response) = client::post_json(addr, "/score", &score_body).unwrap();
        assert_eq!(status, 200, "after {file}: {response}");
        let served = Json::parse(&response).unwrap().get("scores").and_then(Json::as_array).unwrap()
            [0]
        .as_f64()
        .unwrap() as f32;
        assert_eq!(served.to_bits(), want, "after {file}: the old model still serves");
    }
    let _ = std::fs::remove_dir_all(&dir);
    fx.server.shutdown();
}

#[test]
fn keepalive_connection_reuses_one_socket_and_matches_fresh_connections() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    let triples: Vec<Triple> = fx.test.iter().take(6).copied().collect();
    let score_body = format!("{{\"model\":\"m\",\"triples\":[{}]}}", fx.triples_json(&triples));
    let topk_body = format!(
        "{{\"model\":\"m\",\"queries\":[{{\"head\":{},\"relation\":{}}}],\"k\":5}}",
        fx.test[0].head.0, fx.test[0].relation.0
    );

    // Baseline: fresh connection per request (Connection: close path).
    let (s_score, fresh_score) = client::post_json(addr, "/score", &score_body).unwrap();
    let (s_topk, fresh_topk) = client::post_json(addr, "/topk", &topk_body).unwrap();
    assert_eq!((s_score, s_topk), (200, 200));

    let reuses = || fx.metrics.value("kg_serve_keepalive_reuses_total", &[]).unwrap();
    let reuses_before = reuses();
    let mut conn = client::Connection::open(addr).unwrap();
    for round in 0..4 {
        let (status, body) = conn.post_json("/score", &score_body).unwrap();
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(body, fresh_score, "round {round}: keep-alive body diverged from serial");
        let (status, body) = conn.post_json("/topk", &topk_body).unwrap();
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(body, fresh_topk, "round {round}: keep-alive body diverged from serial");
    }
    assert!(!conn.server_closed(), "8 requests fit comfortably in the per-connection cap");
    // 8 requests on one socket: 7 were reuses.
    assert_eq!(reuses() - reuses_before, 7.0);
    drop(conn);
    fx.server.shutdown();
}

#[test]
fn pipelined_mixed_requests_match_serial_byte_for_byte() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    let score_a = format!(
        "{{\"model\":\"m\",\"triples\":[{}]}}",
        fx.triples_json(&fx.test.iter().take(4).copied().collect::<Vec<_>>())
    );
    let score_b = format!(
        "{{\"model\":\"m\",\"triples\":[{}]}}",
        fx.triples_json(&fx.test.iter().skip(4).take(3).copied().collect::<Vec<_>>())
    );
    let topk = format!(
        "{{\"model\":\"m\",\"queries\":[{{\"head\":{},\"relation\":{}}},{{\"relation\":{},\"tail\":{}}}],\"k\":9}}",
        fx.test[1].head.0, fx.test[1].relation.0, fx.test[2].relation.0, fx.test[2].tail.0
    );
    let eval = format!(
        "{{\"model\":\"m\",\"n_s\":15,\"seed\":77,\"triples\":[{}]}}",
        fx.triples_json(&fx.test.iter().take(10).copied().collect::<Vec<_>>())
    );
    // Warm the /eval sample cache so serial and pipelined runs both report
    // "hit" — the responses must then be byte-identical.
    let (warm_status, _) = client::post_json(addr, "/eval", &eval).unwrap();
    assert_eq!(warm_status, 200);

    let requests: Vec<(&str, &str, Option<&str>)> = vec![
        ("POST", "/score", Some(&score_a)),
        ("POST", "/topk", Some(&topk)),
        ("POST", "/eval", Some(&eval)),
        ("POST", "/score", Some(&score_b)),
        ("POST", "/topk", Some(&topk)),
    ];

    // Serial: each request on its own fresh connection.
    let serial: Vec<(u16, String)> =
        requests.iter().map(|(m, p, b)| client::request(addr, m, p, *b).unwrap()).collect();

    // Pipelined: all five written before any response is read.
    let mut conn = client::Connection::open(addr).unwrap();
    let pipelined = conn.pipeline(&requests).unwrap();

    // `/eval` reports its own wall-clock `"seconds"`, the one field that
    // legitimately differs between two executions; everything else must be
    // byte-identical.
    let canon = |body: &str| match Json::parse(body) {
        Ok(Json::Obj(fields)) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| k != "seconds").collect()).to_string()
        }
        _ => body.to_string(),
    };
    assert_eq!(pipelined.len(), serial.len());
    for (i, (s, p)) in serial.iter().zip(&pipelined).enumerate() {
        assert_eq!(p.0, s.0, "request {i}: status diverged");
        if requests[i].1 == "/eval" {
            assert_eq!(canon(&p.1), canon(&s.1), "request {i}: pipelined body != serial body");
        } else {
            assert_eq!(p.1, s.1, "request {i}: pipelined body != serial body");
        }
    }
    drop(conn);
    fx.server.shutdown();
}

#[test]
fn idle_keepalive_connections_are_closed_cleanly() {
    let fx = Fixture::start();
    // Short-idle server alongside the fixture's default one.
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::clone(&fx.model), Arc::clone(&fx.filter));
    let metrics = Arc::clone(registry.metrics());
    let server = serve(
        Router::new(registry),
        &ServerConfig {
            workers: 2,
            idle_timeout: Duration::from_millis(150),
            ..Default::default()
        },
    )
    .expect("bind");

    let mut conn = client::Connection::open(server.addr()).unwrap();
    let (status, _) = conn.get("/healthz").unwrap();
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(600));
    // The server hung up while we idled; the next request finds a dead
    // socket (write may succeed into the OS buffer, the read sees EOF).
    assert!(conn.get("/healthz").is_err(), "idle connection must be closed by the server");
    // … and the close was clean: no parse error, no error-status response.
    assert_eq!(
        metrics.value("kg_serve_requests_total", &[kgeval::serve::HTTP_PARSE_ENDPOINT]),
        None
    );
    let text = metrics.render();
    let recorded: Vec<&str> =
        text.lines().filter(|l| l.starts_with("kg_serve_requests_total{")).collect();
    assert_eq!(
        recorded,
        ["kg_serve_requests_total{endpoint=\"/healthz\"} 1"],
        "only the one real request was recorded"
    );
    server.shutdown();
    fx.server.shutdown();
}

#[test]
fn saturated_server_rejects_connections_with_503_and_retry_after() {
    let dataset_model: Arc<dyn KgcModel> =
        Arc::from(build_model(ModelKind::DistMult, 50, 3, 8, 5) as Box<dyn KgcModel>);
    let triples = [Triple::new(0, 0, 1)];
    let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", dataset_model, filter);
    let metrics = Arc::clone(registry.metrics());
    let server = serve(
        Router::new(registry),
        &ServerConfig { workers: 1, max_connections: 1, retry_after_secs: 7, ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr();

    // Fill the budget: one keep-alive connection, held open.
    let mut held = client::Connection::open(addr).unwrap();
    let (status, _) = held.get("/healthz").unwrap();
    assert_eq!(status, 200);

    // Anyone else is turned away at the door with 503 + Retry-After.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut rejected = String::new();
    s.read_to_string(&mut rejected).unwrap();
    assert!(rejected.starts_with("HTTP/1.1 503 Service Unavailable"), "got: {rejected}");
    assert!(rejected.contains("Retry-After: 7"), "got: {rejected}");
    assert!(rejected.contains("Connection: close"), "got: {rejected}");
    assert!(metrics.value("kg_serve_rejected_connections_total", &[]) >= Some(1.0));

    // Releasing the held connection frees the budget again.
    drop(held);
    let mut ok = false;
    for _ in 0..100 {
        if let Ok((200, _)) = client::get(addr, "/healthz") {
            ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(ok, "server must admit connections again once the budget frees");
    server.shutdown();
}

#[test]
fn http_layer_rejections_are_counted_in_metrics() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    // Duplicate Content-Length: the smuggling-shaped framing bug.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /score HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");

    // A bare connect/close must NOT count as a parse failure …
    drop(TcpStream::connect(addr).unwrap());

    // … but the framing rejection above must show up in /metrics under the
    // synthetic endpoint label (it never reached the router).
    let (_, prom) = client::get(addr, "/metrics").unwrap();
    assert!(
        prom.contains("kg_serve_request_errors_total{endpoint=\"http_parse\"} 1"),
        "exactly one parse failure recorded: {prom}"
    );
    assert!(prom.contains("kg_serve_connections_total"), "{prom}");
    assert_eq!(
        fx.metrics.value("kg_serve_requests_total", &[kgeval::serve::HTTP_PARSE_ENDPOINT]),
        Some(1.0)
    );
    fx.server.shutdown();
}

#[test]
fn c10k_idle_keepalive_connections_coexist_with_live_traffic() {
    // The reactor's reason to exist: ~1k mostly-idle keep-alive
    // connections parked on a 4-worker pool, while interleaved /score and
    // /topk traffic is answered byte-identically to an unloaded server.
    // Under the old thread-per-connection model this test could not pass
    // with any worker count below the connection count.
    const IDLERS: usize = 1000;
    let fx = Fixture::start_with(ServerConfig {
        workers: 4,
        max_connections: IDLERS + 64,
        // Long enough that parked idlers survive the whole test.
        idle_timeout: Duration::from_secs(120),
        ..Default::default()
    });
    let addr = fx.server.addr();

    // Reference responses captured before any load exists.
    let score_body =
        format!("{{\"model\":\"m\",\"triples\":[{}]}}", fx.triples_json(&fx.test[..8]));
    let q = fx.test[0];
    let topk_body = format!(
        "{{\"model\":\"m\",\"queries\":[{{\"head\":{},\"relation\":{}}}],\"k\":5}}",
        q.head.0, q.relation.0
    );
    let (s0, score_ref) = client::post_json(addr, "/score", &score_body).unwrap();
    let (t0, topk_ref) = client::post_json(addr, "/topk", &topk_body).unwrap();
    assert_eq!((s0, t0), (200, 200), "{score_ref} / {topk_ref}");

    // Park the idlers, each proven live with one request so the server has
    // actually served (and kept) every one of them.
    let mut idlers: Vec<client::Connection> = Vec::with_capacity(IDLERS);
    for i in 0..IDLERS {
        let mut conn =
            client::Connection::open(addr).unwrap_or_else(|e| panic!("open idler {i}: {e}"));
        let (status, body) =
            conn.get("/healthz").unwrap_or_else(|e| panic!("idler {i} first request: {e}"));
        assert_eq!(status, 200, "idler {i}: {body}");
        idlers.push(conn);
    }
    let active = fx.metrics.value("kg_serve_connections_active", &[]).unwrap();
    assert!(active >= IDLERS as f64, "all idlers must be open concurrently, saw {active}");

    // Live traffic lands correctly while every idler stays parked.
    for round in 0..5 {
        let (status, body) = client::post_json(addr, "/score", &score_body).unwrap();
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(body, score_ref, "round {round}: /score must be byte-identical under load");
        let (status, body) = client::post_json(addr, "/topk", &topk_body).unwrap();
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(body, topk_ref, "round {round}: /topk must be byte-identical under load");
    }

    // Sampled idlers are still alive and serve the same bytes.
    for i in (0..IDLERS).step_by(97) {
        let (status, body) = idlers[i]
            .post_json("/score", &score_body)
            .unwrap_or_else(|e| panic!("idler {i} after load: {e}"));
        assert_eq!(status, 200, "idler {i} after load: {body}");
        assert_eq!(body, score_ref, "idler {i}: kept-alive /score parity");
        assert!(!idlers[i].server_closed(), "idler {i} must stay open");
    }
    drop(idlers);
    fx.server.shutdown();
}

#[test]
fn error_paths_do_not_wedge_the_server() {
    let fx = Fixture::start();
    let addr = fx.server.addr();
    for (path, body, expected) in [
        ("/score", r#"{"model":"ghost","triples":[[0,0,0]]}"#, 404),
        ("/score", r#"{"model":"m","triples":[[0,0,99999]]}"#, 422),
        ("/eval", r#"{"model":"m","triples":[[0,0,1]],"strategy":"static"}"#, 400),
        ("/eval", "{", 400),
        ("/nope", "{}", 404),
    ] {
        let (status, response) = client::post_json(addr, path, body).unwrap();
        assert_eq!(status, expected, "{path} {body} → {response}");
    }
    // Still serving.
    let (status, _) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    fx.server.shutdown();
}
