//! Live-graph end-to-end tests: a server fed `POST /triples` deltas must
//! answer `/topk` and `/eval` **byte-identically** to a server cold-loaded
//! with the same final graph, across all 7 model families; version-stale
//! `/eval` cache entries must miss (an insert between two identical calls
//! changes the answer); and the continuous-evaluation monitor must track
//! window slides and raise its drift alarm after a bad hot reload.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use kgeval::core::{FilterIndex, Triple};
use kgeval::datasets::{generate, SyntheticKgConfig};
use kgeval::models::{build_model, train, KgcModel, ModelKind, TrainConfig};
use kgeval::recommend::SamplingStrategy;
use kgeval::serve::{client, serve, Json, ModelRegistry, MonitorConfig, Router, ServerConfig};

const NUM_ENTITIES: usize = 60;
const NUM_RELATIONS: usize = 4;

fn family_dim(kind: ModelKind) -> usize {
    match kind {
        ModelKind::ConvE => 16,
        ModelKind::Rescal | ModelKind::TuckEr => 8,
        _ => 12,
    }
}

fn family_name(kind: ModelKind) -> String {
    format!("{kind:?}").to_lowercase()
}

/// The graph both servers must end up agreeing on.
fn final_triples() -> Vec<Triple> {
    (0..40u32)
        .map(|i| Triple::new(i % NUM_ENTITIES as u32, i % NUM_RELATIONS as u32, (i * 7 + 3) % 60))
        .collect()
}

/// Triples present at startup on the live server but absent from the final
/// graph — they must be deleted over the wire.
fn doomed_triples(final_set: &HashSet<Triple>) -> Vec<Triple> {
    let doomed: Vec<Triple> = (0..12u32)
        .map(|i| Triple::new((i * 5 + 1) % 60, (i + 2) % NUM_RELATIONS as u32, (i * 9 + 4) % 60))
        .filter(|t| !final_set.contains(t))
        .collect();
    assert!(doomed.len() >= 8, "fixture needs a meaningful delete set");
    doomed
}

fn registry_with_all_families(filter: Arc<FilterIndex>) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    for kind in ModelKind::ALL {
        let model = build_model(kind, NUM_ENTITIES, NUM_RELATIONS, family_dim(kind), 77);
        registry.register(
            family_name(kind),
            Arc::from(model as Box<dyn KgcModel>),
            Arc::clone(&filter),
        );
    }
    registry
}

fn triples_json(triples: &[Triple]) -> String {
    triples
        .iter()
        .map(|t| format!("[{},{},{}]", t.head.0, t.relation.0, t.tail.0))
        .collect::<Vec<_>>()
        .join(",")
}

/// Drop the fields that legitimately differ between a delta-fed server and
/// a cold-loaded one: `/eval`'s wall clock and its graph version (the live
/// server has applied deltas, the cold one is at version 0 — the *content*
/// must still match bit for bit).
fn canon(body: &str) -> String {
    match Json::parse(body) {
        Ok(Json::Obj(fields)) => Json::Obj(
            fields.into_iter().filter(|(k, _)| k != "seconds" && k != "graph_version").collect(),
        )
        .to_string(),
        _ => body.to_string(),
    }
}

#[test]
fn live_deltas_match_a_cold_snapshot_byte_for_byte_for_all_families() {
    let finals = final_triples();
    let final_set: HashSet<Triple> = finals.iter().copied().collect();
    let doomed = doomed_triples(&final_set);
    // Live server starts from a stale graph: the first 25 final triples
    // plus everything doomed; the rest arrives as two wire deltas.
    let base: Vec<Triple> = finals.iter().take(25).chain(doomed.iter()).copied().collect();
    let added: Vec<Triple> = finals.iter().skip(25).copied().collect();

    let live = serve(
        Router::new(registry_with_all_families(Arc::new(FilterIndex::from_slices(&[&base])))),
        &ServerConfig { workers: 4, ..Default::default() },
    )
    .expect("bind live");
    let cold = serve(
        Router::new(registry_with_all_families(Arc::new(FilterIndex::from_slices(&[&finals])))),
        &ServerConfig { workers: 4, ..Default::default() },
    )
    .expect("bind cold");

    for kind in ModelKind::ALL {
        let model = family_name(kind);
        // Delta 1: part of the catch-up, plus a no-op insert (already
        // present) and a no-op delete (never present) that must be skipped.
        let noop_insert = finals[0];
        let noop_delete = Triple::new(59, 0, 59);
        assert!(!final_set.contains(&noop_delete) && !base.contains(&noop_delete));
        let body = format!(
            "{{\"model\":\"{model}\",\"insert\":[{}],\"delete\":[{}]}}",
            triples_json(&added[..8].iter().chain([&noop_insert]).copied().collect::<Vec<_>>()),
            triples_json(&doomed[..4]),
        );
        let (status, response) = client::post_json(live.addr(), "/triples", &body).unwrap();
        assert_eq!(status, 200, "{model}: {response}");
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(parsed.get("version").and_then(Json::as_usize), Some(1), "{response}");
        assert_eq!(parsed.get("inserted").and_then(Json::as_usize), Some(8), "no-op skipped");
        assert_eq!(parsed.get("deleted").and_then(Json::as_usize), Some(4));

        // Delta 2: the rest of the catch-up in one batch.
        let body = format!(
            "{{\"model\":\"{model}\",\"insert\":[{}],\"delete\":[{}]}}",
            triples_json(&added[8..]),
            triples_json(&doomed[4..]),
        );
        let (status, response) = client::post_json(live.addr(), "/triples", &body).unwrap();
        assert_eq!(status, 200, "{model}: {response}");
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(parsed.get("version").and_then(Json::as_usize), Some(2), "{response}");
        assert_eq!(
            parsed.get("known_triples").and_then(Json::as_usize),
            Some(final_set.len()),
            "{model}: live graph must now hold exactly the final triple set"
        );
    }

    // Every read endpoint must now be indistinguishable from the cold load.
    for kind in ModelKind::ALL {
        let model = family_name(kind);
        let requests = [
            (
                "/topk",
                format!(
                    r#"{{"model":"{model}","queries":[{{"head":2,"relation":1}},{{"relation":0,"tail":9}},{{"head":59,"relation":3}}],"k":7}}"#
                ),
            ),
            (
                "/topk",
                format!(
                    r#"{{"model":"{model}","queries":[{{"head":5,"relation":2}}],"k":500,"filtered":false}}"#
                ),
            ),
            // /eval twice: the repeat must be a version-valid cache hit on
            // BOTH servers (same "eval_cache" field), same bytes.
            (
                "/eval",
                format!(
                    r#"{{"model":"{model}","triples":[[0,1,2],[5,2,7],[9,0,4],[30,1,31],[44,0,45]],"n_s":12,"seed":9,"include_ranks":true}}"#
                ),
            ),
            (
                "/eval",
                format!(
                    r#"{{"model":"{model}","triples":[[0,1,2],[5,2,7],[9,0,4],[30,1,31],[44,0,45]],"n_s":12,"seed":9,"include_ranks":true}}"#
                ),
            ),
        ];
        for (path, body) in &requests {
            let (s_live, b_live) = client::post_json(live.addr(), path, body).unwrap();
            let (s_cold, b_cold) = client::post_json(cold.addr(), path, body).unwrap();
            assert_eq!(s_live, s_cold, "{model} {path}: status diverged ({b_live})");
            assert_eq!(s_live, 200, "{model} {path}: {b_live}");
            if *path == "/eval" {
                assert_eq!(canon(&b_live), canon(&b_cold), "{model} {path}: bytes diverged");
            } else {
                assert_eq!(b_live, b_cold, "{model} {path}: bytes diverged");
            }
        }
        // The version skew canon() hides is exactly the one we created.
        let (_, b) = client::post_json(
            live.addr(),
            "/eval",
            &format!(r#"{{"model":"{model}","triples":[[0,1,2]],"n_s":5,"seed":1}}"#),
        )
        .unwrap();
        assert_eq!(
            Json::parse(&b).unwrap().get("graph_version").and_then(Json::as_usize),
            Some(2),
            "{model}: /eval must report the version it computed against"
        );
    }

    // GET /admin/models reflects the post-delta state on the live server.
    let (status, body) = client::get(live.addr(), "/admin/models").unwrap();
    assert_eq!(status, 200, "{body}");
    let models = Json::parse(&body).unwrap();
    let models = models.get("models").and_then(Json::as_array).unwrap();
    assert_eq!(models.len(), ModelKind::ALL.len());
    for m in models {
        assert_eq!(m.get("entities").and_then(Json::as_usize), Some(NUM_ENTITIES));
        assert_eq!(m.get("relations").and_then(Json::as_usize), Some(NUM_RELATIONS));
        assert_eq!(m.get("graph_version").and_then(Json::as_usize), Some(2));
        assert_eq!(m.get("known_triples").and_then(Json::as_usize), Some(final_set.len()));
        assert!(m.get("family").and_then(Json::as_str).is_some());
        assert!(m.get("dim").and_then(Json::as_usize).unwrap() > 0);
    }

    // /healthz carries the per-model graph version too (satellite: worker
    // shard state; this node is unsharded, so worker_shard is null).
    let (_, health) = client::get(live.addr(), "/healthz").unwrap();
    let health = Json::parse(&health).unwrap();
    assert!(matches!(health.get("worker_shard"), Some(Json::Null)));
    let ranges = health.get("shard_ranges").and_then(Json::as_array).unwrap();
    assert_eq!(ranges.len(), ModelKind::ALL.len());
    for r in ranges {
        assert_eq!(r.get("graph_version").and_then(Json::as_usize), Some(2));
        assert_eq!(r.get("entities").and_then(Json::as_usize), Some(NUM_ENTITIES));
    }

    live.shutdown();
    cold.shutdown();
}

#[test]
fn insert_between_identical_evals_changes_the_answer_and_misses_the_cache() {
    // One query (0,0,1) over a near-empty graph: the sampled evaluation
    // ranks entity 1 against every other entity. Deterministic seeds make
    // the initial rank reproducibly > 1; inserting (0,0,e) for every other
    // e turns all competitors into known answers, forcing rank 1.
    let num_entities = 50usize;
    let base = [Triple::new(0, 0, 1)];
    let filter = Arc::new(FilterIndex::from_slices(&[&base]));
    let model = build_model(ModelKind::DistMult, num_entities, 2, 8, 3);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::from(model as Box<dyn KgcModel>), filter);
    let server = serve(Router::new(registry), &ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let eval_body = format!(r#"{{"model":"m","triples":[[0,0,1]],"n_s":{num_entities},"seed":1}}"#);
    let (status, first) = client::post_json(addr, "/eval", &eval_body).unwrap();
    assert_eq!(status, 200, "{first}");
    let first = Json::parse(&first).unwrap();
    assert_eq!(first.get("eval_cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(first.get("graph_version").and_then(Json::as_usize), Some(0));
    let mrr_before = first.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
    assert!(mrr_before < 1.0, "fixture must start with rank > 1, got mrr {mrr_before}");

    // Identical repeat: served from the eval cache, identical numbers.
    let (_, second) = client::post_json(addr, "/eval", &eval_body).unwrap();
    let second = Json::parse(&second).unwrap();
    assert_eq!(second.get("eval_cache").and_then(Json::as_str), Some("hit"));
    let mrr_cached = second.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
    assert_eq!(mrr_cached.to_bits(), mrr_before.to_bits());

    // Insert (0,0,e) for every e ≠ 1 and (h,0,1) for every h ≠ 0: both the
    // tail- and head-side keys of the evaluated triple are touched, so the
    // cached entry must be treated as stale, not served — and every
    // competitor on both sides becomes a known answer.
    let inserts: Vec<Triple> = (0..num_entities as u32)
        .filter(|&e| e != 1)
        .map(|e| Triple::new(0, 0, e))
        .chain((0..num_entities as u32).filter(|&h| h != 0).map(|h| Triple::new(h, 0, 1)))
        .collect();
    let body = format!(r#"{{"model":"m","insert":[{}]}}"#, triples_json(&inserts));
    let (status, response) = client::post_json(addr, "/triples", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let outcome = Json::parse(&response).unwrap();
    assert_eq!(outcome.get("version").and_then(Json::as_usize), Some(1));
    assert_eq!(outcome.get("inserted").and_then(Json::as_usize), Some(2 * (num_entities - 1)));

    // The same request now recomputes against the new graph: cache miss,
    // bumped version, and a different answer (all competitors filtered).
    let (_, third) = client::post_json(addr, "/eval", &eval_body).unwrap();
    let third = Json::parse(&third).unwrap();
    assert_eq!(
        third.get("eval_cache").and_then(Json::as_str),
        Some("miss"),
        "a version-stale cache entry must be a miss: {third:?}"
    );
    assert_eq!(third.get("graph_version").and_then(Json::as_usize), Some(1));
    let mrr_after = third.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
    assert_eq!(mrr_after, 1.0, "every competitor is now a known answer");
    assert_ne!(mrr_after.to_bits(), mrr_before.to_bits(), "the insert must change the answer");

    // And the repeat of the *new* state is a hit again.
    let (_, fourth) = client::post_json(addr, "/eval", &eval_body).unwrap();
    assert_eq!(Json::parse(&fourth).unwrap().get("eval_cache").and_then(Json::as_str), Some("hit"));

    // A write that touches neither key of the evaluated triple moves the
    // version but not the answer: the entry computed at version 1 is
    // still exact at version 2, so it hits and reports the version of the
    // graph it was served on.
    let body = r#"{"model":"m","insert":[[7,1,9]]}"#;
    let (status, response) = client::post_json(addr, "/triples", body).unwrap();
    assert_eq!(status, 200, "{response}");
    assert_eq!(Json::parse(&response).unwrap().get("version").and_then(Json::as_usize), Some(2));
    let (_, fifth) = client::post_json(addr, "/eval", &eval_body).unwrap();
    let fifth = Json::parse(&fifth).unwrap();
    assert_eq!(fifth.get("eval_cache").and_then(Json::as_str), Some("hit"), "{fifth:?}");
    assert_eq!(fifth.get("graph_version").and_then(Json::as_usize), Some(2));
    let mrr_served = fifth.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
    assert_eq!(mrr_served.to_bits(), mrr_after.to_bits());
    server.shutdown();
}

#[test]
fn monitor_tracks_deltas_and_raises_the_drift_alarm_on_a_bad_reload() {
    let dataset = generate(&SyntheticKgConfig {
        num_entities: 120,
        num_relations: 4,
        num_types: 5,
        num_triples: 900,
        seed: 21,
        ..Default::default()
    });
    let mut model =
        build_model(ModelKind::DistMult, dataset.num_entities(), dataset.num_relations(), 12, 42);
    train(
        model.as_mut(),
        dataset.train.triples(),
        &TrainConfig { epochs: 3, ..Default::default() },
        None,
    );
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::from(model as Box<dyn KgcModel>), Arc::new(dataset.filter.clone()));
    let server = serve(Router::new(Arc::clone(&registry)), &ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let window: Vec<Triple> = dataset.valid.iter().take(30).copied().collect();
    let monitor = registry
        .start_monitor(
            "m",
            MonitorConfig {
                window: window.clone(),
                n_s: 20,
                seed: 5,
                strategy: SamplingStrategy::Random,
                drift_threshold: 0.01,
                ..MonitorConfig::default()
            },
        )
        .expect("start monitor");

    let wait_for_evals = |n: u64| {
        for _ in 0..200 {
            if monitor.evals_run() >= n {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("monitor never reached {n} evaluation rounds");
    };

    // Baseline round fires at startup.
    wait_for_evals(1);
    let (status, body) = client::get(addr, "/monitor").unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).unwrap();
    let m = &parsed.get("monitors").and_then(Json::as_array).unwrap()[0];
    assert_eq!(m.get("model").and_then(Json::as_str), Some("m"));
    assert_eq!(m.get("window_len").and_then(Json::as_usize), Some(window.len()));
    assert_eq!(m.get("graph_version").and_then(Json::as_usize), Some(0));
    assert_eq!(m.get("drift_alarm"), Some(&Json::Bool(false)));
    let baseline = m.get("baseline_mrr").and_then(Json::as_f64).unwrap();
    let mrr = m.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
    assert_eq!(mrr.to_bits(), baseline.to_bits(), "first round defines the baseline");
    assert!(m.get("eval_age_seconds").and_then(Json::as_f64).is_some());

    // A wire delta slides the window and wakes the monitor.
    let fresh = (0..dataset.num_entities() as u32)
        .map(|t| Triple::new(0, 0, t))
        .find(|t| !dataset.filter.contains(*t))
        .expect("some unknown triple exists");
    let body = format!(r#"{{"model":"m","insert":[{}]}}"#, triples_json(&[fresh]));
    let (status, response) = client::post_json(addr, "/triples", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    wait_for_evals(2);
    let (_, body) = client::get(addr, "/monitor").unwrap();
    let parsed = Json::parse(&body).unwrap();
    let m = &parsed.get("monitors").and_then(Json::as_array).unwrap()[0];
    assert_eq!(m.get("graph_version").and_then(Json::as_usize), Some(1));
    assert_eq!(
        m.get("window_len").and_then(Json::as_usize),
        Some(window.len() + 1),
        "inserted triples join the sliding window"
    );
    assert_eq!(m.get("drift_alarm"), Some(&Json::Bool(false)));

    // Hot-reload an untrained snapshot under the same name: the next
    // monitored round sees MRR collapse and raises the alarm.
    let bad =
        build_model(ModelKind::DistMult, dataset.num_entities(), dataset.num_relations(), 12, 999);
    let dir = std::env::temp_dir().join(format!("kg-live-monitor-{}", std::process::id()));
    let path = dir.join("bad.kgev");
    kgeval::models::io::save_model_to_path(bad.as_ref(), ModelKind::DistMult, &path).unwrap();
    let reload = format!("{{\"name\":\"m\",\"path\":\"{}\"}}", path.display());
    let (status, response) = client::post_json(addr, "/admin/models", &reload).unwrap();
    assert_eq!(status, 200, "{response}");
    monitor.poke();
    wait_for_evals(3);

    let (_, body) = client::get(addr, "/monitor").unwrap();
    let parsed = Json::parse(&body).unwrap();
    let m = &parsed.get("monitors").and_then(Json::as_array).unwrap()[0];
    assert_eq!(
        m.get("drift_alarm"),
        Some(&Json::Bool(true)),
        "untrained replacement must trip the drift alarm: {body}"
    );
    let degraded = m.get("metrics").unwrap().get("mrr").and_then(Json::as_f64).unwrap();
    assert!(degraded < baseline - 0.01, "mrr {degraded} vs baseline {baseline}");
    assert_eq!(
        m.get("graph_version").and_then(Json::as_usize),
        Some(1),
        "the reload donates the live graph, so the version survives"
    );

    // The alarm and gauges are scrapeable.
    let (_, prom) = client::get(addr, "/metrics").unwrap();
    assert!(prom.contains("kg_serve_monitor_drift_alarm{model=\"m\"} 1"), "{prom}");
    assert!(prom.contains("kg_serve_monitor_mrr{model=\"m\"}"), "{prom}");
    assert!(prom.contains("kg_serve_monitor_baseline_mrr{model=\"m\"}"), "{prom}");
    assert!(prom.contains("kg_serve_monitor_evals_total{model=\"m\"} 3"), "{prom}");
    assert!(prom.contains("kg_serve_monitor_eval_age_seconds{model=\"m\"}"), "{prom}");
    assert!(prom.contains("kg_serve_graph_version{model=\"m\"} 1"), "{prom}");

    // Stopping the monitor removes it from /monitor.
    assert!(registry.stop_monitor("m"));
    let (_, body) = client::get(addr, "/monitor").unwrap();
    let parsed = Json::parse(&body).unwrap();
    assert!(parsed.get("monitors").and_then(Json::as_array).unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
    server.shutdown();
}
