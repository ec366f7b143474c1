//! Distributed serving demo: train a small model, start **two shard
//! workers** (each owning half the entity space) behind a **scatter/gather
//! gateway**, plus one ordinary single-node server — then drive `/score`,
//! `/topk`, and `/eval` through both deployments and assert the gateway's
//! responses are byte-identical to the single node's.
//!
//! ```text
//! cargo run --release --example gateway_demo
//! KG_SERVE_HOLD_SECS=300 cargo run --release --example gateway_demo   # keep serving for curl
//! ```

use std::sync::Arc;
use std::time::Duration;

use kgeval::datasets::{generate, preset, PresetId, Scale};
use kgeval::models::{build_model, train, KgcModel, ModelKind, TrainConfig};
use kgeval::serve::{
    client, serve, Gateway, GatewayConfig, Json, ModelRegistry, RegistryConfig, Router,
    ServerConfig, WorkerShard,
};

fn main() {
    // 1. Dataset + trained model (deterministic, so every "node" builds
    //    identical weights — in a real deployment each worker would load
    //    the same snapshot file instead).
    let dataset = generate(&preset(PresetId::CodexS, Scale::Quick));
    let mut model =
        build_model(ModelKind::ComplEx, dataset.num_entities(), dataset.num_relations(), 32, 42);
    train(
        model.as_mut(),
        dataset.train.triples(),
        &TrainConfig { epochs: 10, lr: 0.15, num_negatives: 4, ..Default::default() },
        None,
    );
    let model: Arc<dyn KgcModel> = Arc::from(model as Box<dyn KgcModel>);
    let filter = Arc::new(dataset.filter.clone());
    println!(
        "dataset {}: |E|={} |R|={} — every worker holds the full model, \
         each ranks one slice",
        dataset.name,
        dataset.num_entities(),
        dataset.num_relations()
    );

    // 2. One ordinary single-node server (the parity baseline) and two
    //    shard workers: worker i of 2 owns ShardPlan::new(|E|, 2).range(i).
    let start_node = |worker_shard: Option<WorkerShard>| {
        let registry = Arc::new(ModelRegistry::with_config(RegistryConfig {
            worker_shard,
            ..RegistryConfig::default()
        }));
        registry.register("complex", Arc::clone(&model), Arc::clone(&filter));
        // At least 2 connection workers per node: the gateway's pooled
        // keep-alive connection occupies one between requests, and held
        // mode should still answer direct curls on a single-core host.
        let config =
            ServerConfig { workers: 2.max(ServerConfig::default().workers), ..Default::default() };
        serve(Router::new(registry), &config).expect("bind node")
    };
    let single = start_node(None);
    let workers: Vec<_> =
        (0..2).map(|i| start_node(Some(WorkerShard { index: i, of: 2 }))).collect();
    for (i, w) in workers.iter().enumerate() {
        println!("worker {i}/2 on http://{} (internal /shard/topk)", w.addr());
    }

    // 3. The gateway: no models, just the backend list in shard order.
    let gateway = Gateway::new(GatewayConfig {
        backends: workers.iter().map(|w| w.addr().to_string()).collect(),
        health_interval: Duration::from_millis(500),
        ..GatewayConfig::default()
    })
    .expect("gateway");
    let gateway = serve(Router::gateway(gateway), &ServerConfig::default()).expect("bind gateway");
    println!(
        "gateway on http://{} (single node baseline on http://{})\n",
        gateway.addr(),
        single.addr()
    );

    // 4. Drive both deployments with the same traffic; the gateway must
    //    answer byte-identically (modulo /eval's wall-clock "seconds").
    let q = dataset.test[0];
    let requests = [
        (
            "/topk",
            format!(
                "{{\"model\":\"complex\",\"queries\":[{{\"head\":{},\"relation\":{}}},{{\"relation\":{},\"tail\":{}}}],\"k\":5}}",
                q.head.0, q.relation.0, q.relation.0, q.tail.0
            ),
        ),
        (
            "/score",
            format!(
                "{{\"model\":\"complex\",\"triples\":[{}]}}",
                dataset
                    .test
                    .iter()
                    .take(8)
                    .map(|t| format!("[{},{},{}]", t.head.0, t.relation.0, t.tail.0))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        (
            "/eval",
            format!(
                "{{\"model\":\"complex\",\"n_s\":40,\"seed\":7,\"triples\":[{}]}}",
                dataset
                    .test
                    .iter()
                    .map(|t| format!("[{},{},{}]", t.head.0, t.relation.0, t.tail.0))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    let canon = |body: &str| match Json::parse(body) {
        Ok(Json::Obj(fields)) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| k != "seconds").collect()).to_string()
        }
        _ => body.to_string(),
    };
    for (path, body) in &requests {
        let (s1, direct) = client::post_json(single.addr(), path, body).expect("single node");
        let (s2, scattered) = client::post_json(gateway.addr(), path, body).expect("gateway");
        assert_eq!((s1, s2), (200, 200), "{path}: {direct} / {scattered}");
        assert_eq!(
            canon(&scattered),
            canon(&direct),
            "{path}: gateway bytes diverged from the single node"
        );
        let shown = if scattered.len() > 120 { &scattered[..120] } else { &scattered };
        println!("{path:<7}: gateway == single node ({} bytes)  {shown}…", scattered.len());
    }

    // 5. Gateway observability: backend health + scatter/merge latency.
    let (_, health) = client::get(gateway.addr(), "/healthz").expect("gateway /healthz");
    println!("\ngateway /healthz: {health}");
    let (_, prom) = client::get(gateway.addr(), "/metrics").expect("gateway /metrics");
    for line in prom.lines().filter(|l| l.starts_with("kg_serve_gateway_")) {
        println!("  {line}");
    }

    if let Some(secs) = std::env::var("KG_SERVE_HOLD_SECS").ok().and_then(|v| v.parse::<u64>().ok())
    {
        println!("\nholding the fleet open for {secs} s — try:");
        println!("  curl -s {}/healthz", gateway.addr());
        println!(
            "  curl -s {}/topk -d '{{\"model\":\"complex\",\"queries\":[{{\"head\":0,\"relation\":0}}],\"k\":3}}'",
            gateway.addr()
        );
        std::thread::sleep(Duration::from_secs(secs));
    }

    gateway.shutdown();
    for w in workers {
        w.shutdown();
    }
    single.shutdown();
    println!("\nfleet drained cleanly; full ranking now scales across machines.");
}
