//! Evaluation-path benches: the full filtered ranking vs sampled estimation
//! at increasing sample sizes (the timing claim behind Figure 3a and the
//! speed-up tables), and per-model full-row scoring throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kg_core::sample::seeded_rng;
use kg_datasets::{generate, SyntheticKgConfig};
use kg_eval::{evaluate_full, evaluate_sampled, TieBreak};
use kg_models::{build_model, train, ModelKind, TrainConfig};
use kg_recommend::{sample_candidates, Lwd, RelationRecommender, SamplingStrategy};

fn dataset() -> kg_datasets::Dataset {
    generate(&SyntheticKgConfig {
        name: "bench".into(),
        num_entities: 3000,
        num_relations: 20,
        num_types: 25,
        num_triples: 25_000,
        seed: 5,
        ..Default::default()
    })
}

fn bench_eval(c: &mut Criterion) {
    let d = dataset();
    let mut model = build_model(ModelKind::ComplEx, d.num_entities(), d.num_relations(), 32, 1);
    train(
        model.as_mut(),
        d.train.triples(),
        &TrainConfig { epochs: 2, ..Default::default() },
        None,
    );
    let test: Vec<_> = d.test.iter().copied().take(200).collect();

    let mut group = c.benchmark_group("evaluation");
    group.sample_size(10);
    group.bench_function("full_filtered_400q_3k_entities", |bench| {
        bench.iter(|| black_box(evaluate_full(model.as_ref(), &test, &d.filter, TieBreak::Mean, 4)))
    });

    let matrix = Lwd::untyped().fit(&d);
    for frac in [0.01f64, 0.05, 0.20] {
        let n_s = (d.num_entities() as f64 * frac) as usize;
        let samples = sample_candidates(
            SamplingStrategy::Probabilistic,
            d.num_entities(),
            d.num_relations(),
            n_s,
            Some(&matrix),
            None,
            &mut seeded_rng(2),
        );
        group.bench_with_input(
            BenchmarkId::new("sampled_400q", format!("{}pct", frac * 100.0)),
            &samples,
            |bench, samples| {
                bench.iter(|| {
                    black_box(evaluate_sampled(
                        model.as_ref(),
                        &test,
                        &d.filter,
                        samples,
                        TieBreak::Mean,
                        4,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_model_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_tails_2k_entities");
    group.sample_size(30);
    for kind in ModelKind::ALL {
        let model = build_model(kind, 2000, 10, kind.default_dim(), 7);
        let mut out = vec![0.0f32; 2000];
        group.bench_function(kind.name(), |bench| {
            bench.iter(|| {
                model.score_all(
                    kg_core::Triple::new(5, 3, 0),
                    kg_core::triple::QuerySide::Tail,
                    &mut out,
                );
                black_box(out[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval, bench_model_scoring);
criterion_main!(benches);
