//! Microbenches for the computational kernels: sparse matrix products
//! (L-WD's engine), weighted sampling (exact A-Res vs the cached
//! prefix-sum sampler — the DESIGN.md §5 sampling ablation), and the
//! persistence/sliced-Wasserstein kernels behind KP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kg_core::sample::{seeded_rng, weighted_without_replacement, PickSet, WeightedIndex};
use kg_core::sparse::{row_normalize_l1, spgemm, transpose, CooBuilder};
use kg_kp::{persistence_diagram, sliced_wasserstein, ScoredGraph};
use rand::Rng;

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse");
    group.sample_size(20);
    // A B-like incidence matrix: 5k entities × 200 columns, ~8 nnz/row.
    let mut rng = seeded_rng(1);
    let mut b = CooBuilder::new(5000, 200);
    for e in 0..5000usize {
        for _ in 0..8 {
            b.push(e, rng.gen_range(0..200), 1.0);
        }
    }
    let b = b.build();
    group.bench_function("gram_btb_5k_rows", |bench| {
        bench.iter(|| {
            let w = spgemm(&transpose(&b), &b);
            black_box(w.nnz())
        })
    });
    let mut w = spgemm(&transpose(&b), &b);
    row_normalize_l1(&mut w);
    group.bench_function("scores_bw_5k_rows", |bench| {
        bench.iter(|| {
            let x = spgemm(&b, &w);
            black_box(x.nnz())
        })
    });
    group.finish();
}

fn bench_weighted_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_sampling");
    group.sample_size(30);
    let mut rng = seeded_rng(2);
    let weights: Vec<f32> = (0..100_000).map(|_| rng.gen_range(0.01f32..5.0)).collect();
    for k in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("ares_exact", k), &k, |bench, &k| {
            let mut rng = seeded_rng(3);
            bench.iter(|| black_box(weighted_without_replacement(&mut rng, &weights, k)))
        });
        group.bench_with_input(BenchmarkId::new("alias_cached", k), &k, |bench, &k| {
            let idx = WeightedIndex::new(&weights);
            let mut rng = seeded_rng(3);
            let (mut seen, mut picks) = (PickSet::new(), Vec::with_capacity(k));
            bench.iter(|| {
                picks.clear();
                idx.sample_distinct(&mut rng, k, &mut seen, &mut picks);
                black_box(picks.len())
            })
        });
    }
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let mut group = c.benchmark_group("kp_kernels");
    group.sample_size(30);
    let mut rng = seeded_rng(4);
    let pairs: Vec<(kg_core::EntityId, kg_core::EntityId, f32)> = (0..2000)
        .map(|_| {
            (
                kg_core::EntityId(rng.gen_range(0..800)),
                kg_core::EntityId(rng.gen_range(0..800)),
                rng.gen_range(0.0f32..1.0),
            )
        })
        .collect();
    let g = ScoredGraph::from_weighted_pairs(&pairs);
    group.bench_function("persistence_2k_edges", |bench| {
        bench.iter(|| black_box(persistence_diagram(&g)))
    });
    let d1 = persistence_diagram(&g);
    let g2 = ScoredGraph::from_weighted_pairs(&pairs[..1000]);
    let d2 = persistence_diagram(&g2);
    group.bench_function("sliced_wasserstein_16dir", |bench| {
        bench.iter(|| black_box(sliced_wasserstein(&d1, &d2, 16)))
    });
    group.finish();
}

criterion_group!(benches, bench_spgemm, bench_weighted_sampling, bench_persistence);
criterion_main!(benches);
