//! Shard-parity property tests: for **every** model family, the sharded
//! scoring paths (streamed filtered ranks, sharded full ranking, sharded
//! top-k, and the per-query shard *fan-out* latency paths) must be
//! **bit-for-bit identical** to the unsharded reference for
//! `S ∈ {1, 2, 7, num_entities}`.
//!
//! The reference is the pre-refactor seed path, reconstructed explicitly:
//! materialise the full score row with `score_all`, then rank with
//! `filtered_rank_from_scores` / select top-k by a full sort. Nothing here
//! goes through `ShardPlan`, so any partition-dependence in the engine
//! shows up as a mismatch.

use std::sync::Arc;

use kg_core::parallel::{BufferPool, ShardPlan};
use kg_core::topk::cmp_entry;
use kg_core::triple::QuerySide;
use kg_core::{EntityId, FilterIndex, Triple};
use kg_eval::ranker::{evaluate_full_sharded, filtered_rank_from_scores, queries_of};
use kg_eval::TieBreak;
use kg_models::engine::{self, ScoringEngine};
use kg_models::{build_model, KgcModel, ModelKind};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, usize::MAX]; // MAX → num_entities

fn shard_counts(n: usize) -> impl Iterator<Item = usize> {
    SHARD_COUNTS.into_iter().map(move |s| if s == usize::MAX { n } else { s })
}

/// Deterministic test triples over `n` entities / `nr` relations.
fn triples_from(raw: &[(u32, u32, u32)], n: u32, nr: u32) -> Vec<Triple> {
    raw.iter().map(|&(h, r, t)| Triple::new(h % n, r % nr, t % n)).collect()
}

fn model_strategy() -> impl Strategy<Value = (ModelKind, u64)> {
    let kinds = prop_oneof![
        Just(ModelKind::TransE),
        Just(ModelKind::DistMult),
        Just(ModelKind::ComplEx),
        Just(ModelKind::Rescal),
        Just(ModelKind::RotatE),
        Just(ModelKind::TuckEr),
        Just(ModelKind::ConvE),
    ];
    (kinds, 0u64..1000)
}

fn build(kind: ModelKind, seed: u64, n: usize, nr: usize) -> Box<dyn kg_models::TrainableModel> {
    let dim = match kind {
        ModelKind::ConvE => 16,
        ModelKind::Rescal | ModelKind::TuckEr => 8,
        _ => 12,
    };
    build_model(kind, n, nr, dim, seed)
}

/// The seed path's full ranking: full row per query, row-based rank kernel.
fn reference_ranks(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &FilterIndex,
    tie: TieBreak,
) -> Vec<f64> {
    let n = model.num_entities();
    let mut scores = vec![0.0f32; n];
    queries_of(triples)
        .into_iter()
        .map(|(triple, side)| {
            model.score_all(triple, side, &mut scores);
            let answer = side.answer(triple).index();
            let known = filter.known_answers(triple, side);
            filtered_rank_from_scores(&scores, answer, known, tie)
        })
        .collect()
}

/// The seed path's top-k: full row, full sort, filter, truncate.
fn reference_topk(
    model: &dyn KgcModel,
    triple: Triple,
    side: QuerySide,
    known: &[EntityId],
    k: usize,
) -> Vec<(u32, f32)> {
    let n = model.num_entities();
    let mut scores = vec![0.0f32; n];
    model.score_all(triple, side, &mut scores);
    let mut all: Vec<(u32, f32)> = scores
        .iter()
        .enumerate()
        .filter(|(e, _)| known.binary_search(&EntityId(*e as u32)).is_err())
        .map(|(e, &s)| (e as u32, s))
        .collect();
    all.sort_by(|&a, &b| cmp_entry(a, b));
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded full ranking (`evaluate_full_sharded`) returns bit-for-bit
    /// the seed path's `EvalResult.ranks` for every family and shard count.
    #[test]
    fn full_ranking_bit_identical_across_shard_counts(
        (kind, seed) in model_strategy(),
        raw in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..12),
        threads in 1usize..4,
    ) {
        let (n, nr) = (19usize, 3usize);
        let model = build(kind, seed, n, nr);
        let triples = triples_from(&raw, n as u32, nr as u32);
        let filter = FilterIndex::from_slices(&[&triples]);
        for tie in [TieBreak::Mean, TieBreak::Optimistic, TieBreak::Pessimistic] {
            let want = reference_ranks(model.as_ref(), &triples, &filter, tie);
            for shards in shard_counts(n) {
                let got = evaluate_full_sharded(
                    model.as_ref(), &triples, &filter, tie, threads, shards,
                );
                prop_assert_eq!(
                    &got.ranks, &want,
                    "{} S={} {:?}: ranks diverged", model.name(), shards, tie
                );
            }
        }
    }

    /// Streamed filtered-rank counters equal the row-based kernel on every
    /// query, for every family and shard count.
    #[test]
    fn streamed_rank_counts_bit_identical(
        (kind, seed) in model_strategy(),
        raw in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..10),
    ) {
        let (n, nr) = (23usize, 3usize);
        let model = build(kind, seed, n, nr);
        let triples = triples_from(&raw, n as u32, nr as u32);
        let filter = FilterIndex::from_slices(&[&triples]);
        let mut row = vec![0.0f32; n];
        for (triple, side) in queries_of(&triples) {
            model.score_all(triple, side, &mut row);
            let answer = side.answer(triple).index();
            let known = filter.known_answers(triple, side);
            let want = filtered_rank_from_scores(&row, answer, known, TieBreak::Mean);
            for shards in shard_counts(n) {
                let pool = BufferPool::new(ShardPlan::new(n, shards).max_shard_len());
                let counts = engine::partial_rank_counts(
                    model.as_ref(), &pool, triple, side, known, 0..n, 1,
                );
                prop_assert_eq!(
                    TieBreak::Mean.rank(counts.higher as usize, counts.ties as usize), want,
                    "{} S={}: streamed rank diverged", model.name(), shards
                );
            }
        }
    }

    /// Per-query fan-out (`partial_rank_counts` with `threads > 1`, the
    /// latency path) equals the row-based kernel for every family, shard
    /// count, and fan-out width.
    #[test]
    fn fanout_rank_counts_bit_identical(
        (kind, seed) in model_strategy(),
        raw in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..6),
        fanout in 2usize..6,
    ) {
        let (n, nr) = (23usize, 3usize);
        let model = build(kind, seed, n, nr);
        let triples = triples_from(&raw, n as u32, nr as u32);
        let filter = FilterIndex::from_slices(&[&triples]);
        let mut row = vec![0.0f32; n];
        for (triple, side) in queries_of(&triples) {
            model.score_all(triple, side, &mut row);
            let answer = side.answer(triple).index();
            let known = filter.known_answers(triple, side);
            let want = filtered_rank_from_scores(&row, answer, known, TieBreak::Mean);
            for shards in shard_counts(n) {
                let pool = BufferPool::new(ShardPlan::new(n, shards).max_shard_len());
                let counts = engine::partial_rank_counts(
                    model.as_ref(), &pool, triple, side, known, 0..n, fanout,
                );
                prop_assert_eq!(
                    TieBreak::Mean.rank(counts.higher as usize, counts.ties as usize), want,
                    "{} S={} fanout={}: fanned rank diverged", model.name(), shards, fanout
                );
            }
        }
    }

    /// The two-level work plan end to end: few queries against a big
    /// thread budget (spare threads fan each query's shards out) returns
    /// bit-for-bit the single-threaded ranks for every family.
    #[test]
    fn two_level_full_ranking_bit_identical(
        (kind, seed) in model_strategy(),
        raw in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..3),
        threads in 5usize..9,
    ) {
        let (n, nr) = (19usize, 3usize);
        let model = build(kind, seed, n, nr);
        let triples = triples_from(&raw, n as u32, nr as u32);
        let filter = FilterIndex::from_slices(&[&triples]);
        for shards in shard_counts(n) {
            let serial = evaluate_full_sharded(
                model.as_ref(), &triples, &filter, TieBreak::Mean, 1, shards,
            );
            let fanned = evaluate_full_sharded(
                model.as_ref(), &triples, &filter, TieBreak::Mean, threads, shards,
            );
            prop_assert_eq!(
                &fanned.ranks, &serial.ranks,
                "{} S={} threads={}: two-level ranks diverged", model.name(), shards, threads
            );
        }
    }

    /// Sharded top-k (serial shard walk *and* thread fan-out) equals the
    /// full-sort reference for every family and shard count.
    #[test]
    fn sharded_topk_bit_identical(
        (kind, seed) in model_strategy(),
        raw in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 1..8),
        k in 0usize..25,
    ) {
        let (n, nr) = (21usize, 3usize);
        let model = build(kind, seed, n, nr);
        let triples = triples_from(&raw, n as u32, nr as u32);
        let filter = FilterIndex::from_slices(&[&triples]);
        let k = k.min(n);
        let shared: Arc<dyn KgcModel> = Arc::from(model as Box<dyn KgcModel>);
        for (triple, side) in queries_of(&triples).into_iter().take(4) {
            let known = filter.known_answers(triple, side);
            let want = reference_topk(shared.as_ref(), triple, side, known, k);
            for shards in shard_counts(n) {
                let eng = ScoringEngine::new(Arc::clone(&shared), shards);
                prop_assert_eq!(
                    &eng.top_k(triple, side, known, k), &want,
                    "{} S={} k={}: top-k diverged", shared.name(), shards, k
                );
                prop_assert_eq!(
                    &eng.top_k_fanout(triple, side, known, k, 4), &want,
                    "{} S={} k={}: fan-out top-k diverged", shared.name(), shards, k
                );
            }
        }
    }
}
