//! Shard-parity property tests: for **every** model family, the sharded
//! scoring paths (streamed filtered ranks, sharded top-k, and the
//! per-query shard *fan-out* latency paths) must be **bit-for-bit
//! identical** to the unsharded reference for `S ∈ {1, 2, 7,
//! num_entities}`, and full ranking — blocks of queries over tiles of the
//! table — for every thread count, block boundary and model precision.
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
use kg_eval::evaluate_full;
use kg_eval::ranker::{filtered_rank_from_scores, queries_of};
use kg_eval::TieBreak;
use kg_models::engine::{self, ScoringEngine};
use kg_models::{build_model, KgcModel, ModelKind, Precision, QuantizedModel};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, usize::MAX]; // MAX → num_entities

const THREADS: [usize; 4] = [1, 2, 3, 8];

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

    /// Full ranking (`evaluate_full`, blocks of queries over tiles of the
    /// table) returns bit-for-bit the seed path's `EvalResult.ranks` for
    /// every family, thread count and tie policy, with query counts that
    /// cross a block boundary.
    #[test]
    fn full_ranking_bit_identical_across_threads_and_blocks(
        (kind, seed) in model_strategy(),
        raw in proptest::collection::vec(
            (0u32..1000, 0u32..1000, 0u32..1000),
            1..engine::BLOCK_QUERIES + 2,
        ),
    ) {
        let (n, nr) = (19usize, 3usize);
        let model = build(kind, seed, n, nr);
        let triples = triples_from(&raw, n as u32, nr as u32);
        let filter = FilterIndex::from_slices(&[&triples]);
        for tie in [TieBreak::Mean, TieBreak::Optimistic, TieBreak::Pessimistic] {
            let want = reference_ranks(model.as_ref(), &triples, &filter, tie);
            for threads in THREADS {
                let got = evaluate_full(model.as_ref(), &triples, &filter, tie, threads);
                prop_assert_eq!(
                    &got.ranks, &want,
                    "{} threads={} {:?}: ranks diverged", model.name(), threads, tie
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
    /// thread budget (spare threads fan each block's range out) returns
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
        let serial = evaluate_full(model.as_ref(), &triples, &filter, TieBreak::Mean, 1);
        let fanned = evaluate_full(model.as_ref(), &triples, &filter, TieBreak::Mean, threads);
        prop_assert_eq!(
            &fanned.ranks, &serial.ranks,
            "{} threads={}: two-level ranks diverged", model.name(), threads
        );
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

/// Every scoring model a block pass can meet: the 7 families at f32, and
/// the 5 quantizable ones at f16 and int8 (which score through the
/// default per-query `score_rows_block`).
fn every_model(n: usize, nr: usize) -> Vec<Box<dyn KgcModel>> {
    let mut out: Vec<Box<dyn KgcModel>> = Vec::new();
    for kind in ModelKind::ALL {
        let model = build(kind, 7, n, nr);
        if !matches!(kind, ModelKind::TuckEr | ModelKind::ConvE) {
            for precision in [Precision::F16, Precision::Int8] {
                out.push(Box::new(
                    QuantizedModel::from_model(model.as_ref(), kind, precision).expect("quantize"),
                ));
            }
        }
        out.push(model);
    }
    out
}

/// Block passes for every family and precision, on both sides of one and
/// two blocks: `partial_rank_counts_block` with `{1, B−1, B, B+1, 2B+1}`
/// queries and `evaluate_full` with `{2, B, B+2, 2B+2}`, for every thread
/// count and tie policy — all equal to the row-based reference.
#[test]
fn block_passes_bit_identical_for_every_family_precision_and_block_boundary() {
    let (n, nr) = (19usize, 3usize);
    let b = engine::BLOCK_QUERIES;
    let raw: Vec<(u32, u32, u32)> =
        (0..b as u32 + 1).map(|i| (i * 7 + 1, i * 5, i * 11 + 3)).collect();
    let triples = triples_from(&raw, n as u32, nr as u32);
    let filter = FilterIndex::from_slices(&[&triples]);
    let queries = queries_of(&triples);
    let ties = [TieBreak::Mean, TieBreak::Optimistic, TieBreak::Pessimistic];
    let pool = BufferPool::new(b * engine::tile_rows(1));
    for model in every_model(n, nr) {
        let name = format!("{} {}", model.name(), model.precision().name());
        let rows: Vec<Vec<f32>> = queries
            .iter()
            .map(|&(t, side)| {
                let mut row = vec![0.0f32; n];
                model.score_all(t, side, &mut row);
                row
            })
            .collect();
        for nq in [1, b - 1, b, b + 1, 2 * b + 1] {
            let asks: Vec<_> = queries[..nq]
                .iter()
                .map(|&(t, side)| (t, side, filter.known_answers(t, side)))
                .collect();
            for threads in THREADS {
                let counts =
                    engine::partial_rank_counts_block(model.as_ref(), &pool, &asks, 0..n, threads);
                for ((&(t, side, known), c), row) in asks.iter().zip(&counts).zip(&rows) {
                    for tie in ties {
                        let want =
                            filtered_rank_from_scores(row, side.answer(t).index(), known, tie);
                        assert_eq!(
                            tie.rank(c.higher as usize, c.ties as usize),
                            want,
                            "{name} nq={nq} threads={threads} {tie:?} {t:?} {side:?}"
                        );
                    }
                }
            }
        }
        for len in [1, b / 2, b / 2 + 1, b + 1] {
            for tie in ties {
                let want = reference_ranks(model.as_ref(), &triples[..len], &filter, tie);
                for threads in THREADS {
                    let got = evaluate_full(model.as_ref(), &triples[..len], &filter, tie, threads);
                    assert_eq!(got.ranks, want, "{name} {len} triples threads={threads} {tie:?}");
                }
            }
        }
    }
}

/// Scores drawn per `(query, entity)` from NaNs of two payloads, ±0 and
/// repeated values: answers that are NaN, NaN competitors, zeros of both
/// signs tying, and known answers tying with or outranking the answer.
struct Degenerate {
    n: usize,
}

const DEGENERATE: [f32; 7] = [f32::NAN, 0.0, -0.0, 1.0, 1.0, -2.0, f32::from_bits(0xffc0_1234)];

impl Degenerate {
    fn score(q: &[f32], e: usize) -> f32 {
        DEGENERATE[(q[0] as usize + e) % DEGENERATE.len()]
    }
}

impl KgcModel for Degenerate {
    fn name(&self) -> &'static str {
        "Degenerate"
    }
    fn dim(&self) -> usize {
        1
    }
    fn num_entities(&self) -> usize {
        self.n
    }
    fn num_relations(&self) -> usize {
        2
    }
    fn query_len(&self) -> usize {
        1
    }
    fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
        let side = if side == QuerySide::Tail { 0 } else { 1 };
        q[0] = (triple.head.0 * 3 + triple.relation.0 * 5 + triple.tail.0 + side) as f32;
    }
    fn score_rows(&self, q: &[f32], rows: std::ops::Range<usize>, out: &mut [f32]) {
        for (o, e) in out.iter_mut().zip(rows) {
            *o = Degenerate::score(q, e);
        }
    }
    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        for (o, c) in out.iter_mut().zip(candidates) {
            *o = Degenerate::score(q, c.index());
        }
    }
}

/// Full ranking on degenerate scores equals the row-based reference for
/// every thread count and tie policy — and the input really does hold a
/// NaN answer, and known answers that tie with and outrank a real one.
#[test]
fn full_ranking_bit_identical_on_nan_zero_and_tied_scores() {
    let n = 23u32;
    let model = Degenerate { n: n as usize };
    let triples: Vec<Triple> =
        (0..3 * n).map(|i| Triple::new(i % n, i % 2, (i * 5 + i / n * 8) % n)).collect();
    let filter = FilterIndex::from_slices(&[&triples]);
    let (mut nan_answers, mut known_ties, mut known_higher) = (0, 0, 0);
    let mut row = vec![0.0f32; n as usize];
    for (t, side) in queries_of(&triples) {
        model.score_all(t, side, &mut row);
        let s_true = row[side.answer(t).index()];
        nan_answers += usize::from(s_true.is_nan());
        for k in filter.known_answers(t, side) {
            if *k != side.answer(t) && !s_true.is_nan() {
                known_ties += usize::from(row[k.index()] == s_true);
                known_higher += usize::from(row[k.index()] > s_true);
            }
        }
    }
    assert!(
        nan_answers > 0 && known_ties > 0 && known_higher > 0,
        "degenerate cases not reached: {nan_answers} {known_ties} {known_higher}"
    );
    for tie in [TieBreak::Mean, TieBreak::Optimistic, TieBreak::Pessimistic] {
        let want = reference_ranks(&model, &triples, &filter, tie);
        for threads in THREADS {
            let got = evaluate_full(&model, &triples, &filter, tie, threads);
            assert_eq!(got.ranks, want, "threads={threads} {tie:?}");
        }
    }
}
