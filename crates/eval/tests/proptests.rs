//! Property-based tests for the ranking/estimation invariants.

use std::sync::Arc;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use kg_eval::metrics::{RankingMetrics, TieBreak};
use kg_eval::ranker::filtered_rank_from_scores;
use kg_eval::sampled::sampled_rank;
use kg_models::{KgcModel, ScoringEngine};
use proptest::prelude::*;

fn scores_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 2..60)
}

/// A seven-value score alphabet with both zeros, both infinities and NaN.
fn adversarial_score() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.0f32),
        Just(-1.0f32),
        Just(f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
    ]
}

/// Rows built to tie: all-equal, or drawn from [`adversarial_score`].
fn adversarial_row() -> impl Strategy<Value = Vec<f32>> {
    prop_oneof![
        (adversarial_score(), 2usize..30).prop_map(|(v, n)| vec![v; n]),
        proptest::collection::vec(adversarial_score(), 2..30),
    ]
}

/// A model whose tail row is a fixed table, whatever the query.
struct Row(Vec<f32>);

impl KgcModel for Row {
    fn name(&self) -> &'static str {
        "Row"
    }
    fn dim(&self) -> usize {
        1
    }
    fn num_entities(&self) -> usize {
        self.0.len()
    }
    fn num_relations(&self) -> usize {
        1
    }
    fn query_len(&self) -> usize {
        0
    }
    fn build_query(&self, _triple: Triple, _side: QuerySide, _q: &mut [f32]) {}
    fn score_rows(&self, _q: &[f32], rows: std::ops::Range<usize>, out: &mut [f32]) {
        out.copy_from_slice(&self.0[rows]);
    }
    fn score_gathered(&self, _q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        for (o, &c) in out.iter_mut().zip(candidates) {
            *o = self.0[c.index()];
        }
    }
}

proptest! {
    /// One tie policy: the row-based reference kernel, the engine's streamed
    /// `(higher, ties)` counters and the sampled rank over *all* entities
    /// return the same rank for every `TieBreak` — on all-tie rows, NaN
    /// answers, NaN competitors, `-0.0` against `0.0`, and known answers
    /// that tie with the answer.
    #[test]
    fn one_tie_policy_across_reference_engine_and_sampled_rank(
        row in adversarial_row(),
        answer_seed in 0usize..1000,
        known_mask in proptest::collection::vec(0u32..3, 30..31),
        shards in 1usize..5,
    ) {
        let n = row.len();
        let answer = answer_seed % n;
        // About a third of the entities are known (ascending, maybe the answer).
        let known: Vec<EntityId> =
            (0..n).filter(|&e| known_mask[e] == 0).map(|e| EntityId(e as u32)).collect();
        let triple = Triple::new(0, 0, answer as u32);
        let engine = ScoringEngine::new(Arc::new(Row(row.clone())), shards);
        let (higher, ties) = engine.rank_counts(triple, QuerySide::Tail, &known);
        // Every entity sampled, best-last so candidate order differs from id order.
        let candidates: Vec<EntityId> = (0..n as u32).rev().map(EntityId).collect();
        let mut scores = vec![row[answer]];
        scores.extend(candidates.iter().map(|c| row[c.index()]));
        for tie in [TieBreak::Mean, TieBreak::Optimistic, TieBreak::Pessimistic] {
            let want = filtered_rank_from_scores(&row, answer, &known, tie);
            prop_assert_eq!(tie.rank(higher, ties), want, "engine, {:?}: {:?}", tie, row);
            let sampled = sampled_rank(EntityId(answer as u32), &candidates, &scores, &known, tie);
            prop_assert_eq!(sampled, want, "sampled, {:?}: {:?}", tie, row);
        }
    }

    #[test]
    fn full_rank_within_bounds(scores in scores_strategy(), answer_seed in 0usize..1000) {
        let answer = answer_seed % scores.len();
        let rank = filtered_rank_from_scores(&scores, answer, &[], TieBreak::Mean);
        prop_assert!(rank >= 1.0);
        prop_assert!(rank <= scores.len() as f64);
    }

    #[test]
    fn argmax_ranks_first(scores in scores_strategy()) {
        let answer = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let rank = filtered_rank_from_scores(&scores, answer, &[], TieBreak::Optimistic);
        prop_assert_eq!(rank, 1.0);
    }

    #[test]
    fn filtering_never_worsens_rank(scores in scores_strategy(), answer_seed in 0usize..1000, known_seed in 0usize..1000) {
        let n = scores.len();
        let answer = answer_seed % n;
        let known_candidate = known_seed % n;
        let unfiltered = filtered_rank_from_scores(&scores, answer, &[], TieBreak::Mean);
        let known = [EntityId(known_candidate as u32)];
        let filtered = filtered_rank_from_scores(&scores, answer, &known, TieBreak::Mean);
        prop_assert!(filtered <= unfiltered, "filtering must only improve ranks");
    }

    #[test]
    fn tie_break_ordering(scores in scores_strategy(), answer_seed in 0usize..1000) {
        let answer = answer_seed % scores.len();
        let opt = filtered_rank_from_scores(&scores, answer, &[], TieBreak::Optimistic);
        let mean = filtered_rank_from_scores(&scores, answer, &[], TieBreak::Mean);
        let pess = filtered_rank_from_scores(&scores, answer, &[], TieBreak::Pessimistic);
        prop_assert!(opt <= mean && mean <= pess);
    }

    #[test]
    fn sampled_rank_monotone_in_candidates(
        pool in proptest::collection::vec((0u32..50, -5.0f32..5.0), 3..40),
        split in 1usize..38,
    ) {
        // Rank against a subset never exceeds rank against the superset.
        let split = split.min(pool.len() - 1);
        let answer = EntityId(99);
        let answer_score = 0.0f32;
        let make = |cands: &[(u32, f32)]| {
            let ids: Vec<EntityId> = cands.iter().map(|&(e, _)| EntityId(e)).collect();
            let mut scores = vec![answer_score];
            scores.extend(cands.iter().map(|&(_, s)| s));
            sampled_rank(answer, &ids, &scores, &[], TieBreak::Mean)
        };
        let small = make(&pool[..split]);
        let big = make(&pool);
        prop_assert!(small <= big, "subset rank {small} > superset rank {big}");
    }

    #[test]
    fn sampled_rank_ignores_answer_duplicates(pool in proptest::collection::vec(-5.0f32..5.0, 1..20)) {
        // Candidates equal to the answer never count as competitors.
        let answer = EntityId(7);
        let cands: Vec<EntityId> = vec![answer; pool.len()];
        let mut scores = vec![0.0f32];
        scores.extend(pool.iter().copied());
        let rank = sampled_rank(answer, &cands, &scores, &[], TieBreak::Pessimistic);
        prop_assert_eq!(rank, 1.0);
    }

    #[test]
    fn metrics_bounds(ranks in proptest::collection::vec(1.0f64..500.0, 1..100)) {
        let m = RankingMetrics::from_ranks(&ranks);
        prop_assert!(m.mrr > 0.0 && m.mrr <= 1.0);
        prop_assert!(m.hits1 <= m.hits3 && m.hits3 <= m.hits10);
        prop_assert!(m.mean_rank >= 1.0);
        prop_assert!(m.mrr >= 1.0 / m.mean_rank - 1e-12, "Jensen: MRR ≥ 1/mean-rank");
        prop_assert_eq!(m.count, ranks.len());
    }

    #[test]
    fn queries_expand_two_per_triple(raw in proptest::collection::vec((0u32..9, 0u32..3, 0u32..9), 0..30)) {
        let triples: Vec<Triple> = raw.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect();
        let queries = kg_eval::ranker::queries_of(&triples);
        prop_assert_eq!(queries.len(), triples.len() * 2);
        for (i, (t, _)) in queries.iter().enumerate() {
            prop_assert_eq!(*t, triples[i / 2]);
        }
    }
}
