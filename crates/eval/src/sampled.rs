//! Sampled rank estimation: rank the true answer against a *per-relation*
//! candidate sample instead of every entity (§4.1).
//!
//! The rank within the (filtered) sample is used directly — no rescaling —
//! exactly as in OGB-style sampled evaluation. With uniform random samples
//! this is the optimistic estimator the paper analyses; with recommender-
//! guided samples the candidate pool contains essentially every entity that
//! could outrank the answer, so the sampled rank approaches the full rank
//! (Theorem 1).

use std::borrow::Cow;

use kg_core::parallel::{parallel_map_indexed, two_level_split, ShardPlan};
use kg_core::partial::{Partial, PartialRankCounts};
use kg_core::timing::Stopwatch;
use kg_core::triple::QuerySide;
use kg_core::{EntityId, KnownIndex, Triple};
use kg_models::{engine, KgcModel};
use kg_recommend::SampledCandidates;

use crate::metrics::TieBreak;
use crate::ranker::{queries_of, EvalResult};
use crate::RankingMetrics;

/// Queries scored against one walk over a column's tiles; bounds the
/// prepared-query scratch however many queries a column serves.
const GROUP_QUERIES: usize = 256;

/// Candidate count below which a column's scoring is not split across
/// spare threads: spawning a thread team costs more than scoring this few.
const FANOUT_MIN_CANDIDATES: usize = 1024;

/// Rank `answer` against `candidates` under the filtered protocol.
///
/// `scores[0]` must be the answer's score and `scores[1..]` the candidates'
/// scores (parallel to `candidates`). Candidates that are the answer itself
/// or known-true answers are skipped. NaN scores follow the explicit
/// ordering of [`kg_core::topk::cmp_score`] (NaN is the worst score), so
/// sampled ranks agree with the streamed full-ranking kernel on degenerate
/// scores too.
pub fn sampled_rank(
    answer: EntityId,
    candidates: &[EntityId],
    scores: &[f32],
    known: &[EntityId],
    tie: TieBreak,
) -> f64 {
    debug_assert_eq!(scores.len(), candidates.len() + 1);
    let counts = engine::count_gathered(&scores[1..], candidates, answer, scores[0], known);
    tie.rank(counts.higher as usize, counts.ties as usize)
}

/// What a grouped pass accumulates for one query, tile by tile.
pub(crate) trait TileFold: Clone + Default + Send {
    /// Fold in one scored tile of the query's candidates.
    fn fold_tile(&mut self, query: &PreparedQuery<'_>, candidates: &[EntityId], scores: &[f32]);

    /// Add the accumulator of a disjoint part of the same candidate list.
    fn combine(&mut self, other: Self);
}

/// The per-query state a tile is folded against.
pub(crate) struct PreparedQuery<'a> {
    pub(crate) answer: EntityId,
    /// The answer's own score.
    pub(crate) s_true: f32,
    /// Known answers of the query, ascending.
    pub(crate) known: Cow<'a, [EntityId]>,
}

impl TileFold for PartialRankCounts {
    fn fold_tile(&mut self, query: &PreparedQuery<'_>, candidates: &[EntityId], scores: &[f32]) {
        self.merge(engine::count_gathered(
            scores,
            candidates,
            query.answer,
            query.s_true,
            &query.known,
        ));
    }

    fn combine(&mut self, other: Self) {
        self.merge(other);
    }
}

/// The pass behind [`evaluate_sampled`] (which documents the work plan) and
/// [`crate::auc::evaluate_auc`]: one accumulator per query of
/// `queries_of(triples)`, in that order.
pub(crate) fn grouped_pass<A: TileFold, F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    samples: &SampledCandidates,
    threads: usize,
) -> Vec<A> {
    let queries = queries_of(triples);
    if queries.is_empty() {
        return Vec::new();
    }
    let column = |qi: &usize| (queries[*qi].0.relation, queries[*qi].1 == QuerySide::Tail);
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(column);
    let split = two_level_split(queries.len(), threads);
    let pieces = ShardPlan::new(order.len(), split.outer);
    let tile = engine::tile_rows(model.dim());
    let scored = parallel_map_indexed(pieces.num_shards(), split.outer, |p| {
        let piece = &order[pieces.range(p)];
        let mut out: Vec<A> = Vec::with_capacity(piece.len());
        let mut q = Vec::new();
        for group in piece.chunk_by(|a, b| column(a) == column(b)) {
            for group in group.chunks(GROUP_QUERIES) {
                let group = Group::prepare(model, filter, samples, &queries, group, &mut q);
                out.extend(group.score(tile, split.inner));
            }
        }
        out
    });
    let mut result = vec![A::default(); queries.len()];
    for (&qi, acc) in order.iter().zip(scored.into_iter().flatten()) {
        result[qi] = acc;
    }
    result
}

/// Queries of one column, prepared against its shared candidate list.
struct Group<'a> {
    model: &'a dyn KgcModel,
    candidates: &'a [EntityId],
    /// The prepared query vectors, `query_len` floats each, back to back.
    q: &'a [f32],
    queries: Vec<PreparedQuery<'a>>,
}

impl<'a> Group<'a> {
    /// Build every member's query vector (into `q`, reused across groups),
    /// reference score and known answers — once per `(triple, side)`.
    fn prepare<F: KnownIndex + ?Sized>(
        model: &'a dyn KgcModel,
        filter: &'a F,
        samples: &'a SampledCandidates,
        all: &[(Triple, QuerySide)],
        members: &[usize],
        q: &'a mut Vec<f32>,
    ) -> Self {
        let (first, side) = all[members[0]];
        let len = model.query_len();
        q.clear();
        q.resize(members.len() * len, 0.0);
        let queries = members
            .iter()
            .enumerate()
            .map(|(i, &qi)| {
                let (triple, side) = all[qi];
                let q = &mut q[i * len..(i + 1) * len];
                model.build_query(triple, side, q);
                let answer = side.answer(triple);
                let mut s_true = [0.0f32];
                model.score_gathered(q, &[answer], &mut s_true);
                let [s_true] = s_true;
                PreparedQuery { answer, s_true, known: filter.known_answers(triple, side) }
            })
            .collect();
        Group { model, candidates: samples.for_query(first.relation, side), q, queries }
    }

    /// One accumulator per member, over the whole candidate list: folded
    /// in `fanout` contiguous parts, one thread each, and combined. A list
    /// too short to repay a thread team is one part.
    fn score<A: TileFold>(&self, tile: usize, fanout: usize) -> Vec<A> {
        let fanout = if self.candidates.len() < FANOUT_MIN_CANDIDATES { 1 } else { fanout };
        let parts = ShardPlan::new(self.candidates.len(), fanout);
        let mut folded = parallel_map_indexed(parts.num_shards(), fanout, |s| {
            self.fold::<A>(&self.candidates[parts.range(s)], tile)
        })
        .into_iter();
        let mut accs = folded.next().unwrap_or_default();
        for part in folded {
            for (acc, other) in accs.iter_mut().zip(part) {
                acc.combine(other);
            }
        }
        accs
    }

    /// Walk `candidates` tile by tile; every member scores a tile before
    /// the next one is gathered.
    fn fold<A: TileFold>(&self, candidates: &[EntityId], tile: usize) -> Vec<A> {
        let len = self.model.query_len();
        let mut accs = vec![A::default(); self.queries.len()];
        let mut scores = vec![0.0f32; tile.min(candidates.len())];
        for tile in candidates.chunks(tile) {
            let scores = &mut scores[..tile.len()];
            for (i, (query, acc)) in self.queries.iter().zip(&mut accs).enumerate() {
                self.model.score_gathered(&self.q[i * len..(i + 1) * len], tile, scores);
                acc.fold_tile(query, tile, scores);
            }
        }
        accs
    }
}

/// Evaluate `model` on `triples` using per-relation candidate samples: the
/// filtered rank of every query's answer within its column's sample.
///
/// Candidates are drawn per `(relation, side)` column, so queries are
/// grouped by column and each column's candidate rows are gathered in
/// L1-sized tiles that *every* query of the column scores while they are
/// hot — a column serving hundreds of queries reads its rows from memory
/// once, not once per query. Each query is prepared once
/// ([`KgcModel::build_query`]); a tile costs one
/// [`KgcModel::score_gathered`] per query.
///
/// The thread budget follows [`two_level_split`]: the column-sorted
/// queries are cut into `outer` even pieces, and with fewer queries than
/// threads the spare threads split a column's candidates between them.
/// A candidate's score depends on the query and its row alone and the
/// per-tile counts add up, so ranks are bit-for-bit identical for every
/// `threads`.
pub fn evaluate_sampled<F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    samples: &SampledCandidates,
    tie: TieBreak,
    threads: usize,
) -> EvalResult {
    let sw = Stopwatch::start();
    let counts: Vec<PartialRankCounts> = grouped_pass(model, triples, filter, samples, threads);
    let ranks: Vec<f64> =
        counts.iter().map(|c| tie.rank(c.higher as usize, c.ties as usize)).collect();
    let seconds = sw.seconds();
    EvalResult { metrics: RankingMetrics::from_ranks(&ranks), ranks, seconds }
}

/// OGB-style repeated estimation: draw `repeats` independent candidate
/// samples and report the per-metric mean ± sample std of the estimates
/// (ogbl-wikikg2 reports MRR this way; the paper's Figures 4/5 average five
/// samplings).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_sampled_repeated<F: KnownIndex + ?Sized, R: rand::Rng>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    strategy: kg_recommend::SamplingStrategy,
    n_s: usize,
    repeats: usize,
    matrix: Option<&kg_recommend::ScoreMatrix>,
    sets: Option<&kg_recommend::CandidateSets>,
    tie: TieBreak,
    threads: usize,
    rng: &mut R,
) -> RepeatedEstimate {
    assert!(repeats >= 1);
    let mut mrr = Vec::with_capacity(repeats);
    let mut hits10 = Vec::with_capacity(repeats);
    let mut seconds = Vec::with_capacity(repeats);
    // One alias-table build serves every repeat.
    let cache = match (strategy, matrix) {
        (kg_recommend::SamplingStrategy::Probabilistic, Some(m)) => {
            Some(kg_recommend::ProbabilisticCache::new(m))
        }
        _ => None,
    };
    for _ in 0..repeats {
        let samples = kg_recommend::sample_candidates_cached(
            strategy,
            model.num_entities(),
            model.num_relations(),
            n_s,
            matrix,
            sets,
            cache.as_ref(),
            rng,
        );
        let r = evaluate_sampled(model, triples, filter, &samples, tie, threads);
        mrr.push(r.metrics.mrr);
        hits10.push(r.metrics.hits10);
        seconds.push(r.seconds);
    }
    RepeatedEstimate {
        mrr: kg_core::stats::mean_std(&mrr),
        hits10: kg_core::stats::mean_std(&hits10),
        seconds: kg_core::stats::mean_std(&seconds),
        repeats,
    }
}

/// Mean ± std of repeated sampled estimates.
#[derive(Clone, Copy, Debug)]
pub struct RepeatedEstimate {
    /// `(mean, std)` of the MRR estimates.
    pub mrr: (f64, f64),
    /// `(mean, std)` of the Hits@10 estimates.
    pub hits10: (f64, f64),
    /// `(mean, std)` of wall seconds per estimate.
    pub seconds: (f64, f64),
    /// Number of repetitions.
    pub repeats: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::sample::seeded_rng;
    use kg_core::FilterIndex;
    use kg_recommend::{sample_candidates, SamplingStrategy};

    struct MockModel {
        n: usize,
        tail_scores: Vec<f32>,
    }

    impl KgcModel for MockModel {
        fn name(&self) -> &'static str {
            "Mock"
        }
        fn dim(&self) -> usize {
            1
        }
        fn num_entities(&self) -> usize {
            self.n
        }
        fn num_relations(&self) -> usize {
            1
        }
        fn query_len(&self) -> usize {
            0
        }
        fn build_query(&self, _triple: Triple, _side: QuerySide, _q: &mut [f32]) {}
        fn score_rows(&self, _q: &[f32], rows: std::ops::Range<usize>, out: &mut [f32]) {
            out.copy_from_slice(&self.tail_scores[rows]);
        }
        fn score_gathered(&self, _q: &[f32], c: &[EntityId], out: &mut [f32]) {
            for (o, &e) in out.iter_mut().zip(c) {
                *o = self.tail_scores[e.index()];
            }
        }
    }

    #[test]
    fn sampled_rank_counts_only_sampled_competitors() {
        // answer scores 0.5; candidates: 2 higher, 1 lower, 1 is the answer.
        let answer = EntityId(0);
        let candidates = [EntityId(1), EntityId(2), EntityId(3), EntityId(0)];
        let scores = [0.5f32, 0.9, 0.8, 0.1, 0.5];
        let rank = sampled_rank(answer, &candidates, &scores, &[], TieBreak::Mean);
        assert_eq!(rank, 3.0);
    }

    #[test]
    fn sampled_rank_filters_known() {
        let answer = EntityId(0);
        let candidates = [EntityId(1), EntityId(2)];
        let scores = [0.5f32, 0.9, 0.8];
        let known = [EntityId(1)];
        let rank = sampled_rank(answer, &candidates, &scores, &known, TieBreak::Mean);
        assert_eq!(rank, 2.0, "known competitor 1 must be skipped");
    }

    #[test]
    fn full_sample_equals_full_rank() {
        // Sampling ALL entities must reproduce the full filtered rank.
        let scores: Vec<f32> = (0..30).map(|i| ((i * 7) % 30) as f32 / 30.0).collect();
        let model = MockModel { n: 30, tail_scores: scores };
        let triples: Vec<Triple> = (0..10).map(|i| Triple::new(i, 0, 29 - i)).collect();
        let filter = FilterIndex::from_slices(&[&triples]);
        let samples = sample_candidates(
            SamplingStrategy::Random,
            30,
            1,
            30, // = |E| → everything sampled
            None,
            None,
            &mut seeded_rng(1),
        );
        let full = crate::evaluate_full(&model, &triples, &filter, TieBreak::Mean, 1);
        let est = evaluate_sampled(&model, &triples, &filter, &samples, TieBreak::Mean, 1);
        assert_eq!(full.ranks, est.ranks);
    }

    #[test]
    fn small_random_sample_overestimates() {
        // The paper's core observation: sampled MRR ≥ full MRR, with the
        // gap growing as n_s shrinks.
        let scores: Vec<f32> = (0..200).map(|i| (i as f32).sin() * 0.5 + 0.5).collect();
        let model = MockModel { n: 200, tail_scores: scores };
        let triples: Vec<Triple> = (0..40).map(|i| Triple::new(i, 0, (i * 3 + 7) % 200)).collect();
        let filter = FilterIndex::from_slices(&[&triples]);
        let full = crate::evaluate_full(&model, &triples, &filter, TieBreak::Mean, 1);
        let mut rng = seeded_rng(2);
        let tiny = sample_candidates(SamplingStrategy::Random, 200, 1, 10, None, None, &mut rng);
        let est = evaluate_sampled(&model, &triples, &filter, &tiny, TieBreak::Mean, 1);
        assert!(
            est.metrics.mrr > full.metrics.mrr,
            "sampled {} should exceed true {}",
            est.metrics.mrr,
            full.metrics.mrr
        );
    }

    #[test]
    fn single_query_candidate_fanout_matches_serial() {
        // One triple + a candidate sample wide enough to be split across
        // the spare threads: ranks must stay bit-for-bit serial.
        let n = FANOUT_MIN_CANDIDATES * 2;
        let scores: Vec<f32> = (0..n).map(|i| ((i * 31) % n) as f32 / n as f32).collect();
        let model = MockModel { n, tail_scores: scores };
        let triples = vec![Triple::new(0, 0, 7)];
        let filter = FilterIndex::from_slices(&[&triples]);
        let samples = sample_candidates(
            SamplingStrategy::Random,
            n,
            1,
            FANOUT_MIN_CANDIDATES + 100,
            None,
            None,
            &mut seeded_rng(6),
        );
        let serial = evaluate_sampled(&model, &triples, &filter, &samples, TieBreak::Mean, 1);
        let fanned = evaluate_sampled(&model, &triples, &filter, &samples, TieBreak::Mean, 8);
        assert_eq!(serial.ranks, fanned.ranks);
    }

    #[test]
    fn repeated_estimation_reports_mean_and_std() {
        let scores: Vec<f32> = (0..100).map(|i| ((i * 13) % 100) as f32 / 100.0).collect();
        let model = MockModel { n: 100, tail_scores: scores };
        let triples: Vec<Triple> = (0..20).map(|i| Triple::new(i, 0, (i + 1) % 100)).collect();
        let filter = FilterIndex::from_slices(&[&triples]);
        let mut rng = seeded_rng(4);
        let est = evaluate_sampled_repeated(
            &model,
            &triples,
            &filter,
            SamplingStrategy::Random,
            15,
            5,
            None,
            None,
            TieBreak::Mean,
            1,
            &mut rng,
        );
        assert_eq!(est.repeats, 5);
        assert!(est.mrr.0 > 0.0 && est.mrr.0 <= 1.0);
        assert!(est.mrr.1 >= 0.0, "std must be non-negative");
        assert!(est.hits10.0 >= est.mrr.0 - 1e-9, "Hits@10 ≥ MRR for any rank distribution");
    }

    #[test]
    fn per_relation_sample_reused_across_queries() {
        let samples =
            sample_candidates(SamplingStrategy::Random, 50, 1, 5, None, None, &mut seeded_rng(3));
        let a = samples.for_query(kg_core::RelationId(0), QuerySide::Tail);
        let b = samples.for_query(kg_core::RelationId(0), QuerySide::Tail);
        assert_eq!(a, b, "same relation+side must reuse the same candidates");
    }
}
