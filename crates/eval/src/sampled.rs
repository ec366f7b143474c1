//! Sampled rank estimation: rank the true answer against a *per-relation*
//! candidate sample instead of every entity (§4.1).
//!
//! The rank within the (filtered) sample is used directly — no rescaling —
//! exactly as in OGB-style sampled evaluation. With uniform random samples
//! this is the optimistic estimator the paper analyses; with recommender-
//! guided samples the candidate pool contains essentially every entity that
//! could outrank the answer, so the sampled rank approaches the full rank
//! (Theorem 1). The estimator *is* the full filtered rank over a smaller
//! candidate set, and the code says so: both run the one ranking pass of
//! [`crate::ranker`], this one over each column's candidate list instead of
//! the entity range, so at `n_s = |E|` the two are the same number.

use kg_core::partial::PartialRankCounts;
use kg_core::timing::Stopwatch;
use kg_core::triple::QuerySide;
use kg_core::{EntityId, KnownIndex, Triple};
use kg_models::{engine, KgcModel};
use kg_recommend::SampledCandidates;

use crate::metrics::TieBreak;
use crate::ranker::{rank_pass, EvalResult};

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

/// The filtered-rank counters of every query of `queries_of(triples)`
/// within its `(relation, side)` column's sample, in query order: the
/// pass behind [`evaluate_sampled`] (which documents it) and
/// [`crate::evaluate_auc`].
pub(crate) fn sampled_counts<F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    samples: &SampledCandidates,
    threads: usize,
) -> Vec<PartialRankCounts> {
    let column = |&(t, side): &(Triple, QuerySide)| (t.relation, side == QuerySide::Tail);
    rank_pass(model, triples, filter, threads, column, |(relation, tail)| {
        samples.for_query(relation, if tail { QuerySide::Tail } else { QuerySide::Head })
    })
}

/// Evaluate `model` on `triples` using per-relation candidate samples: the
/// filtered rank of every query's answer within its column's sample.
///
/// This is [`crate::evaluate_full`]'s pass over another row source:
/// candidates are drawn per `(relation, side)` column, so queries are
/// grouped by column and ranked in blocks of [`engine::BLOCK_QUERIES`]
/// against the column's candidate list. A block's candidate rows are
/// gathered in L1-sized tiles that every query of the block scores while
/// they are hot ([`KgcModel::score_gathered`] per query), so a column
/// serving many queries reads its rows from memory once per block, not
/// once per query; each query is prepared once. The thread budget splits
/// as in `evaluate_full`, and ranks are bit-for-bit identical for every
/// `threads`; with every entity sampled they are the full filtered ranks.
pub fn evaluate_sampled<F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    samples: &SampledCandidates,
    tie: TieBreak,
    threads: usize,
) -> EvalResult {
    let sw = Stopwatch::start();
    let counts = sampled_counts(model, triples, filter, samples, threads);
    EvalResult::from_counts(&counts, tie, sw)
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
        let n = crate::ranker::FANOUT_MIN_ROWS * 2;
        let scores: Vec<f32> = (0..n).map(|i| ((i * 31) % n) as f32 / n as f32).collect();
        let model = MockModel { n, tail_scores: scores };
        let triples = vec![Triple::new(0, 0, 7)];
        let filter = FilterIndex::from_slices(&[&triples]);
        let samples = sample_candidates(
            SamplingStrategy::Random,
            n,
            1,
            crate::ranker::FANOUT_MIN_ROWS + 100,
            None,
            None,
            &mut seeded_rng(6),
        );
        let serial = evaluate_sampled(&model, &triples, &filter, &samples, TieBreak::Mean, 1);
        let fanned = evaluate_sampled(&model, &triples, &filter, &samples, TieBreak::Mean, 8);
        assert_eq!(serial.ranks, fanned.ranks);
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
