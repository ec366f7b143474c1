//! Sampled rank estimation: rank the true answer against a *per-relation*
//! candidate sample instead of every entity (§4.1).
//!
//! The rank within the (filtered) sample is used directly — no rescaling —
//! exactly as in OGB-style sampled evaluation. With uniform random samples
//! this is the optimistic estimator the paper analyses; with recommender-
//! guided samples the candidate pool contains essentially every entity that
//! could outrank the answer, so the sampled rank approaches the full rank
//! (Theorem 1).

use kg_core::parallel::{parallel_map_with, two_level_split};
use kg_core::timing::Stopwatch;
use kg_core::topk::cmp_score;
use kg_core::{EntityId, KnownIndex, Triple};
use kg_models::{engine, KgcModel};
use kg_recommend::SampledCandidates;

use crate::metrics::TieBreak;
use crate::ranker::{queries_of, EvalResult};
use crate::RankingMetrics;

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
    let s_true = scores[0];
    let mut higher = 0usize;
    let mut ties = 0usize;
    for (i, &c) in candidates.iter().enumerate() {
        if c == answer || known.binary_search(&c).is_ok() {
            continue;
        }
        match cmp_score(scores[i + 1], s_true) {
            std::cmp::Ordering::Greater => higher += 1,
            std::cmp::Ordering::Equal => ties += 1,
            std::cmp::Ordering::Less => {}
        }
    }
    tie.rank(higher, ties)
}

/// Evaluate `model` on `triples` using per-relation candidate samples.
///
/// The thread budget follows the two-level work plan
/// ([`kg_core::parallel::two_level_split`]): with at least `threads`
/// queries every thread ranks its own query; with fewer queries the spare
/// threads chunk each query's candidate scoring across workers
/// ([`kg_models::engine::score_answer_and_candidates_fanout`] — only for
/// candidate lists long enough to repay the fan-out). Per-candidate
/// arithmetic is independent, so ranks are bit-for-bit identical for
/// every `threads`.
pub fn evaluate_sampled<F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    samples: &SampledCandidates,
    tie: TieBreak,
    threads: usize,
) -> EvalResult {
    let queries = queries_of(triples);
    let split = two_level_split(queries.len(), threads);
    let sw = Stopwatch::start();
    let ranks = parallel_map_with(
        queries.len(),
        split.outer,
        || (Vec::<EntityId>::new(), Vec::<f32>::new()),
        |(to_score, scores), qi| {
            let (triple, side) = queries[qi];
            let candidates = samples.for_query(triple.relation, side);
            // Scored list: answer first, then the shared candidate sample
            // (buffer management lives in the engine module).
            engine::score_answer_and_candidates_fanout(
                model,
                triple,
                side,
                candidates,
                to_score,
                scores,
                split.inner,
            );
            let known = filter.known_answers(triple, side);
            sampled_rank(side.answer(triple), candidates, scores, &known, tie)
        },
    );
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
    let num_entities = model.num_entities();
    let num_relations = model.num_relations();
    for _ in 0..repeats {
        let samples = kg_recommend::sample_candidates(
            strategy,
            num_entities,
            num_relations,
            n_s,
            matrix,
            sets,
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
    use kg_core::triple::QuerySide;
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
        // One triple + a candidate sample wide enough to trigger the
        // chunked scoring path: ranks must stay bit-for-bit serial.
        let n = kg_models::engine::CANDIDATE_FANOUT_MIN * 2;
        let scores: Vec<f32> = (0..n).map(|i| ((i * 31) % n) as f32 / n as f32).collect();
        let model = MockModel { n, tail_scores: scores };
        let triples = vec![Triple::new(0, 0, 7)];
        let filter = FilterIndex::from_slices(&[&triples]);
        let samples = sample_candidates(
            SamplingStrategy::Random,
            n,
            1,
            kg_models::engine::CANDIDATE_FANOUT_MIN + 100,
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
