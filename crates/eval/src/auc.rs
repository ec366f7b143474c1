//! Classification-style metrics over sampled candidates: ROC-AUC and
//! average precision (AUC-PR).
//!
//! §7 of the paper: *"Our sampling methods can also complement other
//! metrics, such as ROC AUC and AUC-PR that have been used previously in
//! KGC to better reflect a method's capability of predicting triples among
//! harder examples."* This module implements exactly that: the true answer
//! is the positive, the (filtered) sampled candidates are the negatives,
//! and the per-query AUCs are averaged. With uniform random negatives this
//! is the inductive-KGC protocol the paper cites (Teru et al.); with
//! recommender-guided negatives it scores against *hard* candidates.
//!
//! The protocol is the ranking's: the per-query `(higher, ties)` counters
//! come from the same pass as [`crate::evaluate_sampled`] and compare under
//! the same order ([`kg_core::topk::cmp_score`], NaN worst), so AUC-PR is
//! the sampled MRR and ROC-AUC is `(negatives − higher − ties/2) /
//! negatives`.

use kg_core::partial::PartialRankCounts;
use kg_core::{EntityId, KnownIndex, Triple};
use kg_models::KgcModel;
use kg_recommend::SampledCandidates;

use crate::ranker::queries_of;
use crate::sampled::sampled_counts;
use crate::{RankingMetrics, TieBreak};

/// Aggregated classification metrics over all queries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AucMetrics {
    /// Mean per-query ROC-AUC (probability the positive outranks a random
    /// sampled negative; ties count half).
    pub roc_auc: f64,
    /// Mean per-query average precision with a single positive:
    /// `1 / rank` of the positive among the candidates (mean tie-break) —
    /// the sampled MRR of [`crate::evaluate_sampled`] under
    /// [`TieBreak::Mean`], bit for bit.
    pub auc_pr: f64,
    /// Number of queries aggregated.
    pub count: usize,
}

/// Mann–Whitney win fraction of a positive with rank counters `c` against
/// `negatives` negatives, ties counting half; no negatives is perfect.
fn roc_auc(c: PartialRankCounts, negatives: usize) -> f64 {
    if negatives == 0 {
        return 1.0;
    }
    (negatives as f64 - c.higher as f64 - c.ties as f64 / 2.0) / negatives as f64
}

/// Evaluate ROC-AUC / AUC-PR over `triples` using per-relation candidate
/// samples as negatives (filtered: the answer and known-true candidates are
/// not negatives): a view of the rank counters of
/// [`crate::evaluate_sampled`]'s pass, plus each query's filtered-negative
/// count.
pub fn evaluate_auc<F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    samples: &SampledCandidates,
    threads: usize,
) -> AucMetrics {
    let counts = sampled_counts(model, triples, filter, samples, threads);
    if counts.is_empty() {
        return AucMetrics::default();
    }
    let roc: f64 = queries_of(triples)
        .into_iter()
        .zip(&counts)
        .map(|((t, side), &c)| {
            let (answer, known) = (side.answer(t), filter.known_answers(t, side));
            let negative = |e: &&EntityId| **e != answer && known.binary_search(e).is_err();
            roc_auc(c, samples.for_query(t.relation, side).iter().filter(negative).count())
        })
        .sum();
    let ranks: Vec<f64> =
        counts.iter().map(|c| TieBreak::Mean.rank(c.higher as usize, c.ties as usize)).collect();
    AucMetrics {
        roc_auc: roc / counts.len() as f64,
        auc_pr: RankingMetrics::from_ranks(&ranks).mrr,
        count: counts.len(),
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::*;
    use kg_core::sample::seeded_rng;
    use kg_core::topk::cmp_score;
    use kg_core::triple::QuerySide;
    use kg_core::FilterIndex;
    use kg_recommend::{sample_candidates, SamplingStrategy};

    /// `(higher, ties)` of `positive` among `negatives` under
    /// [`cmp_score`]'s order, the one every ranking path uses (NaN is the
    /// worst score).
    fn counts_of(positive: f32, negatives: &[f32]) -> PartialRankCounts {
        let mut c = PartialRankCounts::ZERO;
        for &n in negatives {
            match cmp_score(n, positive) {
                Ordering::Greater => c.higher += 1,
                Ordering::Equal => c.ties += 1,
                Ordering::Less => {}
            }
        }
        c
    }

    /// ROC-AUC of one positive score against negative scores (Mann–Whitney).
    fn roc_auc_single(positive: f32, negatives: &[f32]) -> f64 {
        roc_auc(counts_of(positive, negatives), negatives.len())
    }

    /// Average precision with a single positive at (1-based) rank `r` is `1/r`.
    fn average_precision_single(positive: f32, negatives: &[f32]) -> f64 {
        let c = counts_of(positive, negatives);
        1.0 / TieBreak::Mean.rank(c.higher as usize, c.ties as usize)
    }

    #[test]
    fn roc_auc_extremes() {
        assert_eq!(roc_auc_single(1.0, &[0.0, 0.5, 0.9]), 1.0);
        assert_eq!(roc_auc_single(0.0, &[0.5, 0.9]), 0.0);
        assert_eq!(roc_auc_single(0.5, &[0.5]), 0.5, "tie counts half");
        assert_eq!(roc_auc_single(0.3, &[]), 1.0, "no negatives = perfect");
    }

    #[test]
    fn roc_auc_is_win_fraction() {
        // positive 0.6 beats 2 of 4 negatives, ties 1 → (2 + 0.5)/4.
        assert!((roc_auc_single(0.6, &[0.1, 0.2, 0.6, 0.9]) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn average_precision_is_reciprocal_rank() {
        assert_eq!(average_precision_single(1.0, &[0.0, 0.5]), 1.0);
        assert_eq!(average_precision_single(0.4, &[0.9, 0.8, 0.1]), 1.0 / 3.0);
    }

    #[test]
    fn a_nan_positive_ranks_behind_every_real_negative() {
        // Under IEEE comparisons a NaN positive was neither beaten nor
        // tied, so it scored a perfect 1.
        assert_eq!(average_precision_single(f32::NAN, &[0.1, 0.2, 0.9]), 0.25);
        assert_eq!(roc_auc_single(f32::NAN, &[0.1, 0.2, 0.9]), 0.0);
        assert_eq!(roc_auc_single(f32::NAN, &[f32::NAN, 0.9]), 0.25, "NaN ties NaN");
    }

    #[test]
    fn a_nan_negative_is_beaten_by_every_real_positive() {
        // Under IEEE comparisons a NaN negative counted as a loss.
        assert_eq!(roc_auc_single(0.5, &[f32::NAN, 0.9]), 0.5);
        assert_eq!(average_precision_single(0.5, &[f32::NAN, 0.9]), 0.5);
    }

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
    fn perfect_model_gets_auc_one() {
        // Answers always score 1.0, everything else 0.
        let mut scores = vec![0.0f32; 20];
        scores[3] = 1.0;
        let model = MockModel { n: 20, tail_scores: scores };
        let triples = vec![Triple::new(3, 0, 3)]; // degenerate self-loop is fine for the mock
        let filter = FilterIndex::from_slices(&[&triples]);
        let samples =
            sample_candidates(SamplingStrategy::Random, 20, 1, 10, None, None, &mut seeded_rng(1));
        let m = evaluate_auc(&model, &triples, &filter, &samples, 1);
        assert_eq!(m.count, 2);
        assert_eq!(m.roc_auc, 1.0);
        assert_eq!(m.auc_pr, 1.0);
    }

    #[test]
    fn random_model_auc_near_half() {
        let scores: Vec<f32> = (0..200).map(|i| ((i * 37) % 200) as f32).collect();
        let model = MockModel { n: 200, tail_scores: scores };
        let triples: Vec<Triple> = (0..50).map(|i| Triple::new(i, 0, (i * 13 + 7) % 200)).collect();
        let filter = FilterIndex::from_slices(&[&triples]);
        let samples =
            sample_candidates(SamplingStrategy::Random, 200, 1, 50, None, None, &mut seeded_rng(2));
        let m = evaluate_auc(&model, &triples, &filter, &samples, 2);
        assert!((m.roc_auc - 0.5).abs() < 0.15, "uninformative model AUC {}", m.roc_auc);
    }

    #[test]
    fn hard_negatives_lower_auc() {
        // Scores correlate with entity id; answers are mid-ranked. Negatives
        // drawn only from high-score entities (hard) must lower AUC relative
        // to uniform negatives.
        let scores: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let model = MockModel { n: 100, tail_scores: scores };
        let triples: Vec<Triple> = (0..30).map(|i| Triple::new(i, 0, 50 + (i % 10))).collect();
        let filter = FilterIndex::from_slices(&[&triples]);
        let uniform =
            sample_candidates(SamplingStrategy::Random, 100, 1, 30, None, None, &mut seeded_rng(3));
        let hard_matrix = kg_recommend::ScoreMatrix::from_columns(
            100,
            1,
            vec![
                (60..100u32).map(|e| (e, 1.0f32)).collect(),
                (60..100u32).map(|e| (e, 1.0f32)).collect(),
            ],
        );
        let hard = sample_candidates(
            SamplingStrategy::Probabilistic,
            100,
            1,
            30,
            Some(&hard_matrix),
            None,
            &mut seeded_rng(3),
        );
        let auc_uniform = evaluate_auc(&model, &triples, &filter, &uniform, 1);
        let auc_hard = evaluate_auc(&model, &triples, &filter, &hard, 1);
        assert!(
            auc_hard.roc_auc < auc_uniform.roc_auc,
            "hard negatives should depress AUC: {} vs {}",
            auc_hard.roc_auc,
            auc_uniform.roc_auc
        );
    }
}
