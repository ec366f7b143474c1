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

use kg_core::{EntityId, FilterIndex, Triple};
use kg_models::KgcModel;
use kg_recommend::SampledCandidates;

use crate::sampled::{grouped_pass, PreparedQuery, TileFold};

/// Aggregated classification metrics over all queries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AucMetrics {
    /// Mean per-query ROC-AUC (probability the positive outranks a random
    /// sampled negative; ties count half).
    pub roc_auc: f64,
    /// Mean per-query average precision with a single positive:
    /// `1 / rank` of the positive among the candidates — which is why the
    /// paper's MRR and AUC-PR coincide in the single-positive setting.
    pub auc_pr: f64,
    /// Number of queries aggregated.
    pub count: usize,
}

/// How one positive score compares with its negatives (IEEE comparisons:
/// a NaN on either side is neither a win, a tie nor a loss).
#[derive(Clone, Copy, Debug, Default)]
struct Comparisons {
    negatives: usize,
    lower: usize,
    ties: usize,
    higher: usize,
}

impl Comparisons {
    fn add(&mut self, positive: f32, negative: f32) {
        self.negatives += 1;
        self.lower += usize::from(positive > negative);
        self.ties += usize::from(positive == negative);
        self.higher += usize::from(negative > positive);
    }

    fn of(positive: f32, negatives: &[f32]) -> Self {
        let mut c = Comparisons::default();
        negatives.iter().for_each(|&n| c.add(positive, n));
        c
    }

    /// Mann–Whitney win fraction, ties counting half.
    fn roc_auc(&self) -> f64 {
        if self.negatives == 0 {
            return 1.0;
        }
        (self.lower as f64 + self.ties as f64 / 2.0) / self.negatives as f64
    }

    /// `1 / rank` of the positive (mean tie-break).
    fn average_precision(&self) -> f64 {
        1.0 / (1.0 + self.higher as f64 + self.ties as f64 / 2.0)
    }
}

impl TileFold for Comparisons {
    /// Filtered: candidates that are the answer or known-true are not
    /// negatives.
    fn fold_tile(&mut self, query: &PreparedQuery<'_>, candidates: &[EntityId], scores: &[f32]) {
        for (&c, &s) in candidates.iter().zip(scores) {
            if c != query.answer && query.known.binary_search(&c).is_err() {
                self.add(query.s_true, s);
            }
        }
    }

    fn combine(&mut self, other: Self) {
        self.negatives += other.negatives;
        self.lower += other.lower;
        self.ties += other.ties;
        self.higher += other.higher;
    }
}

/// ROC-AUC of one positive score against negative scores (Mann–Whitney).
pub fn roc_auc_single(positive: f32, negatives: &[f32]) -> f64 {
    Comparisons::of(positive, negatives).roc_auc()
}

/// Average precision with a single positive at (1-based) rank `r` is `1/r`.
pub fn average_precision_single(positive: f32, negatives: &[f32]) -> f64 {
    Comparisons::of(positive, negatives).average_precision()
}

/// Evaluate ROC-AUC / AUC-PR over `triples` using per-relation candidate
/// samples as negatives (filtered: known-true candidates are excluded),
/// through the same column-grouped pass as
/// [`crate::evaluate_sampled`].
pub fn evaluate_auc(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &FilterIndex,
    samples: &SampledCandidates,
    threads: usize,
) -> AucMetrics {
    let per_query: Vec<Comparisons> = grouped_pass(model, triples, filter, samples, threads);
    if per_query.is_empty() {
        return AucMetrics::default();
    }
    let n = per_query.len() as f64;
    AucMetrics {
        roc_auc: per_query.iter().map(Comparisons::roc_auc).sum::<f64>() / n,
        auc_pr: per_query.iter().map(Comparisons::average_precision).sum::<f64>() / n,
        count: per_query.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::sample::seeded_rng;
    use kg_core::triple::QuerySide;
    use kg_core::EntityId;
    use kg_recommend::{sample_candidates, SamplingStrategy};

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
