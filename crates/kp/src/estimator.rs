//! The KP estimator: positives vs corrupted negatives, diagram distance.

use kg_core::sample::seeded_rng;
use kg_core::triple::QuerySide;
use kg_core::{DrColumn, EntityId, Triple};
use kg_models::KgcModel;
use kg_recommend::{CandidateSets, ProbabilisticCache, SamplingStrategy, ScoreMatrix};
use rand::Rng;

use crate::graph::ScoredGraph;
use crate::persistence::persistence_diagram;
use crate::wasserstein::sliced_wasserstein;

/// KP hyper-parameters.
#[derive(Clone, Debug)]
pub struct KpConfig {
    /// Positive triples sampled per estimate (`O(|E|)` in the original).
    pub sample_triples: usize,
    /// Sliced Wasserstein directions.
    pub directions: usize,
    /// RNG seed (re-seeded per estimate for determinism).
    pub seed: u64,
}

impl Default for KpConfig {
    fn default() -> Self {
        KpConfig { sample_triples: 400, directions: 16, seed: 31 }
    }
}

/// Computes the KP metric for a model; negatives may be drawn uniformly
/// (the original), probabilistically, or from static candidate sets — the
/// paper's "can our sampling help KP?" variants in Table 7.
pub struct KpEstimator {
    positives: Vec<Triple>,
    num_entities: usize,
    strategy: SamplingStrategy,
    matrix: Option<ScoreMatrix>,
    cache: Option<ProbabilisticCache>,
    sets: Option<CandidateSets>,
    config: KpConfig,
}

impl KpEstimator {
    /// KP with uniform random negatives (the original formulation).
    pub fn random(eval_triples: &[Triple], num_entities: usize, config: KpConfig) -> Self {
        KpEstimator {
            positives: eval_triples.to_vec(),
            num_entities,
            strategy: SamplingStrategy::Random,
            matrix: None,
            cache: None,
            sets: None,
            config,
        }
    }

    /// KP with probabilistic (score-weighted) negatives.
    pub fn probabilistic(
        eval_triples: &[Triple],
        num_entities: usize,
        matrix: ScoreMatrix,
        config: KpConfig,
    ) -> Self {
        let cache = ProbabilisticCache::new(&matrix);
        KpEstimator {
            positives: eval_triples.to_vec(),
            num_entities,
            strategy: SamplingStrategy::Probabilistic,
            matrix: Some(matrix),
            cache: Some(cache),
            sets: None,
            config,
        }
    }

    /// KP with negatives drawn from static candidate sets.
    pub fn static_sets(
        eval_triples: &[Triple],
        num_entities: usize,
        sets: CandidateSets,
        config: KpConfig,
    ) -> Self {
        KpEstimator {
            positives: eval_triples.to_vec(),
            num_entities,
            strategy: SamplingStrategy::Static,
            matrix: None,
            cache: None,
            sets: Some(sets),
            config,
        }
    }

    /// Which strategy corrupts the negatives.
    pub fn strategy(&self) -> SamplingStrategy {
        self.strategy
    }

    fn corrupt<R: Rng>(&self, t: Triple, side: QuerySide, rng: &mut R) -> EntityId {
        let nr = self
            .matrix
            .as_ref()
            .map(ScoreMatrix::num_relations)
            .or_else(|| self.sets.as_ref().map(CandidateSets::num_relations))
            .unwrap_or(0);
        let col = match side {
            QuerySide::Tail => DrColumn::range(t.relation, nr),
            QuerySide::Head => DrColumn::domain(t.relation),
        };
        match self.strategy {
            SamplingStrategy::Random => EntityId(rng.gen_range(0..self.num_entities as u32)),
            SamplingStrategy::Probabilistic => {
                let m = self.matrix.as_ref().expect("probabilistic KP needs a matrix");
                let cache = self.cache.as_ref().expect("probabilistic KP needs a cache");
                match cache.sample_one(m, col, rng) {
                    Some(e) => e,
                    None => EntityId(rng.gen_range(0..self.num_entities as u32)),
                }
            }
            SamplingStrategy::Static => {
                let s = self.sets.as_ref().expect("static KP needs candidate sets");
                let set = s.column(col);
                if set.is_empty() {
                    return EntityId(rng.gen_range(0..self.num_entities as u32));
                }
                EntityId(set[rng.gen_range(0..set.len())])
            }
        }
    }

    /// Compute the KP metric: sliced Wasserstein distance between the
    /// persistence diagrams of the positive and negative scored graphs.
    pub fn estimate(&self, model: &dyn KgcModel) -> f64 {
        let mut rng = seeded_rng(self.config.seed);
        let n = self.config.sample_triples.min(self.positives.len());
        if n == 0 {
            return 0.0;
        }
        // Deterministic positive subsample.
        let idx = kg_core::sample::uniform_without_replacement(&mut rng, self.positives.len(), n);
        let positives: Vec<Triple> = idx.iter().map(|&i| self.positives[i as usize]).collect();

        // Negatives: corrupt alternating sides.
        let negatives: Vec<Triple> = positives
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let side = if i % 2 == 0 { QuerySide::Tail } else { QuerySide::Head };
                let e = self.corrupt(t, side, &mut rng);
                match side {
                    QuerySide::Tail => Triple { tail: e, ..t },
                    QuerySide::Head => Triple { head: e, ..t },
                }
            })
            .collect();

        let g_pos = ScoredGraph::from_scored_triples(model, &positives);
        let g_neg = ScoredGraph::from_scored_triples(model, &negatives);
        let d_pos = persistence_diagram(&g_pos);
        let d_neg = persistence_diagram(&g_neg);
        sliced_wasserstein(&d_pos, &d_neg, self.config.directions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_models::{build_model, ModelKind};

    fn triples(n: u32) -> Vec<Triple> {
        (0..n).map(|i| Triple::new(i % 20, i % 3, (i * 7 + 1) % 20)).collect()
    }

    /// A model that sharply separates "true" triples (even tail) from others.
    struct Separator;
    impl KgcModel for Separator {
        fn name(&self) -> &'static str {
            "Sep"
        }
        fn dim(&self) -> usize {
            1
        }
        fn num_entities(&self) -> usize {
            20
        }
        fn num_relations(&self) -> usize {
            3
        }
        fn query_len(&self) -> usize {
            0
        }
        fn build_query(&self, _triple: Triple, _side: QuerySide, _q: &mut [f32]) {}
        fn score_rows(&self, _q: &[f32], rows: std::ops::Range<usize>, out: &mut [f32]) {
            for (o, e) in out.iter_mut().zip(rows) {
                *o = Separator::row(e);
            }
        }
        fn score_gathered(&self, _q: &[f32], c: &[EntityId], out: &mut [f32]) {
            for (o, &e) in out.iter_mut().zip(c) {
                *o = Separator::row(e.index());
            }
        }
    }

    impl Separator {
        fn row(e: usize) -> f32 {
            if e % 2 == 1 {
                6.0
            } else {
                -6.0
            }
        }
    }

    #[test]
    fn estimate_is_finite_and_deterministic() {
        let pos = triples(60);
        let est = KpEstimator::random(&pos, 20, KpConfig::default());
        let model = build_model(ModelKind::DistMult, 20, 3, 8, 1);
        let a = est.estimate(model.as_ref());
        let b = est.estimate(model.as_ref());
        assert!(a.is_finite() && a >= 0.0);
        assert_eq!(a, b, "same seed ⇒ same estimate");
    }

    #[test]
    fn separating_model_scores_higher_than_constant_model() {
        // Positives all have odd tails (score 6); corruptions land on even
        // tails half the time (score −6) → diagrams far apart.
        let pos: Vec<Triple> = (0..40).map(|i| Triple::new(i % 10, 0, 2 * (i % 10) + 1)).collect();
        let sep = Separator;
        let est =
            KpEstimator::random(&pos, 20, KpConfig { sample_triples: 40, ..Default::default() });
        let d_sep = est.estimate(&sep);

        struct Constant;
        impl KgcModel for Constant {
            fn name(&self) -> &'static str {
                "Const"
            }
            fn dim(&self) -> usize {
                1
            }
            fn num_entities(&self) -> usize {
                20
            }
            fn num_relations(&self) -> usize {
                3
            }
            fn query_len(&self) -> usize {
                0
            }
            fn build_query(&self, _triple: Triple, _side: QuerySide, _q: &mut [f32]) {}
            fn score_rows(&self, _q: &[f32], _rows: std::ops::Range<usize>, out: &mut [f32]) {
                out.fill(0.0);
            }
            fn score_gathered(&self, _q: &[f32], _c: &[EntityId], out: &mut [f32]) {
                out.fill(0.0);
            }
        }
        let d_const = est.estimate(&Constant);
        assert!(d_sep > d_const, "separator {d_sep} should beat constant {d_const}");
    }

    #[test]
    fn empty_positives_yield_zero() {
        let est = KpEstimator::random(&[], 20, KpConfig::default());
        let model = build_model(ModelKind::TransE, 20, 3, 8, 2);
        assert_eq!(est.estimate(model.as_ref()), 0.0);
    }
}
