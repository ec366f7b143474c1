//! The train-and-estimate experiment driver behind Tables 6–8 and
//! Figures 3c/4/5: train a KGC model, and at every epoch measure the true
//! full-ranking metrics alongside every estimator's metrics and wall time.

use kg_core::sample::seeded_rng;
use kg_core::timing::{timed, TimingSamples};
use kg_core::Triple;
use kg_datasets::Dataset;
use kg_models::{build_model, KgcModel, ModelKind, TrainConfig};
use kg_recommend::{
    sample_candidates_cached, CandidateSets, ProbabilisticCache, RelationRecommender,
    SamplingStrategy, ScoreMatrix, SeenSets,
};

use crate::estimator::{EstimatorSeries, Metric};
use crate::metrics::{RankingMetrics, TieBreak};
use crate::ranker::evaluate_full;
use crate::sampled::evaluate_sampled;

/// An additional scalar estimator evaluated each epoch (used to plug the
/// Knowledge Persistence baseline in without a crate dependency cycle).
pub type ExtraEstimator<'a> = (&'static str, Box<dyn Fn(&dyn KgcModel) -> f64 + 'a>);

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Model to train.
    pub model: ModelKind,
    /// Embedding dimension (0 = the model's default).
    pub dim: usize,
    /// Training hyper-parameters (epochs, lr, negatives, …).
    pub train: TrainConfig,
    /// Per-column sample size `n_s`.
    pub sample_size: usize,
    /// Sampling strategies to estimate with.
    pub strategies: Vec<SamplingStrategy>,
    /// Tie-breaking rule.
    pub tie: TieBreak,
    /// Worker threads for ranking.
    pub threads: usize,
    /// Cap on evaluation triples (deterministic prefix; 0 = no cap).
    pub max_eval_triples: usize,
    /// Evaluate on the validation split (else test).
    pub eval_on_valid: bool,
    /// Seed for the per-epoch candidate sampling.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            model: ModelKind::ComplEx,
            dim: 0,
            train: TrainConfig::default(),
            sample_size: 0, // 0 → 10 % of |E| (the paper's default)
            strategies: SamplingStrategy::ALL.to_vec(),
            tie: TieBreak::Mean,
            threads: kg_core::parallel::default_threads(),
            max_eval_triples: 2000,
            eval_on_valid: true,
            seed: 77,
        }
    }
}

/// One estimator's output at one epoch.
#[derive(Clone, Debug)]
pub struct EstimateRecord {
    /// Which strategy produced it.
    pub strategy: SamplingStrategy,
    /// Estimated metrics.
    pub metrics: RankingMetrics,
    /// Wall seconds of the estimation.
    pub seconds: f64,
}

/// Everything measured at one epoch.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss of the epoch.
    pub loss: f32,
    /// True full-ranking metrics.
    pub full: RankingMetrics,
    /// Wall seconds of the full evaluation.
    pub full_seconds: f64,
    /// Per-strategy estimates.
    pub estimates: Vec<EstimateRecord>,
    /// Extra scalar estimators: `(name, value, seconds)`.
    pub extras: Vec<(&'static str, f64, f64)>,
}

/// A complete training run with per-epoch measurements.
#[derive(Clone, Debug)]
pub struct TrainEvalRun {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: &'static str,
    /// Per-epoch records.
    pub records: Vec<EpochRecord>,
}

impl TrainEvalRun {
    /// Estimate-vs-truth series for `strategy` on `metric`.
    pub fn series(&self, strategy: SamplingStrategy, metric: Metric) -> EstimatorSeries {
        let mut s = EstimatorSeries::new();
        for rec in &self.records {
            if let Some(e) = rec.estimates.iter().find(|e| e.strategy == strategy) {
                s.push(e.metrics.get(metric), rec.full.get(metric));
            }
        }
        s
    }

    /// Extra-estimator-vs-truth series (truth on `metric`).
    pub fn extra_series(&self, name: &str, metric: Metric) -> EstimatorSeries {
        let mut s = EstimatorSeries::new();
        for rec in &self.records {
            if let Some((_, v, _)) = rec.extras.iter().find(|(n, _, _)| *n == name) {
                s.push(*v, rec.full.get(metric));
            }
        }
        s
    }

    /// Mean ± std speed-up of `strategy` relative to the full evaluation
    /// (one Table 9 cell).
    pub fn speedup(&self, strategy: SamplingStrategy) -> (f64, f64) {
        let mut full = TimingSamples::new();
        let mut est = TimingSamples::new();
        for rec in &self.records {
            if let Some(e) = rec.estimates.iter().find(|e| e.strategy == strategy) {
                full.push(rec.full_seconds);
                est.push(e.seconds);
            }
        }
        est.speedup_vs(&full)
    }

    /// Mean ± std speed-up of an extra estimator vs the full evaluation.
    pub fn extra_speedup(&self, name: &str) -> (f64, f64) {
        let mut full = TimingSamples::new();
        let mut est = TimingSamples::new();
        for rec in &self.records {
            if let Some((_, _, secs)) = rec.extras.iter().find(|(n, _, _)| *n == name) {
                full.push(rec.full_seconds);
                est.push(*secs);
            }
        }
        est.speedup_vs(&full)
    }

    /// Mean ± std of the full-evaluation seconds.
    pub fn full_eval_seconds(&self) -> (f64, f64) {
        let samples: Vec<f64> = self.records.iter().map(|r| r.full_seconds).collect();
        kg_core::stats::mean_std(&samples)
    }

    /// The true metric trajectory.
    pub fn truth_trajectory(&self, metric: Metric) -> Vec<f64> {
        self.records.iter().map(|r| r.full.get(metric)).collect()
    }
}

/// Deterministic evaluation-triple selection (prefix cap).
fn eval_triples<'a>(dataset: &'a Dataset, config: &HarnessConfig) -> &'a [Triple] {
    let triples: &[Triple] = if config.eval_on_valid { &dataset.valid } else { &dataset.test };
    if config.max_eval_triples > 0 && triples.len() > config.max_eval_triples {
        &triples[..config.max_eval_triples]
    } else {
        triples
    }
}

/// Train `config.model` on `dataset`, measuring true metrics and all
/// estimators at every epoch. The recommender is fitted once up front
/// (scores depend only on the training graph, not the model).
pub fn run_train_eval(
    dataset: &Dataset,
    config: &HarnessConfig,
    recommender: &dyn RelationRecommender,
    extras: &[ExtraEstimator<'_>],
) -> TrainEvalRun {
    let matrix = recommender.fit(dataset);
    run_train_eval_with_matrix(dataset, config, &matrix, extras).0
}

/// As [`run_train_eval`], with a pre-fitted score matrix; also returns the
/// trained model (the Figure 4/5 MAPE sweeps reuse it).
pub fn run_train_eval_with_matrix(
    dataset: &Dataset,
    config: &HarnessConfig,
    matrix: &ScoreMatrix,
    extras: &[ExtraEstimator<'_>],
) -> (TrainEvalRun, Box<dyn kg_models::TrainableModel>) {
    let n_s = if config.sample_size == 0 {
        (dataset.num_entities() as f64 * 0.1).ceil() as usize
    } else {
        config.sample_size
    };
    let seen = SeenSets::from_store(&dataset.train);
    let static_sets = CandidateSets::static_sets(matrix, &seen);
    // Built once per matrix and only when a Probabilistic estimate is asked
    // for: 8 bytes per nonzero.
    let prob_cache = config
        .strategies
        .contains(&SamplingStrategy::Probabilistic)
        .then(|| ProbabilisticCache::new(matrix));

    let dim = if config.dim == 0 { config.model.default_dim() } else { config.dim };
    let mut model = build_model(
        config.model,
        dataset.num_entities(),
        dataset.num_relations(),
        dim,
        config.train.seed,
    );
    let evals = eval_triples(dataset, config);
    let mut sample_rng = seeded_rng(config.seed);
    let mut records = Vec::with_capacity(config.train.epochs);

    let mut train_rng = seeded_rng(config.train.seed);
    for epoch in 0..config.train.epochs {
        let loss = kg_models::train_epoch(
            model.as_mut(),
            dataset.train.triples(),
            &config.train,
            &mut train_rng,
        );

        let full =
            evaluate_full(model.as_ref(), evals, &dataset.filter, config.tie, config.threads);
        let mut estimates = Vec::with_capacity(config.strategies.len());
        for &strategy in &config.strategies {
            // Candidate samples are redrawn per evaluation, as the paper does
            // (the sampling cost is part of the measured estimation time).
            let (samples, sample_secs) = timed(|| {
                sample_candidates_cached(
                    strategy,
                    dataset.num_entities(),
                    dataset.num_relations(),
                    n_s,
                    Some(matrix),
                    Some(&static_sets),
                    prob_cache.as_ref(),
                    &mut sample_rng,
                )
            });
            let result = evaluate_sampled(
                model.as_ref(),
                evals,
                &dataset.filter,
                &samples,
                config.tie,
                config.threads,
            );
            estimates.push(EstimateRecord {
                strategy,
                metrics: result.metrics,
                seconds: result.seconds + sample_secs,
            });
        }
        let mut extra_values = Vec::with_capacity(extras.len());
        for (name, f) in extras {
            let (value, secs) = timed(|| f(model.as_ref()));
            extra_values.push((*name, value, secs));
        }
        records.push(EpochRecord {
            epoch,
            loss,
            full: full.metrics,
            full_seconds: full.seconds,
            estimates,
            extras: extra_values,
        });
    }

    (TrainEvalRun { dataset: dataset.name.clone(), model: config.model.name(), records }, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_datasets::{generate, SyntheticKgConfig};

    fn tiny_dataset() -> Dataset {
        generate(&SyntheticKgConfig {
            name: "harness-test".into(),
            num_entities: 300,
            num_relations: 8,
            num_types: 15,
            num_triples: 2500,
            seed: 3,
            ..Default::default()
        })
    }

    fn quick_config(epochs: usize) -> HarnessConfig {
        HarnessConfig {
            model: ModelKind::DistMult,
            dim: 16,
            train: TrainConfig { epochs, lr: 0.15, num_negatives: 4, ..Default::default() },
            sample_size: 40,
            threads: 2,
            max_eval_triples: 80,
            ..Default::default()
        }
    }

    #[test]
    fn harness_produces_per_epoch_records() {
        let d = tiny_dataset();
        let run = run_train_eval(&d, &quick_config(3), &kg_recommend::Lwd::untyped(), &[]);
        assert_eq!(run.records.len(), 3);
        for rec in &run.records {
            assert_eq!(rec.estimates.len(), 3);
            assert!(rec.full.count > 0);
            assert!(rec.full_seconds >= 0.0);
            assert!(rec.full.mrr >= 0.0 && rec.full.mrr <= 1.0);
        }
    }

    #[test]
    fn random_overestimates_recommender_estimates_track() {
        let d = tiny_dataset();
        let run = run_train_eval(&d, &quick_config(8), &kg_recommend::Lwd::untyped(), &[]);
        let random = run.series(SamplingStrategy::Random, Metric::Mrr);
        let static_s = run.series(SamplingStrategy::Static, Metric::Mrr);
        // The paper's headline: Random has (much) larger MAE than Static.
        assert!(
            random.mae() > static_s.mae(),
            "Random MAE {} should exceed Static MAE {}",
            random.mae(),
            static_s.mae()
        );
        // And Random's estimates sit above the truth.
        let over = random.estimates().iter().zip(random.truths()).filter(|(e, t)| e >= t).count();
        assert!(
            over * 10 >= random.len() * 8,
            "random should overestimate: {over}/{}",
            random.len()
        );
    }

    #[test]
    fn extras_are_invoked_each_epoch() {
        let d = tiny_dataset();
        let extras: Vec<ExtraEstimator> = vec![("Const", Box::new(|_m| 0.42))];
        let run = run_train_eval(&d, &quick_config(2), &kg_recommend::Lwd::untyped(), &extras);
        for rec in &run.records {
            assert_eq!(rec.extras.len(), 1);
            assert_eq!(rec.extras[0].1, 0.42);
        }
        let s = run.extra_series("Const", Metric::Mrr);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn speedup_is_positive() {
        let d = tiny_dataset();
        let run = run_train_eval(&d, &quick_config(2), &kg_recommend::Lwd::untyped(), &[]);
        let (mean, _std) = run.speedup(SamplingStrategy::Static);
        assert!(mean > 0.0);
    }
}
