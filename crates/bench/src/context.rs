//! Shared experiment state: dataset, recommender and training-run caches.
//!
//! Tables 6/7/8/9/12–15 all aggregate the *same* per-epoch measurements;
//! generating them once per process keeps `repro all` tractable.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use kg_datasets::{generate, preset, Dataset, PresetId, Scale};
use kg_eval::harness::{run_train_eval_with_matrix, ExtraEstimator, HarnessConfig, TrainEvalRun};
use kg_eval::TieBreak;
use kg_kp::{KpConfig, KpEstimator};
use kg_models::{KgcModel, ModelKind, TrainConfig};
use kg_recommend::{CandidateSets, Lwd, RelationRecommender, ScoreMatrix, SeenSets};

/// The model zoo evaluated per dataset — exactly the rows of Tables 6/7.
pub fn models_for(id: PresetId) -> &'static [ModelKind] {
    use ModelKind::*;
    match id {
        PresetId::Fb15k | PresetId::Fb15k237 => &[TransE, RotatE, Rescal, DistMult, ConvE, ComplEx],
        PresetId::CodexS => &[TransE, Rescal, ConvE, ComplEx],
        PresetId::CodexM => &[ConvE, ComplEx],
        PresetId::CodexL => &[TransE, TuckEr, Rescal, ConvE, ComplEx],
        PresetId::Yago3 | PresetId::WikiKg2 => &[ComplEx],
    }
}

/// Datasets used in the correlation/MAE tables (all seven presets).
pub const CORRELATION_DATASETS: [PresetId; 7] = [
    PresetId::Fb15k237,
    PresetId::Fb15k,
    PresetId::CodexS,
    PresetId::CodexM,
    PresetId::CodexL,
    PresetId::Yago3,
    PresetId::WikiKg2,
];

/// Datasets of Table 5 / Table 2 (the three larger, typed benchmarks).
pub const RECOMMENDER_DATASETS: [PresetId; 3] =
    [PresetId::Fb15k237, PresetId::Yago3, PresetId::WikiKg2];

/// One dataset's cached experiment assets.
pub struct DatasetAssets {
    /// The generated dataset.
    pub dataset: Arc<Dataset>,
    /// L-WD score matrix (the framework's default recommender).
    pub lwd: Arc<ScoreMatrix>,
    /// Static candidate sets derived from L-WD.
    pub static_sets: Arc<CandidateSets>,
}

/// A finished training run plus the final model.
pub struct CachedRun {
    /// Per-epoch measurements.
    pub run: TrainEvalRun,
    /// The trained model (used by the sample-size sweeps).
    pub model: Arc<Box<dyn kg_models::TrainableModel>>,
    /// Which model kind it is.
    pub kind: ModelKind,
}

/// Shared context for the repro experiments.
pub struct Ctx {
    /// Experiment scale.
    pub scale: Scale,
    /// Ranking threads.
    pub threads: usize,
    datasets: Mutex<HashMap<PresetId, Arc<DatasetAssets>>>,
    runs: Mutex<HashMap<PresetId, Arc<Vec<CachedRun>>>>,
    /// Print progress lines to stderr.
    pub verbose: bool,
}

impl Ctx {
    /// New context at `scale` with progress logging disabled (tests).
    pub fn quiet(scale: Scale) -> Self {
        let mut ctx = Self::new(scale);
        ctx.verbose = false;
        ctx
    }

    /// New context at `scale`.
    pub fn new(scale: Scale) -> Self {
        Ctx {
            scale,
            threads: kg_core::parallel::default_threads(),
            datasets: Mutex::new(HashMap::new()),
            runs: Mutex::new(HashMap::new()),
            verbose: true,
        }
    }

    fn log(&self, msg: &str) {
        if self.verbose {
            eprintln!("[repro] {msg}");
        }
    }

    /// Epochs per training run at this scale.
    pub fn epochs(&self) -> usize {
        match self.scale {
            Scale::Quick => 14,
            Scale::Paper => 25,
        }
    }

    /// Cap on evaluation triples at this scale.
    pub fn max_eval_triples(&self) -> usize {
        match self.scale {
            Scale::Quick => 800,
            Scale::Paper => 2000,
        }
    }

    /// Dataset assets (generated + L-WD fitted), cached.
    pub fn assets(&self, id: PresetId) -> Arc<DatasetAssets> {
        if let Some(a) = self.datasets.lock().unwrap().get(&id) {
            return a.clone();
        }
        self.log(&format!("generating {} ({:?} scale)…", id.name(), self.scale));
        let dataset = Arc::new(generate(&preset(id, self.scale)));
        self.log(&format!(
            "  |E|={} |R|={} train={} valid={} test={}",
            dataset.num_entities(),
            dataset.num_relations(),
            dataset.train.len(),
            dataset.valid.len(),
            dataset.test.len()
        ));
        let lwd = Arc::new(Lwd::untyped().fit(&dataset));
        let seen = SeenSets::from_store(&dataset.train);
        let static_sets = Arc::new(CandidateSets::static_sets(&lwd, &seen));
        let assets = Arc::new(DatasetAssets { dataset, lwd, static_sets });
        self.datasets.lock().unwrap().insert(id, assets.clone());
        assets
    }

    /// Default per-column sample size `n_s` for a dataset (10 % of `|E|`,
    /// ~8 % for the wikikg2 analogue, as in §5.2).
    pub fn sample_size(&self, id: PresetId, dataset: &Dataset) -> usize {
        let frac = if id == PresetId::WikiKg2 { 0.08 } else { 0.10 };
        ((dataset.num_entities() as f64) * frac).ceil() as usize
    }

    /// The harness configuration for `(dataset, model)`.
    pub fn harness_config(
        &self,
        id: PresetId,
        dataset: &Dataset,
        kind: ModelKind,
    ) -> HarnessConfig {
        HarnessConfig {
            model: kind,
            dim: 0,
            train: TrainConfig {
                epochs: self.epochs(),
                lr: 0.15,
                num_negatives: 4,
                seed: 1000 + kind as u64,
                ..Default::default()
            },
            sample_size: self.sample_size(id, dataset),
            tie: TieBreak::Mean,
            threads: self.threads,
            max_eval_triples: self.max_eval_triples(),
            eval_on_valid: true,
            seed: 77 + id as u64,
            ..Default::default()
        }
    }

    /// All training runs for a dataset (one per model in [`models_for`]),
    /// with the three KP estimators attached as extras. Cached.
    pub fn runs(&self, id: PresetId) -> Arc<Vec<CachedRun>> {
        if let Some(r) = self.runs.lock().unwrap().get(&id) {
            return r.clone();
        }
        let assets = self.assets(id);
        let dataset = &assets.dataset;
        let eval_triples: Vec<kg_core::Triple> = {
            let cap = self.max_eval_triples();
            let v = &dataset.valid;
            if cap > 0 && v.len() > cap {
                v[..cap].to_vec()
            } else {
                v.clone()
            }
        };
        let kp_cfg = KpConfig::default();
        let kp_r = KpEstimator::random(&eval_triples, dataset.num_entities(), kp_cfg.clone());
        let kp_p = KpEstimator::probabilistic(
            &eval_triples,
            dataset.num_entities(),
            (*assets.lwd).clone(),
            kp_cfg.clone(),
        );
        let kp_s = KpEstimator::static_sets(
            &eval_triples,
            dataset.num_entities(),
            (*assets.static_sets).clone(),
            kp_cfg,
        );

        let mut cached = Vec::new();
        for &kind in models_for(id) {
            self.log(&format!("training {} on {}…", kind.name(), id.name()));
            let config = self.harness_config(id, dataset, kind);
            let extras: Vec<ExtraEstimator<'_>> = vec![
                ("KP-R", Box::new(|m: &dyn KgcModel| kp_r.estimate(m))),
                ("KP-P", Box::new(|m: &dyn KgcModel| kp_p.estimate(m))),
                ("KP-S", Box::new(|m: &dyn KgcModel| kp_s.estimate(m))),
            ];
            let (run, model) = run_train_eval_with_matrix(dataset, &config, &assets.lwd, &extras);
            let last = run.records.last().expect("at least one epoch");
            self.log(&format!(
                "  final filtered MRR: true={:.3} R={:.3} P={:.3} S={:.3}",
                last.full.mrr,
                last.estimates[0].metrics.mrr,
                last.estimates[1].metrics.mrr,
                last.estimates[2].metrics.mrr
            ));
            cached.push(CachedRun { run, model: Arc::new(model), kind });
        }
        let cached = Arc::new(cached);
        self.runs.lock().unwrap().insert(id, cached.clone());
        cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_lists_match_paper_rows() {
        assert_eq!(models_for(PresetId::Fb15k237).len(), 6);
        assert_eq!(models_for(PresetId::CodexM), &[ModelKind::ConvE, ModelKind::ComplEx]);
        assert_eq!(models_for(PresetId::WikiKg2), &[ModelKind::ComplEx]);
        assert!(models_for(PresetId::CodexL).contains(&ModelKind::TuckEr));
    }

    #[test]
    fn assets_are_cached() {
        let ctx = Ctx::quiet(Scale::Quick);
        let a = ctx.assets(PresetId::CodexS);
        let b = ctx.assets(PresetId::CodexS);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.dataset.name, "codex-s-sim");
        assert!(a.lwd.nnz() > 0);
    }

    #[test]
    fn sample_size_is_ten_percent() {
        let ctx = Ctx::quiet(Scale::Quick);
        let a = ctx.assets(PresetId::CodexS);
        let ns = ctx.sample_size(PresetId::CodexS, &a.dataset);
        assert_eq!(ns, (a.dataset.num_entities() as f64 * 0.1).ceil() as usize);
    }
}
