//! End-to-end integration: dataset → model → recommender → estimators.

use kgeval::core::sample::seeded_rng;
use kgeval::datasets::{generate, SyntheticKgConfig};
use kgeval::eval::estimator::Metric;
use kgeval::eval::harness::{run_train_eval, ExtraEstimator, HarnessConfig};
use kgeval::eval::{evaluate_full, evaluate_sampled, TieBreak};
use kgeval::kp::{KpConfig, KpEstimator};
use kgeval::models::{build_model, train, KgcModel, ModelKind, TrainConfig};
use kgeval::recommend::{
    cr_rr, sample_candidates, CandidateSets, Lwd, RelationRecommender, SamplingStrategy, SeenSets,
};

fn dataset() -> kgeval::datasets::Dataset {
    generate(&SyntheticKgConfig {
        name: "integration".into(),
        num_entities: 400,
        num_relations: 10,
        num_types: 18,
        num_triples: 4000,
        seed: 11,
        ..Default::default()
    })
}

#[test]
fn full_pipeline_reproduces_headline_result() {
    let d = dataset();
    let config = HarnessConfig {
        model: ModelKind::ComplEx,
        dim: 16,
        train: TrainConfig { epochs: 8, lr: 0.15, num_negatives: 4, ..Default::default() },
        sample_size: 40,
        threads: 2,
        max_eval_triples: 100,
        ..Default::default()
    };
    let run = run_train_eval(&d, &config, &Lwd::untyped(), &[]);

    // The paper's core claims, at integration level:
    // 1. Random sampling overestimates the ranking metric.
    let random = run.series(SamplingStrategy::Random, Metric::Mrr);
    let over = random.estimates().iter().zip(random.truths()).filter(|(e, t)| e > t).count();
    assert!(over >= run.records.len() * 3 / 4, "random should overestimate");

    // 2. Recommender-guided estimates have smaller MAE.
    let static_mae = run.series(SamplingStrategy::Static, Metric::Mrr).mae();
    assert!(random.mae() > static_mae, "{} vs {}", random.mae(), static_mae);

    // 3. Sampled estimation is faster than the full ranking.
    let (speedup, _) = run.speedup(SamplingStrategy::Static);
    assert!(speedup > 1.0, "static speedup {speedup}");
}

#[test]
fn kp_baseline_integrates_with_harness() {
    let d = dataset();
    let eval: Vec<_> = d.valid.iter().copied().take(150).collect();
    let kp = KpEstimator::random(
        &eval,
        d.num_entities(),
        KpConfig { sample_triples: 100, ..Default::default() },
    );
    let extras: Vec<ExtraEstimator> =
        vec![("KP", Box::new(move |m: &dyn KgcModel| kp.estimate(m)))];
    let config = HarnessConfig {
        model: ModelKind::DistMult,
        dim: 16,
        train: TrainConfig { epochs: 4, ..Default::default() },
        sample_size: 40,
        threads: 2,
        max_eval_triples: 100,
        ..Default::default()
    };
    let run = run_train_eval(&d, &config, &Lwd::untyped(), &extras);
    let series = run.extra_series("KP", Metric::Mrr);
    assert_eq!(series.len(), 4);
    assert!(series.estimates().iter().all(|v| v.is_finite()));
}

#[test]
fn every_model_survives_the_full_protocol() {
    let d = dataset();
    let threads = 2;
    let test: Vec<_> = d.test.iter().copied().take(40).collect();
    for kind in ModelKind::ALL {
        let mut model =
            build_model(kind, d.num_entities(), d.num_relations(), kind.default_dim().min(16), 3);
        let config = TrainConfig { epochs: 2, ..Default::default() };
        train(model.as_mut(), d.train.triples(), &config, None);
        let full = evaluate_full(model.as_ref(), &test, &d.filter, TieBreak::Mean, threads);
        assert!(full.metrics.mrr > 0.0 && full.metrics.mrr <= 1.0, "{}", kind.name());
        assert!(full.ranks.iter().all(|&r| r >= 1.0 && r <= d.num_entities() as f64));
    }
}

/// The paper's Theorem 1, bit-exact, for every model family: full and
/// sampled evaluation share one row scorer, so sampling every entity
/// reproduces the filtered ranks exactly — no tolerance.
#[test]
fn sampling_everything_recovers_the_full_ranking() {
    let d = dataset();
    let test: Vec<_> = d.test.iter().copied().take(60).collect();
    let samples = sample_candidates(
        SamplingStrategy::Random,
        d.num_entities(),
        d.num_relations(),
        d.num_entities(), // n_s = |E| → exact
        None,
        None,
        &mut seeded_rng(1),
    );
    for kind in ModelKind::ALL {
        let mut model = build_model(kind, d.num_entities(), d.num_relations(), 16, 5);
        train(
            model.as_mut(),
            d.train.triples(),
            &TrainConfig { epochs: 3, ..Default::default() },
            None,
        );
        let full = evaluate_full(model.as_ref(), &test, &d.filter, TieBreak::Mean, 2);
        let est = evaluate_sampled(model.as_ref(), &test, &d.filter, &samples, TieBreak::Mean, 2);
        let name = kind.name();
        assert_eq!(full.ranks, est.ranks, "{name}: n_s = |E| must reproduce exact filtered ranks");
        assert_eq!(full.metrics, est.metrics, "{name}");
    }
}

#[test]
fn recommender_candidate_quality_ordering() {
    let d = dataset();
    let seen = SeenSets::from_store(&d.train);
    let mut seen_v = seen.clone();
    seen_v.extend_with(&d.valid);

    let pt_sets = CandidateSets::from_seen(&seen);
    let pt = cr_rr(&pt_sets, &d, &seen_v);

    let lwd = Lwd::untyped().fit(&d);
    let lwd_sets = CandidateSets::static_sets(&lwd, &seen);
    let lw = cr_rr(&lwd_sets, &d, &seen_v);

    assert_eq!(pt.cr_unseen, 0.0, "PT can never reach unseen answers");
    assert!(lw.cr_test >= pt.cr_test);
    for report in [pt, lw] {
        assert!((0.0..=1.0).contains(&report.cr_test));
        assert!((0.0..=1.0).contains(&report.reduction_rate));
    }

    // The property PT structurally lacks: L-WD's score support extends to
    // answers never observed in the slot. (Whether the *static threshold*
    // includes them depends on the CR/RR trade-off; the score support is
    // the invariant.)
    use kg_core::triple::QuerySide;
    use kg_core::DrColumn;
    let nr = d.num_relations();
    let mut unseen = 0usize;
    let mut reached = 0usize;
    for t in &d.test {
        for side in QuerySide::BOTH {
            let answer = side.answer(*t).0;
            let col = match side {
                QuerySide::Tail => DrColumn::range(t.relation, nr),
                QuerySide::Head => DrColumn::domain(t.relation),
            };
            if !seen_v.contains(answer, col) {
                unseen += 1;
                if lwd.score(answer, col) > 0.0 {
                    reached += 1;
                }
            }
        }
    }
    assert!(unseen > 0, "test split should contain unseen answers");
    assert!(
        reached * 2 >= unseen,
        "L-WD score support should reach most unseen answers ({reached}/{unseen})"
    );
}
