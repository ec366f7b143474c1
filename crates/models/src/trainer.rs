//! Training loop: shuffled positives, grouped corruption negatives, Adagrad.

use kg_core::sample::seeded_rng;
use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::loss::{loss_and_coeffs, LossKind};
use crate::model::TrainableModel;
use crate::negative::NegativeSampler;

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training triples.
    pub epochs: usize,
    /// Adagrad learning rate.
    pub lr: f32,
    /// Negatives per positive per side.
    pub num_negatives: usize,
    /// Loss function.
    pub loss: LossKind,
    /// Margin for [`LossKind::MarginRanking`].
    pub margin: f32,
    /// RNG seed (shuffling + negative sampling).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            lr: 0.1,
            num_negatives: 4,
            loss: LossKind::Logistic,
            margin: 1.0,
            seed: 1234,
        }
    }
}

/// Callback invoked after each epoch with `(epoch index, mean loss)`.
pub type EpochCallback<'a> = dyn FnMut(usize, f32) + 'a;

/// Run one epoch over `triples` with uniform corruption negatives; returns
/// the mean per-group loss.
pub fn train_epoch(
    model: &mut dyn TrainableModel,
    triples: &[Triple],
    config: &TrainConfig,
    rng: &mut StdRng,
) -> f32 {
    let sampler = NegativeSampler::new(model.num_entities());
    train_epoch_with_source(model, triples, config, &sampler, rng)
}

/// Run one epoch drawing negatives from an arbitrary [`crate::NegativeSource`] —
/// the hook for the paper's future-work extension of recommender-guided
/// *training-time* negative sampling.
pub fn train_epoch_with_source(
    model: &mut dyn TrainableModel,
    triples: &[Triple],
    config: &TrainConfig,
    source: &dyn crate::negative::NegativeSource,
    rng: &mut StdRng,
) -> f32 {
    let mut order: Vec<u32> = (0..triples.len() as u32).collect();
    order.shuffle(rng);

    let k = config.num_negatives;
    let mut candidates: Vec<EntityId> = vec![EntityId(0); k + 1];
    let mut scores = vec![0.0f32; k + 1];
    let mut coeffs = vec![0.0f32; k + 1];
    let mut total = 0.0f64;
    let mut groups = 0usize;

    for &idx in &order {
        let pos = triples[idx as usize];
        for side in QuerySide::BOTH {
            candidates[0] = side.answer(pos);
            source.corrupt_into(rng, pos, side, &mut candidates[1..]);
            model.score_group(pos, side, &candidates, &mut scores);
            let loss = loss_and_coeffs(config.loss, config.margin, &scores, &mut coeffs);
            model.step_group(pos, side, &candidates, &coeffs, config.lr);
            total += loss as f64;
            groups += 1;
        }
    }
    if groups == 0 {
        0.0
    } else {
        (total / groups as f64) as f32
    }
}

/// Train for `config.epochs`, invoking `callback` after every epoch (the
/// hook the evaluation harness uses to measure per-epoch metrics).
pub fn train(
    model: &mut dyn TrainableModel,
    triples: &[Triple],
    config: &TrainConfig,
    mut callback: Option<&mut EpochCallback<'_>>,
) {
    let mut rng = seeded_rng(config.seed);
    for epoch in 0..config.epochs {
        let loss = train_epoch(model, triples, config, &mut rng);
        if let Some(cb) = callback.as_deref_mut() {
            cb(epoch, loss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_model, ModelKind};
    use kg_core::RelationId;

    /// A tiny deterministic KG: relation 0 maps entity i → i+1 within a block.
    fn chain(n: u32) -> Vec<Triple> {
        (0..n - 1).map(|i| Triple::new(i, 0, i + 1)).collect()
    }

    #[test]
    fn loss_decreases_over_training() {
        let triples = chain(20);
        let mut model = build_model(ModelKind::DistMult, 20, 1, 16, 5);
        let config = TrainConfig { epochs: 15, ..Default::default() };
        let mut losses = Vec::new();
        let mut cb = |_e: usize, l: f32| losses.push(l);
        train(model.as_mut(), &triples, &config, Some(&mut cb));
        assert_eq!(losses.len(), 15);
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn every_model_trains_without_nan() {
        let triples = chain(12);
        for kind in ModelKind::ALL {
            let mut model = build_model(kind, 12, 1, kind.default_dim().min(16), 9);
            let config = TrainConfig { epochs: 2, ..Default::default() };
            let mut last = f32::NAN;
            let mut cb = |_e: usize, l: f32| last = l;
            train(model.as_mut(), &triples, &config, Some(&mut cb));
            assert!(last.is_finite(), "{} produced NaN loss", kind.name());
            let s = model.score(kg_core::EntityId(0), RelationId(0), kg_core::EntityId(1));
            assert!(s.is_finite(), "{} produced NaN score after training", kind.name());
        }
    }

    #[test]
    fn training_improves_link_prediction() {
        // After training, the true tail should outrank a random entity for
        // most training triples.
        let triples = chain(30);
        let mut model = build_model(ModelKind::ComplEx, 30, 1, 16, 11);
        let config = TrainConfig { epochs: 40, lr: 0.15, ..Default::default() };
        train(model.as_mut(), &triples, &config, None);
        let mut wins = 0usize;
        for t in &triples {
            let pos = model.score(t.head, t.relation, t.tail);
            // Entity two steps away is a negative for relation 0.
            let neg = kg_core::EntityId((t.tail.0 + 5) % 30);
            if neg != t.tail {
                let s_neg = model.score(t.head, t.relation, neg);
                if pos > s_neg {
                    wins += 1;
                }
            }
        }
        assert!(wins * 10 >= triples.len() * 7, "only {wins}/{} wins", triples.len());
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut model = build_model(ModelKind::TransE, 5, 1, 8, 1);
        let config = TrainConfig { epochs: 1, ..Default::default() };
        let mut rng = seeded_rng(0);
        let loss = train_epoch(model.as_mut(), &[], &config, &mut rng);
        assert_eq!(loss, 0.0);
    }
}
