//! Property-based tests for the model zoo: scorer consistency, loss
//! gradients, and training-step behaviour across random configurations.

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use kg_models::io::snapshot_model;
use kg_models::loss::{loss_and_coeffs, sigmoid, softplus, LossKind};
use kg_models::{build_model, KgcModel, ModelKind, Precision, QuantizedModel};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::TransE),
        Just(ModelKind::DistMult),
        Just(ModelKind::ComplEx),
        Just(ModelKind::Rescal),
        Just(ModelKind::RotatE),
        Just(ModelKind::TuckEr),
        Just(ModelKind::ConvE),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's Theorem 1 at the level it actually rests on: the range
    /// primitive over *any* partition of `0..|E|` and the gathered primitive
    /// over the same ids return the same bits for every entity — so full and
    /// sampled evaluation share one row scorer, at every storage precision.
    /// No family needs a tolerance.
    #[test]
    fn scorers_agree_for_all_models(
        kind in kind_strategy(),
        seed in 0u64..50,
        cuts in proptest::collection::vec(0usize..=10, 0..4),
        side in prop_oneof![Just(QuerySide::Tail), Just(QuerySide::Head)],
    ) {
        let n = 10usize;
        let dim = match kind {
            ModelKind::ConvE => 16,
            ModelKind::Rescal | ModelKind::TuckEr => 8,
            _ => 12,
        };
        let exact = build_model(kind, n, 3, dim, seed);
        let snapshot = snapshot_model(exact.as_ref(), kind).unwrap();
        let mut models: Vec<Box<dyn KgcModel>> = vec![exact];
        for precision in [Precision::F16, Precision::Int8] {
            // TuckER and ConvE have no quantized scoring path.
            if let Ok(quant) = QuantizedModel::from_snapshot(&snapshot, precision) {
                models.push(Box::new(quant));
            }
        }
        let mut bounds = cuts;
        bounds.extend([0, n]);
        bounds.sort_unstable();
        let ids: Vec<EntityId> = (0..n as u32).map(EntityId).collect();
        let triple = Triple::new(2, 1, 7);
        for model in &models {
            let what = format!("{} {} {side:?}", kind.name(), model.precision().name());
            let mut q = vec![0.0f32; model.query_len()];
            model.build_query(triple, side, &mut q);
            let mut by_range = vec![0.0f32; n];
            for w in bounds.windows(2) {
                model.score_rows(&q, w[0]..w[1], &mut by_range[w[0]..w[1]]);
            }
            let mut gathered = vec![0.0f32; n];
            model.score_gathered(&q, &ids, &mut gathered);
            let mut whole = vec![0.0f32; n];
            model.score_all(triple, side, &mut whole);
            for e in 0..n {
                prop_assert!(by_range[e].is_finite(), "{what}: row {e} = {}", by_range[e]);
                prop_assert_eq!(by_range[e].to_bits(), gathered[e].to_bits(), "{}: row {}", what, e);
                prop_assert_eq!(by_range[e].to_bits(), whole[e].to_bits(), "{}: row {}", what, e);
            }
            // The point scorer is the tail query's own row.
            if side == QuerySide::Tail {
                let s = model.score(triple.head, triple.relation, triple.tail);
                prop_assert_eq!(s.to_bits(), whole[triple.tail.index()].to_bits(), "{}", what);
            }
        }
    }

    #[test]
    fn ascent_step_increases_score_for_all_models(kind in kind_strategy(), seed in 0u64..20) {
        let dim = match kind {
            ModelKind::ConvE => 16,
            ModelKind::Rescal | ModelKind::TuckEr => 8,
            _ => 12,
        };
        let mut model = build_model(kind, 10, 3, dim, seed);
        let pos = Triple::new(1, 0, 6);
        // Score via the tail-side scorer (well-defined for reciprocal models).
        let mut scores = vec![0.0f32; 10];
        model.score_all(pos, QuerySide::Tail, &mut scores);
        let before = scores[6];
        for _ in 0..3 {
            model.step_group(pos, QuerySide::Tail, &[pos.tail], &[-1.0], 0.05);
        }
        model.score_all(pos, QuerySide::Tail, &mut scores);
        prop_assert!(scores[6] > before, "{}: {} -> {}", kind.name(), before, scores[6]);
    }

    #[test]
    fn zero_coefficients_are_a_noop(kind in kind_strategy(), seed in 0u64..20) {
        let dim = if kind == ModelKind::ConvE { 16 } else { 8 };
        let mut model = build_model(kind, 8, 2, dim, seed);
        let pos = Triple::new(0, 1, 5);
        let before = model.score(pos.head, pos.relation, pos.tail);
        model.step_group(pos, QuerySide::Tail, &[pos.tail, EntityId(3)], &[0.0, 0.0], 0.1);
        model.step_group(pos, QuerySide::Head, &[pos.head, EntityId(2)], &[0.0, 0.0], 0.1);
        let after = model.score(pos.head, pos.relation, pos.tail);
        prop_assert_eq!(before, after, "{}", kind.name());
    }

    #[test]
    fn logistic_loss_gradient_matches_finite_difference(
        scores in proptest::collection::vec(-5.0f32..5.0, 1..8),
    ) {
        let mut coeffs = vec![0.0f32; scores.len()];
        let base = loss_and_coeffs(LossKind::Logistic, 0.0, &scores, &mut coeffs);
        let eps = 1e-3f32;
        for i in 0..scores.len() {
            let mut bumped = scores.clone();
            bumped[i] += eps;
            let mut tmp = vec![0.0f32; scores.len()];
            let l = loss_and_coeffs(LossKind::Logistic, 0.0, &bumped, &mut tmp);
            let fd = (l - base) / eps;
            prop_assert!((fd - coeffs[i]).abs() < 0.02, "slot {i}: fd {fd} vs {}", coeffs[i]);
        }
    }

    #[test]
    fn loss_is_nonnegative_and_finite(
        scores in proptest::collection::vec(-30.0f32..30.0, 1..10),
        margin in 0.0f32..3.0,
    ) {
        let mut coeffs = vec![0.0f32; scores.len()];
        for kind in [LossKind::Logistic, LossKind::MarginRanking] {
            let l = loss_and_coeffs(kind, margin, &scores, &mut coeffs);
            prop_assert!(l >= 0.0 && l.is_finite());
            prop_assert!(coeffs.iter().all(|c| c.is_finite()));
            prop_assert!(coeffs[0] <= 0.0, "positive candidate is pushed up");
            prop_assert!(coeffs[1..].iter().all(|&c| c >= 0.0));
        }
    }

    #[test]
    fn sigmoid_softplus_relations(x in -40.0f32..40.0) {
        prop_assert!((0.0..=1.0).contains(&sigmoid(x)));
        prop_assert!(softplus(x) >= 0.0);
        prop_assert!(softplus(x) >= x, "softplus dominates identity");
        // d softplus/dx = sigmoid.
        let eps = 1e-2f32;
        if x.abs() < 15.0 {
            let fd = (softplus(x + eps) - softplus(x - eps)) / (2.0 * eps);
            prop_assert!((fd - sigmoid(x)).abs() < 1e-2);
        }
    }
}
