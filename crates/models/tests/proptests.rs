//! Property-based tests for the model zoo: scorer consistency, loss
//! gradients, and training-step behaviour across random configurations.

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use kg_models::io::{read_model, save_model};
use kg_models::loss::{loss_and_coeffs, sigmoid, softplus, LossKind};
use kg_models::{build_model, KgcModel, ModelKind, Precision, QuantizedModel, TrainableModel};
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

/// The file header (v2: 33 bytes) plus the first table's length word.
const SNAPSHOT_HEADER: usize = 33 + 8;

/// A small model of `kind` and the bytes `save_model` writes for it.
fn saved_snapshot(kind: ModelKind, seed: u64) -> (Box<dyn TrainableModel>, Vec<u8>) {
    let dim = if kind == ModelKind::ConvE { 8 } else { 4 };
    let model = build_model(kind, 5, 2, dim, seed);
    let mut bytes = Vec::new();
    save_model(model.as_ref(), kind, &mut bytes).unwrap();
    (model, bytes)
}

/// Whether `raw` is refused, or else loads exactly `source`'s shape and
/// table bits. A panic inside `read_model` fails the test either way.
fn refused_or_identical(raw: &[u8], source: &dyn TrainableModel) -> Result<(), String> {
    let Ok(loaded) = read_model(&mut &raw[..], raw.len() as u64) else {
        return Ok(());
    };
    let m = loaded.model;
    let shape = |m: &dyn TrainableModel| (m.num_entities(), m.num_relations(), m.dim());
    let bits = |m: &dyn TrainableModel| -> Vec<Vec<u32>> {
        m.param_tables().iter().map(|t| t.iter().map(|v| v.to_bits()).collect()).collect()
    };
    if shape(m.as_ref()) != shape(source) || bits(m.as_ref()) != bits(source) {
        return Err(format!("{} bytes loaded a different model", raw.len()));
    }
    Ok(())
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
        let mut models: Vec<Box<dyn KgcModel>> = Vec::new();
        for precision in [Precision::F16, Precision::Int8] {
            // TuckER and ConvE have no quantized scoring path.
            if let Ok(quant) = QuantizedModel::from_model(exact.as_ref(), kind, precision) {
                models.push(Box::new(quant));
            }
        }
        models.insert(0, exact);
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

    /// Adversarial snapshot bytes: a valid snapshot of every family cut at
    /// every header offset and at a random payload offset is refused, and
    /// one with any single header byte flipped is refused or loads the very
    /// same tables (a flipped precision hint, or a kind tag naming a family
    /// of the same shape) — never a panic, never a different model.
    #[test]
    fn hostile_snapshot_bytes_are_refused_or_load_the_source_exactly(
        kind in kind_strategy(),
        seed in 0u64..50,
        payload_cut in 0usize..1 << 16,
        flip in 1u8..=255,
    ) {
        let (source, bytes) = saved_snapshot(kind, seed);
        let len = bytes.len() as u64;
        prop_assert!(read_model(&mut &bytes[..], len).is_ok());
        let payload_cut = SNAPSHOT_HEADER + payload_cut % (bytes.len() - SNAPSHOT_HEADER);
        for cut in (0..SNAPSHOT_HEADER).chain([payload_cut]) {
            let short = &bytes[..cut];
            // Cut honestly (the length says so) and dishonestly (the
            // stream ends before the length it claims).
            for claimed in [cut as u64, len] {
                prop_assert!(
                    read_model(&mut &short[..], claimed).is_err(),
                    "{} cut at {}/{} claiming {} loaded", kind.name(), cut, len, claimed
                );
            }
        }
        for at in 0..SNAPSHOT_HEADER {
            let mut flipped = bytes.clone();
            flipped[at] ^= flip;
            let verdict = refused_or_identical(&flipped, source.as_ref());
            prop_assert!(verdict.is_ok(), "{} byte {} ^ {:#x}: {:?}", kind.name(), at, flip, verdict);
        }
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
