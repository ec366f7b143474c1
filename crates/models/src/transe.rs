//! TransE (Bordes et al., 2013): `score(h,r,t) = −‖e_h + w_r − e_t‖₁`.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use rand::Rng;

use crate::embedding::{
    combine_candidates, combine_range, combine_range_block, Combine, EmbeddingTable,
};
use crate::model::{KgcModel, TrainableModel};

/// Translational embedding model with L1 distance.
pub struct TransE {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    dim: usize,
}

impl TransE {
    /// New model with Xavier-initialised embeddings.
    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        TransE {
            entities: EmbeddingTable::xavier(num_entities, dim, rng),
            relations: EmbeddingTable::xavier(num_relations, dim, rng),
            dim,
        }
    }

    /// Tail query vector `e_h + w_r` from raw rows (shared with the
    /// quantized serving wrapper, which supplies dequantized rows).
    pub(crate) fn tail_query_into(he: &[f32], re: &[f32], q: &mut [f32]) {
        for k in 0..q.len() {
            q[k] = he[k] + re[k];
        }
    }

    /// Head query vector `e_t − w_r` (because `‖h + r − t‖ = ‖h − (t − r)‖`).
    pub(crate) fn head_query_into(te: &[f32], re: &[f32], q: &mut [f32]) {
        for k in 0..q.len() {
            q[k] = te[k] - re[k];
        }
    }
}

impl KgcModel for TransE {
    fn name(&self) -> &'static str {
        "TransE"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_entities(&self) -> usize {
        self.entities.count()
    }

    fn num_relations(&self) -> usize {
        self.relations.count()
    }

    fn query_len(&self) -> usize {
        self.dim
    }

    fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
        let ctx = self.entities.row(side.context(triple).index());
        let rel = self.relations.row(triple.relation.index());
        match side {
            QuerySide::Tail => Self::tail_query_into(ctx, rel, q),
            QuerySide::Head => Self::head_query_into(ctx, rel, q),
        }
    }

    fn score_rows(&self, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
        combine_range(Combine::NegL1, &self.entities, q, rows, out);
    }

    fn score_rows_block(&self, qs: &[f32], rows: Range<usize>, out: &mut [f32]) {
        combine_range_block(Combine::NegL1, &self.entities, qs, rows, out);
    }

    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        combine_candidates(Combine::NegL1, &self.entities, q, candidates, out);
    }
}

impl TrainableModel for TransE {
    crate::impl_persistence_tables!(entities, relations);

    fn step_group(
        &mut self,
        pos: Triple,
        side: QuerySide,
        candidates: &[EntityId],
        coeffs: &[f32],
        lr: f32,
    ) {
        let d = self.dim;
        let context = side.context(pos); // fixed entity of the query
        let r = pos.relation;
        // Accumulated gradients for the fixed entity and the relation.
        let mut grad_ctx = vec![0.0f32; d];
        let mut grad_rel = vec![0.0f32; d];
        let mut grad_cand = vec![0.0f32; d];
        for (&cand, &w) in candidates.iter().zip(coeffs) {
            if w == 0.0 {
                continue;
            }
            // Difference δ = h + r − t for the candidate-completed triple.
            let (h, t) = match side {
                QuerySide::Tail => (context, cand),
                QuerySide::Head => (cand, context),
            };
            let he = self.entities.row(h.index());
            let te = self.entities.row(t.index());
            let re = self.relations.row(r.index());
            for k in 0..d {
                let delta = he[k] + re[k] - te[k];
                let sign = if delta > 0.0 {
                    1.0
                } else if delta < 0.0 {
                    -1.0
                } else {
                    0.0
                };
                // score = −Σ|δ| ⇒ ∂s/∂h = −sign, ∂s/∂r = −sign, ∂s/∂t = +sign.
                let gh = -sign * w;
                let gt = sign * w;
                grad_rel[k] += gh;
                match side {
                    QuerySide::Tail => {
                        grad_ctx[k] += gh;
                        grad_cand[k] = gt;
                    }
                    QuerySide::Head => {
                        grad_ctx[k] += gt;
                        grad_cand[k] = gh;
                    }
                }
            }
            self.entities.adagrad_update(cand.index(), &grad_cand, lr);
        }
        self.entities.adagrad_update(context.index(), &grad_ctx, lr);
        self.relations.adagrad_update(r.index(), &grad_rel, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::gradcheck;
    use kg_core::sample::seeded_rng;
    use kg_core::RelationId;

    fn model() -> TransE {
        TransE::new(8, 3, 6, &mut seeded_rng(42))
    }

    #[test]
    fn scorers_consistent() {
        gradcheck::assert_scorers_consistent(&model(), RelationId(1));
    }

    #[test]
    fn steps_move_score_both_sides() {
        let mut m = model();
        gradcheck::assert_step_direction(&mut m, Triple::new(0, 1, 3), QuerySide::Tail);
        let mut m2 = model();
        gradcheck::assert_step_direction(&mut m2, Triple::new(0, 1, 3), QuerySide::Head);
    }

    #[test]
    fn perfect_translation_scores_zero() {
        let mut m = model();
        // Force e_0 + w_0 = e_1 exactly.
        let dim = m.dim;
        let h: Vec<f32> = m.entities.row(0).to_vec();
        let r: Vec<f32> = m.relations.row(0).to_vec();
        let target: Vec<f32> = (0..dim).map(|k| h[k] + r[k]).collect();
        m.entities.row_mut(1).copy_from_slice(&target);
        assert_eq!(m.score(EntityId(0), RelationId(0), EntityId(1)), 0.0);
        // Any other entity scores strictly worse (negative).
        assert!(m.score(EntityId(0), RelationId(0), EntityId(2)) < 0.0);
    }

    #[test]
    fn training_separates_positive_from_negative() {
        let mut m = model();
        let pos = Triple::new(0, 0, 1);
        let neg = EntityId(5);
        for _ in 0..60 {
            let cands = [EntityId(1), neg];
            let mut scores = [0.0f32; 2];
            m.score_group(pos, QuerySide::Tail, &cands, &mut scores);
            let mut coeffs = [0.0f32; 2];
            crate::loss::loss_and_coeffs(
                crate::loss::LossKind::Logistic,
                0.0,
                &scores,
                &mut coeffs,
            );
            m.step_group(pos, QuerySide::Tail, &cands, &coeffs, 0.05);
        }
        let s_pos = m.score(pos.head, pos.relation, pos.tail);
        let s_neg = m.score(pos.head, pos.relation, neg);
        assert!(s_pos > s_neg, "positive {s_pos} should beat negative {s_neg}");
    }
}
