//! DistMult (Yang et al., 2014): `score(h,r,t) = Σ_k h_k · w_k · t_k`.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};

use crate::embedding::{
    combine_candidates, combine_range, combine_range_block, Combine, EmbeddingTable, TableInit,
};
use crate::model::{KgcModel, TrainableModel};

/// Bilinear-diagonal factorisation model.
pub struct DistMult {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    dim: usize,
}

impl DistMult {
    /// New model with Xavier-initialised embeddings.
    pub fn new(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        init: &mut impl TableInit,
    ) -> Self {
        DistMult {
            entities: init.xavier(num_entities, dim),
            relations: init.xavier(num_relations, dim),
            dim,
        }
    }

    /// Query vector `e ∘ w_r` from raw rows — identical for both sides
    /// because DistMult is symmetric in head and tail (one of its known
    /// modelling weaknesses). Shared with the quantized serving wrapper.
    pub(crate) fn query_into(ee: &[f32], re: &[f32], q: &mut [f32]) {
        for k in 0..q.len() {
            q[k] = ee[k] * re[k];
        }
    }
}

impl KgcModel for DistMult {
    fn name(&self) -> &'static str {
        "DistMult"
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
        Self::query_into(
            self.entities.row(side.context(triple).index()),
            self.relations.row(triple.relation.index()),
            q,
        );
    }

    fn score_rows(&self, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
        combine_range(Combine::Dot, &self.entities, q, rows, out);
    }

    fn score_rows_block(&self, qs: &[f32], rows: Range<usize>, out: &mut [f32]) {
        combine_range_block(Combine::Dot, &self.entities, qs, rows, out);
    }

    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        combine_candidates(Combine::Dot, &self.entities, q, candidates, out);
    }
}

impl TrainableModel for DistMult {
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
        let context = side.context(pos);
        let r = pos.relation;
        // v = Σ_c w_c · e_c  (score is linear in the candidate embedding).
        let mut v = vec![0.0f32; d];
        {
            let mut q = vec![0.0f32; d];
            self.build_query(pos, side, &mut q);
            let mut grad_cand = vec![0.0f32; d];
            for (&cand, &w) in candidates.iter().zip(coeffs) {
                if w == 0.0 {
                    continue;
                }
                let ce = self.entities.row(cand.index());
                for k in 0..d {
                    v[k] += w * ce[k];
                    grad_cand[k] = w * q[k]; // ∂s/∂e_c = q
                }
                self.entities.adagrad_update(cand.index(), &grad_cand, lr);
            }
        }
        // ∂s/∂e_ctx = w_r ∘ e_cand  ⇒ summed: w_r ∘ v; ∂s/∂w_r = e_ctx ∘ v.
        let mut grad_ctx = vec![0.0f32; d];
        let mut grad_rel = vec![0.0f32; d];
        {
            let re = self.relations.row(r.index());
            let ce = self.entities.row(context.index());
            for k in 0..d {
                grad_ctx[k] = re[k] * v[k];
                grad_rel[k] = ce[k] * v[k];
            }
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

    fn model() -> DistMult {
        DistMult::new(8, 3, 6, &mut seeded_rng(7))
    }

    #[test]
    fn scorers_consistent() {
        gradcheck::assert_scorers_consistent(&model(), RelationId(2));
    }

    #[test]
    fn steps_move_score_both_sides() {
        let mut m = model();
        gradcheck::assert_step_direction(&mut m, Triple::new(2, 0, 5), QuerySide::Tail);
        let mut m2 = model();
        gradcheck::assert_step_direction(&mut m2, Triple::new(2, 0, 5), QuerySide::Head);
    }

    #[test]
    fn model_is_symmetric() {
        // DistMult cannot distinguish (h,r,t) from (t,r,h).
        let m = model();
        let a = m.score(EntityId(1), RelationId(0), EntityId(4));
        let b = m.score(EntityId(4), RelationId(0), EntityId(1));
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn hand_computed_score() {
        let mut m = model();
        m.entities.row_mut(0).copy_from_slice(&[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
        m.entities.row_mut(1).copy_from_slice(&[3.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        m.relations.row_mut(0).copy_from_slice(&[2.0, -1.0, 0.0, 0.0, 0.0, 0.0]);
        // Σ h·r·t = 1·2·3 + 2·(−1)·1 = 4.
        assert!((m.score(EntityId(0), RelationId(0), EntityId(1)) - 4.0).abs() < 1e-6);
    }
}
