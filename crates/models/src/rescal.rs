//! RESCAL (Nickel et al., 2011): `score(h,r,t) = e_hᵀ · W_r · e_t` with a
//! full `d × d` interaction matrix per relation.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};

use crate::embedding::{
    combine_candidates, combine_range, combine_range_block, Combine, EmbeddingTable, TableInit,
};
use crate::model::{KgcModel, TrainableModel};

/// Bilinear tensor factorisation with per-relation matrices.
pub struct Rescal {
    entities: EmbeddingTable,
    /// Relation matrices, one `d·d` row per relation (row-major `W[i][j]`).
    relations: EmbeddingTable,
    dim: usize,
}

impl Rescal {
    /// New model; each relation owns a `dim × dim` matrix.
    pub fn new(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        init: &mut impl TableInit,
    ) -> Self {
        Rescal {
            entities: init.xavier(num_entities, dim),
            relations: init.xavier(num_relations, dim * dim),
            dim,
        }
    }

    /// Tail query `q_j = Σ_i h_i W_ij` (row vector `hᵀW`) from raw rows
    /// (`w` is the relation's `d·d` matrix). Shared with the quantized
    /// serving wrapper.
    pub(crate) fn tail_query_into(he: &[f32], w: &[f32], q: &mut [f32]) {
        let d = q.len();
        q.fill(0.0);
        for i in 0..d {
            let hi = he[i];
            if hi == 0.0 {
                continue;
            }
            let row = &w[i * d..(i + 1) * d];
            for j in 0..d {
                q[j] += hi * row[j];
            }
        }
    }

    /// Head query `q_i = Σ_j W_ij t_j` (column contraction `W·t`).
    pub(crate) fn head_query_into(te: &[f32], w: &[f32], q: &mut [f32]) {
        let d = q.len();
        for i in 0..d {
            let row = &w[i * d..(i + 1) * d];
            let mut acc = 0.0f32;
            for j in 0..d {
                acc += row[j] * te[j];
            }
            q[i] = acc;
        }
    }
}

impl KgcModel for Rescal {
    fn name(&self) -> &'static str {
        "RESCAL"
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
        combine_range(Combine::Dot, &self.entities, q, rows, out);
    }

    fn score_rows_block(&self, qs: &[f32], rows: Range<usize>, out: &mut [f32]) {
        combine_range_block(Combine::Dot, &self.entities, qs, rows, out);
    }

    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        combine_candidates(Combine::Dot, &self.entities, q, candidates, out);
    }
}

impl TrainableModel for Rescal {
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

        let mut q = vec![0.0f32; d];
        self.build_query(pos, side, &mut q);
        // v = Σ w_c e_c.
        let mut v = vec![0.0f32; d];
        let mut grad_cand = vec![0.0f32; d];
        for (&cand, &w) in candidates.iter().zip(coeffs) {
            if w == 0.0 {
                continue;
            }
            let ce = self.entities.row(cand.index());
            for k in 0..d {
                v[k] += w * ce[k];
                grad_cand[k] = w * q[k];
            }
            self.entities.adagrad_update(cand.index(), &grad_cand, lr);
        }

        let mut grad_ctx = vec![0.0f32; d];
        let mut grad_w = vec![0.0f32; d * d];
        {
            let w = self.relations.row(r.index());
            let ce = self.entities.row(context.index());
            match side {
                QuerySide::Tail => {
                    // context = h: ∂s/∂h_i = Σ_j W_ij v_j; ∂s/∂W_ij = h_i v_j.
                    for i in 0..d {
                        let row = &w[i * d..(i + 1) * d];
                        let mut acc = 0.0f32;
                        for j in 0..d {
                            acc += row[j] * v[j];
                            grad_w[i * d + j] = ce[i] * v[j];
                        }
                        grad_ctx[i] = acc;
                    }
                }
                QuerySide::Head => {
                    // context = t: ∂s/∂t_j = Σ_i v_i W_ij; ∂s/∂W_ij = v_i t_j.
                    for i in 0..d {
                        let row = &w[i * d..(i + 1) * d];
                        for j in 0..d {
                            grad_ctx[j] += v[i] * row[j];
                            grad_w[i * d + j] = v[i] * ce[j];
                        }
                    }
                }
            }
        }
        self.entities.adagrad_update(context.index(), &grad_ctx, lr);
        self.relations.adagrad_update(r.index(), &grad_w, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::gradcheck;
    use kg_core::sample::seeded_rng;
    use kg_core::RelationId;

    fn model() -> Rescal {
        Rescal::new(8, 3, 4, &mut seeded_rng(21))
    }

    #[test]
    fn scorers_consistent() {
        gradcheck::assert_scorers_consistent(&model(), RelationId(0));
    }

    #[test]
    fn steps_move_score_both_sides() {
        let mut m = model();
        gradcheck::assert_step_direction(&mut m, Triple::new(3, 1, 7), QuerySide::Tail);
        let mut m2 = model();
        gradcheck::assert_step_direction(&mut m2, Triple::new(3, 1, 7), QuerySide::Head);
    }

    #[test]
    fn hand_computed_score() {
        let mut m = Rescal::new(2, 1, 2, &mut seeded_rng(5));
        m.entities.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        m.entities.row_mut(1).copy_from_slice(&[3.0, 4.0]);
        // W = [[1, 0], [0, 1]] → score = h·t = 3 + 8 = 11.
        m.relations.row_mut(0).copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        assert!((m.score(EntityId(0), RelationId(0), EntityId(1)) - 11.0).abs() < 1e-5);
        // W = [[0, 1], [0, 0]] → score = h_0 W_01 t_1 = 1·1·4 = 4.
        m.relations.row_mut(0).copy_from_slice(&[0.0, 1.0, 0.0, 0.0]);
        assert!((m.score(EntityId(0), RelationId(0), EntityId(1)) - 4.0).abs() < 1e-5);
        // Asymmetric W ⇒ asymmetric relation.
        let fwd = m.score(EntityId(0), RelationId(0), EntityId(1));
        let bwd = m.score(EntityId(1), RelationId(0), EntityId(0));
        assert_ne!(fwd, bwd);
    }
}
