//! TuckER (Balažević et al., 2019): Tucker decomposition of the KG tensor,
//! `score(h,r,t) = W ×₁ e_h ×₂ w_r ×₃ e_t` with a shared core tensor
//! `W ∈ R^{d×d×d}` (entity and relation dimensions kept equal here).
//!
//! The core is stored row-major as `W[i·d·d + j·d + k]` with `i` the head
//! index, `j` the relation index, `k` the tail index. Query evaluation
//! contracts the core once per query (`O(d³)`), after which scoring any
//! number of candidates is `O(d)` each — the same structure the trainer's
//! grouped steps exploit.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, RelationId, Triple};
use rand::Rng;

use crate::embedding::{
    combine_candidates, combine_range, combine_range_block, Combine, EmbeddingTable,
};
use crate::model::{KgcModel, TrainableModel};

/// Tucker-decomposition model with a shared core tensor.
pub struct TuckEr {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    /// Core tensor, a single row of length `d³`.
    core: EmbeddingTable,
    dim: usize,
}

impl TuckEr {
    /// New model; the core tensor has `dim³` parameters.
    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        TuckEr {
            entities: EmbeddingTable::xavier(num_entities, dim, rng),
            relations: EmbeddingTable::xavier(num_relations, dim, rng),
            // Near-identity-magnitude uniform init keeps early scores tame.
            core: EmbeddingTable::uniform(1, dim * dim * dim, 1.0 / dim as f32, rng),
            dim,
        }
    }

    /// Contract head: `A[j,k] = Σ_i h_i W[i,j,k]` (`O(d³)`).
    fn contract_head(&self, h: &[f32], a: &mut [f32]) {
        let d = self.dim;
        let w = self.core.row(0);
        a.fill(0.0);
        for i in 0..d {
            let hi = h[i];
            if hi == 0.0 {
                continue;
            }
            let block = &w[i * d * d..(i + 1) * d * d];
            for jk in 0..d * d {
                a[jk] += hi * block[jk];
            }
        }
    }

    /// Contract tail: `B[i,j] = Σ_k W[i,j,k] t_k` (`O(d³)`).
    fn contract_tail(&self, t: &[f32], b: &mut [f32]) {
        let d = self.dim;
        let w = self.core.row(0);
        for ij in 0..d * d {
            let row = &w[ij * d..(ij + 1) * d];
            let mut acc = 0.0f32;
            for k in 0..d {
                acc += row[k] * t[k];
            }
            b[ij] = acc;
        }
    }

    /// Tail query `q_k = Σ_j wr_j A[j,k]`.
    fn tail_query(&self, h: EntityId, r: RelationId, q: &mut [f32]) {
        let d = self.dim;
        let mut a = vec![0.0f32; d * d];
        self.contract_head(self.entities.row(h.index()), &mut a);
        let wr = self.relations.row(r.index());
        q.fill(0.0);
        for j in 0..d {
            let wj = wr[j];
            if wj == 0.0 {
                continue;
            }
            let row = &a[j * d..(j + 1) * d];
            for k in 0..d {
                q[k] += wj * row[k];
            }
        }
    }

    /// Head query `q_i = Σ_j B[i,j] wr_j`.
    fn head_query(&self, r: RelationId, t: EntityId, q: &mut [f32]) {
        let d = self.dim;
        let mut b = vec![0.0f32; d * d];
        self.contract_tail(self.entities.row(t.index()), &mut b);
        let wr = self.relations.row(r.index());
        for i in 0..d {
            let row = &b[i * d..(i + 1) * d];
            let mut acc = 0.0f32;
            for j in 0..d {
                acc += row[j] * wr[j];
            }
            q[i] = acc;
        }
    }
}

impl KgcModel for TuckEr {
    fn name(&self) -> &'static str {
        "TuckER"
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
        match side {
            QuerySide::Tail => self.tail_query(triple.head, triple.relation, q),
            QuerySide::Head => self.head_query(triple.relation, triple.tail, q),
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

impl TrainableModel for TuckEr {
    crate::impl_persistence_tables!(entities, relations, core);

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

        // Candidate gradients: score is linear in e_c with coefficient q.
        let mut q = vec![0.0f32; d];
        self.build_query(pos, side, &mut q);
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

        // With v in the candidate slot, the group gradient factorises into a
        // single rank-1 core update h ⊗ wr ⊗ v (or v ⊗ wr ⊗ t on head side).
        let ctx: Vec<f32> = self.entities.row(context.index()).to_vec();
        let wr: Vec<f32> = self.relations.row(r.index()).to_vec();
        let (hvec, tvec): (&[f32], &[f32]) = match side {
            QuerySide::Tail => (&ctx, &v),
            QuerySide::Head => (&v, &ctx),
        };

        let mut grad_core = vec![0.0f32; d * d * d];
        let mut grad_ctx = vec![0.0f32; d];
        let mut grad_rel = vec![0.0f32; d];
        {
            let w = self.core.row(0);
            for i in 0..d {
                let hi = hvec[i];
                for j in 0..d {
                    let base = i * d * d + j * d;
                    let hw = hi * wr[j];
                    let mut dot_t = 0.0f32;
                    for k in 0..d {
                        grad_core[base + k] = hw * tvec[k];
                        dot_t += w[base + k] * tvec[k];
                    }
                    // ∂s/∂wr_j = Σ_ik W h_i t_k; ∂s/∂h_i = Σ_jk W wr_j t_k.
                    grad_rel[j] += hi * dot_t;
                    match side {
                        QuerySide::Tail => grad_ctx[i] += wr[j] * dot_t,
                        QuerySide::Head => {
                            // context is t: ∂s/∂t_k = Σ_ij v_i wr_j W_ijk.
                            let vw = v[i] * wr[j];
                            for k in 0..d {
                                grad_ctx[k] += vw * w[base + k];
                            }
                        }
                    }
                }
            }
        }
        if side == QuerySide::Head {
            // grad_rel above used hvec = v already; grad_ctx accumulated in loop.
        }
        self.entities.adagrad_update(context.index(), &grad_ctx, lr);
        self.relations.adagrad_update(r.index(), &grad_rel, lr);
        self.core.adagrad_update_dense(&grad_core, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::gradcheck;
    use kg_core::sample::seeded_rng;

    fn model() -> TuckEr {
        TuckEr::new(8, 3, 4, &mut seeded_rng(51))
    }

    #[test]
    fn scorers_consistent() {
        gradcheck::assert_scorers_consistent(&model(), RelationId(1));
    }

    #[test]
    fn steps_move_score_both_sides() {
        let mut m = model();
        gradcheck::assert_step_direction(&mut m, Triple::new(2, 2, 6), QuerySide::Tail);
        let mut m2 = model();
        gradcheck::assert_step_direction(&mut m2, Triple::new(2, 2, 6), QuerySide::Head);
    }

    #[test]
    fn identity_like_core_reduces_to_distmult() {
        // W[i,j,k] = 1 iff i == j == k gives score = Σ h_k wr_k t_k.
        let mut m = TuckEr::new(2, 1, 3, &mut seeded_rng(8));
        let d = 3;
        {
            let core = m.core.as_mut_slice();
            core.fill(0.0);
            for i in 0..d {
                core[i * d * d + i * d + i] = 1.0;
            }
        }
        m.entities.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.entities.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        m.relations.row_mut(0).copy_from_slice(&[1.0, 1.0, 2.0]);
        // Σ = 1·1·4 + 2·1·5 + 3·2·6 = 4 + 10 + 36 = 50.
        assert!((m.score(EntityId(0), RelationId(0), EntityId(1)) - 50.0).abs() < 1e-4);
    }

    #[test]
    fn head_and_tail_queries_agree_on_score() {
        let m = model();
        // score via tail query must equal score via head query.
        let h = EntityId(1);
        let r = RelationId(0);
        let t = EntityId(5);
        let direct = m.score(h, r, t);
        let mut q = vec![0.0f32; m.dim];
        m.head_query(r, t, &mut q);
        let via_head: f32 = q.iter().zip(m.entities.row(h.index())).map(|(a, b)| a * b).sum();
        assert!((direct - via_head).abs() < 1e-4);
    }
}
