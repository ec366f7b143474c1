//! ComplEx (Trouillon et al., 2016): `score = Re(⟨e_h, w_r, conj(e_t)⟩)`.
//!
//! Embeddings live in `C^{d/2}`, stored as `[re₀..re_{m−1}, im₀..im_{m−1}]`
//! with `m = dim/2`. The asymmetric conjugation lets ComplEx model
//! anti-symmetric relations that defeat DistMult.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use rand::Rng;

use crate::embedding::{
    combine_candidates, combine_range, combine_range_block, Combine, EmbeddingTable,
};
use crate::model::{KgcModel, TrainableModel};

/// Complex bilinear factorisation model.
pub struct ComplEx {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    dim: usize,
    half: usize,
}

impl ComplEx {
    /// New model; `dim` must be even (real + imaginary halves).
    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        assert!(dim.is_multiple_of(2), "ComplEx needs an even dimension");
        ComplEx {
            entities: EmbeddingTable::xavier(num_entities, dim, rng),
            relations: EmbeddingTable::xavier(num_relations, dim, rng),
            dim,
            half: dim / 2,
        }
    }

    /// Tail query from raw rows: `q` such that `score = q · e_t` in the
    /// stacked layout. With `a = h ∘ r` (complex): `q_re = Re(a)`,
    /// `q_im = Im(a)`, because `Re(a · conj(t)) = Re(a)Re(t) + Im(a)Im(t)`.
    /// Shared with the quantized serving wrapper.
    pub(crate) fn tail_query_into(he: &[f32], re: &[f32], q: &mut [f32]) {
        let m = q.len() / 2;
        for k in 0..m {
            let (hr, hi) = (he[k], he[m + k]);
            let (rr, ri) = (re[k], re[m + k]);
            q[k] = hr * rr - hi * ri;
            q[m + k] = hr * ri + hi * rr;
        }
    }

    /// Head query from raw rows: `score` is linear in `e_h`; the coefficient
    /// vector is `q_re = Re(r)Re(t) + Im(r)Im(t)`,
    /// `q_im = Re(r)Im(t) − Im(r)Re(t)`.
    pub(crate) fn head_query_into(te: &[f32], re: &[f32], q: &mut [f32]) {
        let m = q.len() / 2;
        for k in 0..m {
            let (tr, ti) = (te[k], te[m + k]);
            let (rr, ri) = (re[k], re[m + k]);
            q[k] = rr * tr + ri * ti;
            q[m + k] = rr * ti - ri * tr;
        }
    }
}

impl KgcModel for ComplEx {
    fn name(&self) -> &'static str {
        "ComplEx"
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

impl TrainableModel for ComplEx {
    crate::impl_persistence_tables!(entities, relations);

    fn step_group(
        &mut self,
        pos: Triple,
        side: QuerySide,
        candidates: &[EntityId],
        coeffs: &[f32],
        lr: f32,
    ) {
        let m = self.half;
        let d = self.dim;
        let context = side.context(pos);
        let r = pos.relation;

        // The score is linear in the candidate embedding with coefficient
        // vector = the query vector for this side; and linear in the fixed
        // entity/relation once the weighted candidate sum v is known.
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

        let mut grad_ctx = vec![0.0f32; d];
        let mut grad_rel = vec![0.0f32; d];
        {
            let re = self.relations.row(r.index());
            let ce = self.entities.row(context.index());
            match side {
                QuerySide::Tail => {
                    // context = h; v = Σ w·t.
                    for k in 0..m {
                        let (rr, ri) = (re[k], re[m + k]);
                        let (hr, hi) = (ce[k], ce[m + k]);
                        let (vr, vi) = (v[k], v[m + k]);
                        grad_ctx[k] = rr * vr + ri * vi; // ∂s/∂hr
                        grad_ctx[m + k] = -ri * vr + rr * vi; // ∂s/∂hi
                        grad_rel[k] = hr * vr + hi * vi; // ∂s/∂rr
                        grad_rel[m + k] = -hi * vr + hr * vi; // ∂s/∂ri
                    }
                }
                QuerySide::Head => {
                    // context = t; v = Σ w·h.
                    for k in 0..m {
                        let (rr, ri) = (re[k], re[m + k]);
                        let (tr, ti) = (ce[k], ce[m + k]);
                        let (vr, vi) = (v[k], v[m + k]);
                        grad_ctx[k] = rr * vr - ri * vi; // ∂s/∂tr = Re(h∘r)
                        grad_ctx[m + k] = ri * vr + rr * vi; // ∂s/∂ti
                        grad_rel[k] = vr * tr + vi * ti; // ∂s/∂rr
                        grad_rel[m + k] = -vi * tr + vr * ti; // ∂s/∂ri
                    }
                }
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

    fn model() -> ComplEx {
        ComplEx::new(8, 3, 8, &mut seeded_rng(13))
    }

    #[test]
    fn scorers_consistent() {
        gradcheck::assert_scorers_consistent(&model(), RelationId(1));
    }

    #[test]
    fn steps_move_score_both_sides() {
        let mut m = model();
        gradcheck::assert_step_direction(&mut m, Triple::new(1, 2, 6), QuerySide::Tail);
        let mut m2 = model();
        gradcheck::assert_step_direction(&mut m2, Triple::new(1, 2, 6), QuerySide::Head);
    }

    #[test]
    fn complex_can_be_asymmetric() {
        // With a relation that has a nonzero imaginary part, score(h,r,t) ≠
        // score(t,r,h) in general.
        let mut m = ComplEx::new(2, 1, 4, &mut seeded_rng(3));
        m.entities.row_mut(0).copy_from_slice(&[1.0, 2.0, 0.5, -1.0]);
        m.entities.row_mut(1).copy_from_slice(&[0.3, 1.0, -0.2, 0.4]);
        m.relations.row_mut(0).copy_from_slice(&[0.3, 0.3, 0.9, -0.1]);
        let fwd = m.score(EntityId(0), RelationId(0), EntityId(1));
        let bwd = m.score(EntityId(1), RelationId(0), EntityId(0));
        assert!((fwd - bwd).abs() > 1e-4, "expected asymmetry, got {fwd} vs {bwd}");
    }

    #[test]
    fn hand_computed_score() {
        // One complex dimension: h = 1+2i, r = 3+4i, t = 5+6i.
        // h·r = (1·3−2·4) + (1·4+2·3)i = −5 + 10i.
        // (h·r)·conj(t) = (−5+10i)(5−6i) = (−25+60) + (50+30)i = 35 + 80i.
        // score = Re = 35.
        let mut m = ComplEx::new(2, 1, 2, &mut seeded_rng(4));
        m.entities.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        m.entities.row_mut(1).copy_from_slice(&[5.0, 6.0]);
        m.relations.row_mut(0).copy_from_slice(&[3.0, 4.0]);
        assert!((m.score(EntityId(0), RelationId(0), EntityId(1)) - 35.0).abs() < 1e-5);
    }
}
