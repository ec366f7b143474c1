//! RotatE (Sun et al., 2019): relations are rotations in the complex plane,
//! `score(h,r,t) = −Σ_k |h_k · e^{iθ_k} − t_k|` (sum of complex moduli).
//!
//! Entity embeddings are complex (`[re…, im…]` layout, `m = dim/2` complex
//! dimensions); relation parameters are the `m` phases `θ`.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use rand::Rng;

use crate::embedding::EmbeddingTable;
use crate::model::{KgcModel, TrainableModel};

/// Guard against division by a zero modulus.
const MOD_EPS: f32 = 1e-9;

/// Rotation-based complex embedding model.
pub struct RotatE {
    entities: EmbeddingTable,
    /// Phase vectors θ, one row of length `dim/2` per relation.
    phases: EmbeddingTable,
    dim: usize,
    half: usize,
}

impl RotatE {
    /// New model; `dim` must be even.
    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        assert!(dim.is_multiple_of(2), "RotatE needs an even dimension");
        let half = dim / 2;
        RotatE {
            entities: EmbeddingTable::xavier(num_entities, dim, rng),
            phases: EmbeddingTable::uniform(num_relations, half, std::f32::consts::PI, rng),
            dim,
            half,
        }
    }

    /// Tail query from raw rows: the rotated head `h ∘ e^{iθ}` (complex
    /// layout; `th` holds the `dim/2` phases). Shared with the quantized
    /// serving wrapper.
    pub(crate) fn tail_query_into(he: &[f32], th: &[f32], q: &mut [f32]) {
        let m = q.len() / 2;
        for k in 0..m {
            let (c, s) = (th[k].cos(), th[k].sin());
            let (hr, hi) = (he[k], he[m + k]);
            q[k] = hr * c - hi * s;
            q[m + k] = hr * s + hi * c;
        }
    }

    /// Head query: `|h·e^{iθ} − t| = |h − t·e^{−iθ}|`, so the query is the
    /// counter-rotated tail.
    pub(crate) fn head_query_into(te: &[f32], th: &[f32], q: &mut [f32]) {
        let m = q.len() / 2;
        for k in 0..m {
            let (c, s) = (th[k].cos(), th[k].sin());
            let (tr, ti) = (te[k], te[m + k]);
            q[k] = tr * c + ti * s;
            q[m + k] = -tr * s + ti * c;
        }
    }

    /// `−Σ_k |q_k − e_k|` with complex moduli over the `[re…, im…]` layout.
    pub(crate) fn mod_distance_slices(q: &[f32], e: &[f32]) -> f32 {
        let m = q.len() / 2;
        let mut acc = 0.0f32;
        for k in 0..m {
            let dr = q[k] - e[k];
            let di = q[m + k] - e[m + k];
            acc += (dr * dr + di * di).sqrt();
        }
        -acc
    }
}

impl KgcModel for RotatE {
    fn name(&self) -> &'static str {
        "RotatE"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_entities(&self) -> usize {
        self.entities.count()
    }

    fn num_relations(&self) -> usize {
        self.phases.count()
    }

    fn query_len(&self) -> usize {
        self.dim
    }

    fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
        let ctx = self.entities.row(side.context(triple).index());
        let th = self.phases.row(triple.relation.index());
        match side {
            QuerySide::Tail => Self::tail_query_into(ctx, th, q),
            QuerySide::Head => Self::head_query_into(ctx, th, q),
        }
    }

    fn score_rows(&self, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
        for (o, e) in out.iter_mut().zip(rows) {
            *o = Self::mod_distance_slices(q, self.entities.row(e));
        }
    }

    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        for (o, &c) in out.iter_mut().zip(candidates) {
            *o = Self::mod_distance_slices(q, self.entities.row(c.index()));
        }
    }
}

impl TrainableModel for RotatE {
    crate::impl_persistence_tables!(entities, phases);

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
        let th: Vec<f32> = self.phases.row(r.index()).to_vec();
        let ctx: Vec<f32> = self.entities.row(context.index()).to_vec();

        let mut grad_ctx = vec![0.0f32; d];
        let mut grad_th = vec![0.0f32; m];
        let mut grad_cand = vec![0.0f32; d];

        for (&cand, &w) in candidates.iter().zip(coeffs) {
            if w == 0.0 {
                continue;
            }
            let ce: Vec<f32> = self.entities.row(cand.index()).to_vec();
            // Identify (h, t) for this candidate-completed triple.
            let (he, te): (&[f32], &[f32]) = match side {
                QuerySide::Tail => (&ctx, &ce),
                QuerySide::Head => (&ce, &ctx),
            };
            grad_cand.fill(0.0);
            for k in 0..m {
                let (c, s) = (th[k].cos(), th[k].sin());
                let (hr, hi) = (he[k], he[m + k]);
                let (tr, ti) = (te[k], te[m + k]);
                // u = h·e^{iθ} − t
                let rot_r = hr * c - hi * s;
                let rot_i = hr * s + hi * c;
                let ur = rot_r - tr;
                let ui = rot_i - ti;
                let modu = (ur * ur + ui * ui).sqrt().max(MOD_EPS);
                // score = −Σ |u| ⇒ ∂s/∂ur = −ur/|u|, etc.
                let gur = -ur / modu * w;
                let gui = -ui / modu * w;
                // Chain to h: ∂ur/∂hr = cos, ∂ui/∂hr = sin; ∂ur/∂hi = −sin, ∂ui/∂hi = cos.
                let ghr = gur * c + gui * s;
                let ghi = -gur * s + gui * c;
                // Chain to t: ∂u/∂t = −1.
                let gtr = -gur;
                let gti = -gui;
                // Chain to θ: ∂rot_r/∂θ = −rot_i, ∂rot_i/∂θ = rot_r.
                grad_th[k] += gur * (-rot_i) + gui * rot_r;
                match side {
                    QuerySide::Tail => {
                        grad_ctx[k] += ghr;
                        grad_ctx[m + k] += ghi;
                        grad_cand[k] = gtr;
                        grad_cand[m + k] = gti;
                    }
                    QuerySide::Head => {
                        grad_ctx[k] += gtr;
                        grad_ctx[m + k] += gti;
                        grad_cand[k] = ghr;
                        grad_cand[m + k] = ghi;
                    }
                }
            }
            self.entities.adagrad_update(cand.index(), &grad_cand, lr);
        }
        self.entities.adagrad_update(context.index(), &grad_ctx, lr);
        self.phases.adagrad_update(r.index(), &grad_th, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::gradcheck;
    use kg_core::sample::seeded_rng;
    use kg_core::RelationId;

    fn model() -> RotatE {
        RotatE::new(8, 3, 8, &mut seeded_rng(31))
    }

    #[test]
    fn scorers_consistent() {
        gradcheck::assert_scorers_consistent(&model(), RelationId(2));
    }

    #[test]
    fn steps_move_score_both_sides() {
        let mut m = model();
        gradcheck::assert_step_direction(&mut m, Triple::new(0, 0, 4), QuerySide::Tail);
        let mut m2 = model();
        gradcheck::assert_step_direction(&mut m2, Triple::new(0, 0, 4), QuerySide::Head);
    }

    #[test]
    fn rotation_preserves_modulus() {
        // score(h, r, h·e^{iθ}) must be exactly 0 (perfect rotation).
        let mut m = RotatE::new(2, 1, 4, &mut seeded_rng(6));
        m.entities.row_mut(0).copy_from_slice(&[1.0, 0.5, -0.3, 0.8]);
        let mut q = vec![0.0f32; 4];
        m.build_query(Triple::new(0, 0, 1), QuerySide::Tail, &mut q);
        m.entities.row_mut(1).copy_from_slice(&q);
        let s = m.score(EntityId(0), RelationId(0), EntityId(1));
        assert!(s.abs() < 1e-5, "perfect rotation should score 0, got {s}");
    }

    #[test]
    fn zero_phase_is_identity() {
        let mut m = RotatE::new(2, 1, 4, &mut seeded_rng(7));
        m.phases.row_mut(0).fill(0.0);
        m.entities.row_mut(0).copy_from_slice(&[0.1, 0.2, 0.3, 0.4]);
        m.entities.row_mut(1).copy_from_slice(&[0.1, 0.2, 0.3, 0.4]);
        let s = m.score(EntityId(0), RelationId(0), EntityId(1));
        assert!(s.abs() < 1e-6, "identity rotation of identical vectors: {s}");
    }

    #[test]
    fn scores_are_nonpositive() {
        let m = model();
        let mut out = vec![0.0f32; 8];
        m.score_all(Triple::new(0, 0, 0), QuerySide::Tail, &mut out);
        assert!(out.iter().all(|&s| s <= 0.0));
    }
}
