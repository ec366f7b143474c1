//! ConvE (Dettmers et al., 2018): 2D convolution over stacked head/relation
//! embeddings, implemented from scratch with manual backpropagation.
//!
//! Architecture (dropout and batch-norm omitted — documented substitution,
//! they only regularise):
//!
//! ```text
//! reshape(e_h) ∥ reshape(w_r)  →  (2H × W) image
//!   → C filters of 3×3, valid padding, ReLU
//!   → flatten → fully-connected to d, ReLU  → query vector q
//! score(h,r,t) = q · e_t + b_t
//! ```
//!
//! Head queries use *reciprocal relations* (the standard ConvE evaluation
//! protocol): the relation table holds `2|R|` rows and `(?, r, t)` is scored
//! as the tail query `(t, r + |R|, ?)`.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};
use rand::Rng;

use crate::embedding::EmbeddingTable;
use crate::model::{KgcModel, TrainableModel};

/// Number of convolution filters.
const FILTERS: usize = 8;
/// Convolution kernel side.
const K: usize = 3;
/// Embedding image width (height is `dim / WIDTH`).
const WIDTH: usize = 4;

/// Convolutional KGC model with reciprocal relations.
pub struct ConvE {
    entities: EmbeddingTable,
    /// `2·|R|` rows: `r` for tail queries, `r + |R|` for head queries.
    relations: EmbeddingTable,
    /// Conv kernels: one row of `FILTERS · K · K`.
    kernels: EmbeddingTable,
    /// Per-filter bias.
    kernel_bias: EmbeddingTable,
    /// Fully connected `dim × flat` matrix (one row).
    fc: EmbeddingTable,
    /// FC bias (`dim`).
    fc_bias: EmbeddingTable,
    /// Per-entity output bias.
    entity_bias: EmbeddingTable,
    num_relations: usize,
    dim: usize,
    height: usize,
    out_h: usize,
    out_w: usize,
    flat: usize,
}

/// Intermediates of one forward pass, kept for backprop.
struct Forward {
    /// Stacked input image (2H × W).
    x: Vec<f32>,
    /// Conv pre-activations (FILTERS × out_h × out_w).
    conv_pre: Vec<f32>,
    /// Post-ReLU flattened conv output.
    z: Vec<f32>,
    /// FC pre-activations (dim).
    fc_pre: Vec<f32>,
    /// Final query vector (dim).
    q: Vec<f32>,
}

impl ConvE {
    /// New model; `dim` must be a multiple of [`WIDTH`] (default 4) and at
    /// least `2 · WIDTH` (see [`ConvE::table_lens`]).
    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        let (height, out_h, out_w, flat) = Self::image(dim).unwrap_or_else(|e| panic!("{e}"));
        ConvE {
            entities: EmbeddingTable::xavier(num_entities, dim, rng),
            relations: EmbeddingTable::xavier(2 * num_relations, dim, rng),
            kernels: EmbeddingTable::xavier(1, FILTERS * K * K, rng),
            kernel_bias: EmbeddingTable::uniform(1, FILTERS, 0.0, rng),
            fc: EmbeddingTable::xavier(1, dim * flat, rng),
            fc_bias: EmbeddingTable::uniform(1, dim, 0.0, rng),
            entity_bias: EmbeddingTable::uniform(1, num_entities, 0.0, rng),
            num_relations,
            dim,
            height,
            out_h,
            out_w,
            flat,
        }
    }

    /// The embedding image for `dim`: `(height, out_h, out_w, flat)`, or
    /// why no ConvE has that dimension.
    fn image(dim: usize) -> Result<(usize, usize, usize, usize), String> {
        if dim == 0 || !dim.is_multiple_of(WIDTH) {
            return Err(format!("ConvE dim must be a positive multiple of {WIDTH}, got {dim}"));
        }
        let height = dim / WIDTH;
        let out_w = WIDTH - (K - 1);
        let out_h = (2 * height).checked_sub(K - 1).filter(|&h| h >= 1).ok_or_else(|| {
            format!("ConvE dim {dim}: embedding image too small for {K}x{K} conv")
        })?;
        let flat = out_h
            .checked_mul(FILTERS * out_w)
            .ok_or_else(|| format!("ConvE dim {dim} overflows usize"))?;
        Ok((height, out_h, out_w, flat))
    }

    /// The lengths of the parameter tables `new` allocates, in
    /// `param_tables` order, or why it would refuse the shape.
    pub(crate) fn table_lens(ne: usize, nr: usize, dim: usize) -> Result<Vec<usize>, String> {
        let (_, _, _, flat) = Self::image(dim)?;
        let overflow = || format!("ConvE {ne}x{nr}x{dim} overflows usize");
        let mul = |a: usize, b: usize| a.checked_mul(b).ok_or_else(overflow);
        Ok(vec![
            mul(ne, dim)?,
            mul(mul(2, nr)?, dim)?,
            FILTERS * K * K,
            FILTERS,
            mul(dim, flat)?,
            dim,
            ne,
        ])
    }

    /// Forward pass computing the query vector from `(entity, relation row)`.
    fn forward(&self, e: EntityId, rel_row: usize) -> Forward {
        let d = self.dim;
        let (h2, w) = (2 * self.height, WIDTH);
        let mut x = vec![0.0f32; h2 * w];
        x[..d].copy_from_slice(self.entities.row(e.index()));
        x[d..].copy_from_slice(self.relations.row(rel_row));

        let kernels = self.kernels.row(0);
        let kbias = self.kernel_bias.row(0);
        let mut conv_pre = vec![0.0f32; self.flat];
        let mut z = vec![0.0f32; self.flat];
        for f in 0..FILTERS {
            let ker = &kernels[f * K * K..(f + 1) * K * K];
            for oy in 0..self.out_h {
                for ox in 0..self.out_w {
                    let mut acc = kbias[f];
                    for ky in 0..K {
                        let row = &x[(oy + ky) * w..(oy + ky) * w + w];
                        for kx in 0..K {
                            acc += ker[ky * K + kx] * row[ox + kx];
                        }
                    }
                    let idx = f * self.out_h * self.out_w + oy * self.out_w + ox;
                    conv_pre[idx] = acc;
                    z[idx] = acc.max(0.0);
                }
            }
        }

        let fc = self.fc.row(0);
        let fcb = self.fc_bias.row(0);
        let mut fc_pre = vec![0.0f32; d];
        let mut q = vec![0.0f32; d];
        for m in 0..d {
            let row = &fc[m * self.flat..(m + 1) * self.flat];
            let mut acc = fcb[m];
            for (rv, zv) in row.iter().zip(&z) {
                acc += rv * zv;
            }
            fc_pre[m] = acc;
            q[m] = acc.max(0.0);
        }
        Forward { x, conv_pre, z, fc_pre, q }
    }

    /// The `(source entity, relation row)` pair for a query.
    fn query_source(&self, pos: Triple, side: QuerySide) -> (EntityId, usize) {
        match side {
            QuerySide::Tail => (pos.head, pos.relation.index()),
            QuerySide::Head => (pos.tail, pos.relation.index() + self.num_relations),
        }
    }

    /// Backpropagate `dq` through the network, applying Adagrad updates to
    /// the shared parameters and to the source entity/relation rows.
    fn backward(&mut self, fwd: &Forward, e: EntityId, rel_row: usize, dq: &[f32], lr: f32) {
        let d = self.dim;
        let w = WIDTH;

        // Through the output ReLU.
        let mut dfc_pre = vec![0.0f32; d];
        for m in 0..d {
            dfc_pre[m] = if fwd.fc_pre[m] > 0.0 { dq[m] } else { 0.0 };
        }

        // FC layer.
        let mut grad_fc = vec![0.0f32; d * self.flat];
        let mut dz = vec![0.0f32; self.flat];
        {
            let fc = self.fc.row(0);
            for m in 0..d {
                let g = dfc_pre[m];
                if g == 0.0 {
                    continue;
                }
                let row = &fc[m * self.flat..(m + 1) * self.flat];
                let grow = &mut grad_fc[m * self.flat..(m + 1) * self.flat];
                for n in 0..self.flat {
                    grow[n] = g * fwd.z[n];
                    dz[n] += g * row[n];
                }
            }
        }

        // Through the conv ReLU.
        #[allow(clippy::needless_range_loop)]
        for n in 0..self.flat {
            if fwd.conv_pre[n] <= 0.0 {
                dz[n] = 0.0;
            }
        }

        // Conv layer: kernel gradients and input gradient.
        let mut grad_ker = vec![0.0f32; FILTERS * K * K];
        let mut grad_kbias = vec![0.0f32; FILTERS];
        let mut dx = vec![0.0f32; fwd.x.len()];
        {
            let kernels = self.kernels.row(0);
            for f in 0..FILTERS {
                let ker = &kernels[f * K * K..(f + 1) * K * K];
                let gker = &mut grad_ker[f * K * K..(f + 1) * K * K];
                for oy in 0..self.out_h {
                    for ox in 0..self.out_w {
                        let g = dz[f * self.out_h * self.out_w + oy * self.out_w + ox];
                        if g == 0.0 {
                            continue;
                        }
                        grad_kbias[f] += g;
                        for ky in 0..K {
                            for kx in 0..K {
                                let xi = (oy + ky) * w + ox + kx;
                                gker[ky * K + kx] += g * fwd.x[xi];
                                dx[xi] += g * ker[ky * K + kx];
                            }
                        }
                    }
                }
            }
        }

        self.fc.adagrad_update_dense(&grad_fc, lr);
        self.fc_bias.adagrad_update(0, &dfc_pre, lr);
        self.kernels.adagrad_update_dense(&grad_ker, lr);
        self.kernel_bias.adagrad_update(0, &grad_kbias, lr);
        self.entities.adagrad_update(e.index(), &dx[..d], lr);
        self.relations.adagrad_update(rel_row, &dx[d..], lr);
    }

    fn score_with_q(&self, q: &[f32], entity: usize) -> f32 {
        let e = self.entities.row(entity);
        let mut acc = self.entity_bias.row(0)[entity];
        for (a, b) in q.iter().zip(e) {
            acc += a * b;
        }
        acc
    }
}

impl KgcModel for ConvE {
    fn name(&self) -> &'static str {
        "ConvE"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_entities(&self) -> usize {
        self.entities.count()
    }

    fn num_relations(&self) -> usize {
        self.num_relations
    }

    fn query_len(&self) -> usize {
        self.dim
    }

    fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
        let (src, rel_row) = self.query_source(triple, side);
        q.copy_from_slice(&self.forward(src, rel_row).q);
    }

    fn score_rows(&self, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
        for (o, e) in out.iter_mut().zip(rows) {
            *o = self.score_with_q(q, e);
        }
    }

    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        for (o, &c) in out.iter_mut().zip(candidates) {
            *o = self.score_with_q(q, c.index());
        }
    }
}

impl TrainableModel for ConvE {
    crate::impl_persistence_tables!(
        entities,
        relations,
        kernels,
        kernel_bias,
        fc,
        fc_bias,
        entity_bias
    );

    fn step_group(
        &mut self,
        pos: Triple,
        side: QuerySide,
        candidates: &[EntityId],
        coeffs: &[f32],
        lr: f32,
    ) {
        let d = self.dim;
        let (src, rel_row) = self.query_source(pos, side);
        let fwd = self.forward(src, rel_row);

        // Candidate-side gradients and the accumulated dq = Σ w_c e_c.
        let mut dq = vec![0.0f32; d];
        let mut grad_cand = vec![0.0f32; d];
        for (&cand, &w) in candidates.iter().zip(coeffs) {
            if w == 0.0 {
                continue;
            }
            let ce = self.entities.row(cand.index());
            for k in 0..d {
                dq[k] += w * ce[k];
                grad_cand[k] = w * fwd.q[k];
            }
            self.entities.adagrad_update(cand.index(), &grad_cand, lr);
            self.entity_bias.adagrad_update_scalar(0, cand.index(), w, lr);
        }

        self.backward(&fwd, src, rel_row, &dq, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::gradcheck;
    use kg_core::sample::seeded_rng;
    use kg_core::RelationId;

    fn model() -> ConvE {
        ConvE::new(8, 3, 16, &mut seeded_rng(61))
    }

    #[test]
    fn scorers_consistent() {
        // ConvE scores head queries through reciprocal relations, so the
        // head scorer is checked for internal consistency only.
        gradcheck::assert_scorers_consistent_recip(&model(), RelationId(1));
    }

    #[test]
    fn steps_move_score_tail_side() {
        let mut m = model();
        gradcheck::assert_step_direction(&mut m, Triple::new(0, 1, 5), QuerySide::Tail);
    }

    #[test]
    fn head_side_step_affects_head_ranking() {
        // For ConvE, head queries go through the reciprocal relation; the
        // ascent property must hold for the *head* scorer.
        let mut m = model();
        let pos = Triple::new(2, 0, 6);
        let mut out = vec![0.0f32; 8];
        m.score_all(pos, QuerySide::Head, &mut out);
        let before = out[2];
        m.step_group(pos, QuerySide::Head, &[EntityId(2)], &[-1.0], 0.05);
        m.score_all(pos, QuerySide::Head, &mut out);
        assert!(out[2] > before, "head-side ascent failed: {} -> {}", before, out[2]);
    }

    #[test]
    fn dims_and_shapes() {
        let m = model();
        assert_eq!(m.dim(), 16);
        assert_eq!(m.height, 4);
        assert_eq!(m.out_h, 6);
        assert_eq!(m.out_w, 2);
        assert_eq!(m.flat, FILTERS * 12);
    }

    #[test]
    fn entity_bias_shifts_scores() {
        let mut m = model();
        let s0 = m.score(EntityId(0), RelationId(0), EntityId(1));
        m.entity_bias.row_mut(0)[1] += 1.0;
        let s1 = m.score(EntityId(0), RelationId(0), EntityId(1));
        assert!((s1 - s0 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn finite_difference_on_entity_embedding() {
        // Perturb one input-entity coordinate; the score change must match
        // a numeric directional derivative of the forward pass.
        let m = model();
        let h = EntityId(0);
        let r = RelationId(0);
        let t = EntityId(3);
        let base = m.score(h, r, t);
        let mut m2 = model(); // identical seed ⇒ identical params
        let eps = 1e-3f32;
        m2.entities.row_mut(0)[2] += eps;
        let bumped = m2.score(h, r, t);
        let fd = (bumped - base) / eps;
        // The analytic gradient of the score wrt input is dx (from backward);
        // here we only sanity-check the derivative is finite and the forward
        // pass is deterministic.
        assert!(fd.is_finite());
        assert_eq!(m.score(h, r, t), base);
    }
}
