//! Embedding tables with per-element Adagrad state, plus the combine
//! primitives (dot / negative L1 / negative L2) every model's full-ranking
//! path reduces to. The arithmetic lives in [`crate::kernels`], which
//! dispatches to the best ISA at runtime; this module owns storage and the
//! table-shaped entry points.

use kg_core::{AlignedVec, EntityId};
use rand::Rng;

pub use crate::kernels::Combine;
use crate::kernels::{self, combine_one as kernel_one, combine_rows as kernel_rows};

/// A dense `count × dim` table of `f32` parameters with Adagrad
/// accumulators. Updates are sparse: only touched rows pay.
///
/// Parameter storage is 64-byte-aligned ([`AlignedVec`]), so when
/// `dim * 4` is a multiple of 64 (dim 16, 32, 64, …) every row starts on
/// its own cache line and SIMD row loads never straddle an extra line.
#[derive(Clone, Debug)]
pub struct EmbeddingTable {
    dim: usize,
    data: AlignedVec<f32>,
    /// Accumulated squared gradients (Adagrad).
    accum: Vec<f32>,
}

/// Adagrad epsilon.
const EPS: f32 = 1e-8;

impl EmbeddingTable {
    /// New table initialised uniformly in `±sqrt(6 / (count + dim))`
    /// (Xavier/Glorot range).
    pub fn xavier<R: Rng>(count: usize, dim: usize, rng: &mut R) -> Self {
        rng.xavier(count, dim)
    }

    /// New table initialised uniformly in `±bound`, drawn straight into
    /// its storage. The Adagrad accumulators are zero-allocated, so a table
    /// that is only ever scored never touches (or pays RSS for) them.
    pub fn uniform<R: Rng>(count: usize, dim: usize, bound: f32, rng: &mut R) -> Self {
        let data = AlignedVec::from_fn(count * dim, |_| rng.gen_range(-bound..=bound));
        EmbeddingTable { dim, data, accum: vec![0.0; count * dim] }
    }

    /// Row dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn count(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Adagrad step on row `i`: `x -= lr * g / sqrt(accum + eps)` after
    /// `accum += g²`.
    pub fn adagrad_update(&mut self, i: usize, grad: &[f32], lr: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        let start = i * self.dim;
        for (k, &g) in grad.iter().enumerate() {
            let a = &mut self.accum[start + k];
            *a += g * g;
            self.data[start + k] -= lr * g / (a.sqrt() + EPS);
        }
    }

    /// Adagrad step over the whole table with a dense gradient (used by
    /// shared parameters such as the TuckER core and ConvE filters).
    pub fn adagrad_update_dense(&mut self, grad: &[f32], lr: f32) {
        debug_assert_eq!(grad.len(), self.data.len());
        for (k, &g) in grad.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let a = &mut self.accum[k];
            *a += g * g;
            self.data[k] -= lr * g / (a.sqrt() + EPS);
        }
    }

    /// Adagrad step on a single cell `(row, col)`.
    pub fn adagrad_update_scalar(&mut self, row: usize, col: usize, grad: f32, lr: f32) {
        let idx = row * self.dim + col;
        let a = &mut self.accum[idx];
        *a += grad * grad;
        self.data[idx] -= lr * grad / (a.sqrt() + EPS);
    }

    /// Raw parameter slice (read-only).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw parameter slice (mutable; for tests constructing exact values).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Where a new model's tables come from. Every `Rng` is one: it draws
/// them, for a model that will be trained. The snapshot reader passes a
/// crate-private zeroed source instead, since it overwrites every value.
pub trait TableInit {
    /// A `count × dim` table, uniform in `±bound` when drawn.
    fn uniform(&mut self, count: usize, dim: usize, bound: f32) -> EmbeddingTable;

    /// A `count × dim` table in the Xavier/Glorot range when drawn.
    fn xavier(&mut self, count: usize, dim: usize) -> EmbeddingTable {
        self.uniform(count, dim, (6.0 / (count + dim) as f64).sqrt() as f32)
    }
}

impl<R: Rng> TableInit for R {
    fn uniform(&mut self, count: usize, dim: usize, bound: f32) -> EmbeddingTable {
        EmbeddingTable::uniform(count, dim, bound, self)
    }
}

/// Zero-filled tables, no draw: the load path's shell.
pub(crate) struct Zeroed;

impl TableInit for Zeroed {
    fn uniform(&mut self, count: usize, dim: usize, _bound: f32) -> EmbeddingTable {
        let len = count * dim;
        EmbeddingTable { dim, data: AlignedVec::zeroed(len), accum: vec![0.0; len] }
    }
}

/// Score `q` against the contiguous row range `rows` into `out`
/// (`out.len() == rows.len()`). This is the full-ranking primitive: the
/// kernel streams the range's flat slice of the table (already sized to
/// stay cache-resident by `ShardPlan`) with register-blocked SIMD rows.
/// Per-row arithmetic is independent of the range, so any partition of the
/// table scores every row to the same bits.
pub fn combine_range(
    c: Combine,
    table: &EmbeddingTable,
    q: &[f32],
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    debug_assert_eq!(q.len(), table.dim());
    debug_assert_eq!(out.len(), rows.len());
    debug_assert!(rows.end <= table.count());
    let dim = table.dim();
    let flat = &table.as_slice()[rows.start * dim..rows.end * dim];
    kernel_rows(c, q, flat, dim, out);
}

/// [`combine_range`] for a block of queries (`qs`, `dim` floats each, back
/// to back) into `out`, query-major — what a family built on
/// `combine_range` answers [`crate::KgcModel::score_rows_block`] with.
pub fn combine_range_block(
    c: Combine,
    table: &EmbeddingTable,
    qs: &[f32],
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    debug_assert!(rows.end <= table.count());
    let dim = table.dim();
    kernels::combine_rows_block(
        c,
        qs,
        &table.as_slice()[rows.start * dim..rows.end * dim],
        dim,
        out,
    );
}

/// Score `q` against a candidate subset of rows. Takes the caller's
/// `EntityId` slice directly — the serving candidate path used to collect
/// ids into a fresh `Vec<u32>` per call just to change the integer type.
pub fn combine_candidates(
    c: Combine,
    table: &EmbeddingTable,
    q: &[f32],
    candidates: &[EntityId],
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), candidates.len());
    for (o, &e) in out.iter_mut().zip(candidates) {
        *o = kernel_one(c, q, table.row(e.index()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::sample::seeded_rng;

    #[test]
    fn xavier_init_within_bounds() {
        let t = EmbeddingTable::xavier(10, 4, &mut seeded_rng(1));
        let bound = (6.0 / 14.0f64).sqrt() as f32;
        assert!(t.as_slice().iter().all(|v| v.abs() <= bound));
        assert_eq!(t.count(), 10);
        assert_eq!(t.dim(), 4);
    }

    #[test]
    fn storage_is_cache_line_aligned() {
        let t = EmbeddingTable::xavier(5, 16, &mut seeded_rng(9));
        let base = t.as_slice().as_ptr() as usize;
        assert_eq!(base % kg_core::align::CACHE_LINE, 0);
        // dim 16 ⇒ 64-byte rows ⇒ every row starts a cache line.
        for i in 0..5 {
            assert_eq!(t.row(i).as_ptr() as usize % kg_core::align::CACHE_LINE, 0);
        }
    }

    #[test]
    fn adagrad_moves_against_gradient() {
        let mut t = EmbeddingTable::uniform(2, 3, 0.0, &mut seeded_rng(2)); // zeros
        t.adagrad_update(1, &[1.0, -1.0, 0.0], 0.1);
        let r = t.row(1);
        assert!(r[0] < 0.0, "positive grad decreases param");
        assert!(r[1] > 0.0, "negative grad increases param");
        assert_eq!(r[2], 0.0);
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0], "untouched row unchanged");
    }

    #[test]
    fn adagrad_steps_shrink_over_time() {
        let mut t = EmbeddingTable::uniform(1, 1, 0.0, &mut seeded_rng(3));
        t.adagrad_update(0, &[1.0], 0.1);
        let first = -t.row(0)[0];
        let before = t.row(0)[0];
        t.adagrad_update(0, &[1.0], 0.1);
        let second = before - t.row(0)[0];
        assert!(second < first, "Adagrad step must shrink: {first} vs {second}");
    }

    #[test]
    fn combine_dot() {
        let mut t = EmbeddingTable::uniform(2, 2, 0.0, &mut seeded_rng(4));
        t.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut out = [0.0f32; 2];
        combine_range(Combine::Dot, &t, &[1.0, 1.0], 0..2, &mut out);
        assert_eq!(out, [3.0, 7.0]);
    }

    #[test]
    fn combine_negl1_and_negl2() {
        let mut t = EmbeddingTable::uniform(1, 2, 0.0, &mut seeded_rng(5));
        t.as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        let q = [0.0f32, 0.0];
        let mut out = [0.0f32; 1];
        combine_range(Combine::NegL1, &t, &q, 0..1, &mut out);
        assert_eq!(out[0], -2.0);
        combine_range(Combine::NegL2, &t, &q, 0..1, &mut out);
        assert_eq!(out[0], -2.0);
        let q2 = [1.0f32, -1.0];
        combine_range(Combine::NegL2, &t, &q2, 0..1, &mut out);
        assert_eq!(out[0], 0.0, "identical vectors have zero distance");
    }

    #[test]
    fn combine_candidates_subset() {
        let mut t = EmbeddingTable::uniform(3, 1, 0.0, &mut seeded_rng(6));
        t.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0]);
        let mut out = [0.0f32; 2];
        combine_candidates(Combine::Dot, &t, &[2.0], &[EntityId(2), EntityId(0)], &mut out);
        assert_eq!(out, [6.0, 2.0]);
    }

    #[test]
    fn range_is_a_slice_of_all() {
        let t = EmbeddingTable::xavier(33, 13, &mut seeded_rng(7)); // odd sizes
        let q: Vec<f32> = (0..13).map(|k| k as f32 * 0.1 - 0.6).collect();
        for c in [Combine::Dot, Combine::NegL1, Combine::NegL2] {
            let mut full = vec![0.0f32; 33];
            combine_range(c, &t, &q, 0..33, &mut full);
            let mut part = vec![0.0f32; 20];
            combine_range(c, &t, &q, 7..27, &mut part);
            let fb: Vec<u32> = full[7..27].iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = part.iter().map(|v| v.to_bits()).collect();
            assert_eq!(pb, fb, "{c:?}");
        }
    }
}
