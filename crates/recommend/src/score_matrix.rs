//! The relational score matrix `X ∈ R^{|E| × 2|R|}`, stored column-major.
//!
//! Column `r` is the *domain* (head) column of relation `r`; column
//! `r + |R|` is its *range* (tail) column — the layout of Algorithm 1.
//! Storage is sparse: structurally absent cells score exactly 0, which is
//! what the easy-negative miner of §4 counts.
//!
//! The storage is three flat arrays (column offsets, entities, scores).
//! Recommenders that produce per-column lists build it with
//! [`ScoreMatrix::from_columns`]; the linear ones (L-WD, L-WD-T, WD) write
//! it in place with `ScoreMatrix::propagate` — a count pass sizes the
//! columns, a fill pass writes them — so the matrix is built and held once.

use kg_core::sparse::CsrMatrix;
use kg_core::{DrColumn, RelationId};

/// Sparse column-major score matrix produced by a relation recommender.
#[derive(Clone, Debug)]
pub struct ScoreMatrix {
    num_entities: usize,
    num_relations: usize,
    /// `offsets[c]..offsets[c+1]` indexes `entities` / `scores` for column c.
    offsets: Vec<usize>,
    /// Entity ids per column, sorted ascending.
    entities: Vec<u32>,
    /// Scores parallel to `entities`; strictly positive.
    scores: Vec<f32>,
}

impl ScoreMatrix {
    /// Build from per-column `(entity, score)` lists (need not be sorted;
    /// non-positive scores are dropped; duplicate entities summed).
    pub fn from_columns(
        num_entities: usize,
        num_relations: usize,
        mut columns: Vec<Vec<(u32, f32)>>,
    ) -> Self {
        assert_eq!(columns.len(), 2 * num_relations, "expected 2|R| columns");
        let mut offsets = Vec::with_capacity(columns.len() + 1);
        let mut entities = Vec::new();
        let mut scores = Vec::new();
        offsets.push(0);
        for col in columns.iter_mut() {
            col.sort_unstable_by_key(|&(e, _)| e);
            let mut i = 0;
            while i < col.len() {
                let e = col[i].0;
                debug_assert!((e as usize) < num_entities);
                let mut acc = 0.0f32;
                while i < col.len() && col[i].0 == e {
                    acc += col[i].1;
                    i += 1;
                }
                if acc > 0.0 {
                    entities.push(e);
                    scores.push(acc);
                }
            }
            offsets.push(entities.len());
        }
        ScoreMatrix { num_entities, num_relations, offsets, entities, scores }
    }

    /// `X = B·W` for the linear recommenders (L-WD, L-WD-T, WD), restricted
    /// to the `2|R|` domain/range columns and written straight into the
    /// column-major arrays; `X` itself is never held.
    ///
    /// `B` is the `|E| × k` incidence matrix and `W` the `k × k` confidence
    /// matrix (`k = 2|R| + |T|`). Row `e` of `X` is accumulated one entity at
    /// a time over `k ∈ B(e)` in ascending order — Gustavson's order, the
    /// one [`kg_core::sparse::spgemm`] uses — into a dense `2|R|`
    /// accumulator against `W`'s first `2|R|` columns held dense (`k × 2|R|`
    /// floats, 76 KB at 69 relations), so the inner loop vectorises. A cell
    /// absent from `W` adds `b·0 = +0.0` (`B` is positive), which leaves
    /// every partial sum's bits as they are, so each score is bit-identical
    /// to the sparse product's. Type columns still feed the sum as rows of
    /// `W`.
    ///
    /// `finish(x, deg)` turns an accumulated cell into the stored score
    /// (`deg` is the entity's number of incident columns); cells that
    /// finish `≤ 0` (or NaN) are structurally absent. A count pass sizes
    /// each column, then a fill pass accumulates again and writes entities
    /// and scores; rows arrive in entity order, so every column is
    /// ascending without a sort.
    pub(crate) fn propagate(
        b: &CsrMatrix,
        w: &CsrMatrix,
        num_relations: usize,
        finish: impl Fn(f32, usize) -> f32,
    ) -> Self {
        let cols = 2 * num_relations;
        assert_eq!(b.cols(), w.rows(), "propagate: inner dimensions");
        assert!(w.cols() >= cols, "W has too few columns");
        let mut w_dense = vec![0f32; w.rows() * cols];
        for (k, row) in w_dense.chunks_exact_mut(cols.max(1)).enumerate() {
            let (idx, vals) = w.row(k);
            for (&j, &v) in idx.iter().zip(vals).take_while(|&(&j, _)| (j as usize) < cols) {
                row[j as usize] = v;
            }
        }
        let mut acc = vec![0f32; cols];
        // Row e of X into `acc`; returns e's degree (0: the row is empty).
        let row_of = |e: usize, acc: &mut [f32]| {
            let (ks, bs) = b.row(e);
            acc.fill(0.0);
            for (&k, &bv) in ks.iter().zip(bs) {
                let wk = &w_dense[k as usize * cols..][..cols];
                for (a, &wv) in acc.iter_mut().zip(wk) {
                    *a += bv * wv;
                }
            }
            ks.len()
        };

        let mut offsets = vec![0usize; cols + 1];
        for e in 0..b.rows() {
            let deg = row_of(e, &mut acc);
            if deg == 0 {
                continue;
            }
            for (n, &x) in offsets[1..].iter_mut().zip(&acc) {
                *n += usize::from(finish(x, deg) > 0.0);
            }
        }
        for j in 0..cols {
            offsets[j + 1] += offsets[j];
        }
        let nnz = offsets[cols];
        let mut entities = vec![0u32; nnz];
        let mut scores = vec![0f32; nnz];
        let mut cursor = offsets[..cols].to_vec();
        for e in 0..b.rows() {
            let deg = row_of(e, &mut acc);
            if deg == 0 {
                continue;
            }
            for (at, &x) in cursor.iter_mut().zip(&acc) {
                let s = finish(x, deg);
                if s > 0.0 {
                    entities[*at] = e as u32;
                    scores[*at] = s;
                    *at += 1;
                }
            }
        }
        ScoreMatrix { num_entities: b.rows(), num_relations, offsets, entities, scores }
    }

    /// Number of entities `|E|`.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of relations `|R|` (the matrix has `2|R|` columns).
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Number of columns (`2|R|`).
    pub fn num_columns(&self) -> usize {
        2 * self.num_relations
    }

    /// `(entities, scores)` of a column, entities sorted ascending.
    #[inline]
    pub fn column(&self, c: DrColumn) -> (&[u32], &[f32]) {
        let r = self.offsets[c.index()]..self.offsets[c.index() + 1];
        (&self.entities[r.clone()], &self.scores[r])
    }

    /// Entities of the domain column of `r`.
    pub fn domain(&self, r: RelationId) -> (&[u32], &[f32]) {
        self.column(DrColumn::domain(r))
    }

    /// Entities of the range column of `r`.
    pub fn range(&self, r: RelationId) -> (&[u32], &[f32]) {
        self.column(DrColumn::range(r, self.num_relations))
    }

    /// Score of `entity` in column `c` (0 when structurally absent).
    pub fn score(&self, entity: u32, c: DrColumn) -> f32 {
        let (es, ss) = self.column(c);
        match es.binary_search(&entity) {
            Ok(i) => ss[i],
            Err(_) => 0.0,
        }
    }

    /// Number of stored (nonzero) cells.
    pub fn nnz(&self) -> usize {
        self.entities.len()
    }

    /// Number of exactly-zero cells out of `|E| · 2|R|` — the paper's
    /// "easy negatives" (Table 2).
    pub fn zero_cells(&self) -> usize {
        self.num_entities * self.num_columns() - self.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> ScoreMatrix {
        // 4 entities, 1 relation: domain {0: 2.0, 2: 1.0}, range {1: 0.5}.
        ScoreMatrix::from_columns(4, 1, vec![vec![(2, 1.0), (0, 2.0)], vec![(1, 0.5)]])
    }

    #[test]
    fn columns_sorted_and_queryable() {
        let m = matrix();
        let (es, ss) = m.domain(RelationId(0));
        assert_eq!(es, &[0, 2]);
        assert_eq!(ss, &[2.0, 1.0]);
        assert_eq!(m.score(0, DrColumn(0)), 2.0);
        assert_eq!(m.score(1, DrColumn(0)), 0.0);
        assert_eq!(m.score(1, DrColumn(1)), 0.5);
    }

    #[test]
    fn zero_cells_counts_structural_zeros() {
        let m = matrix();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.zero_cells(), 4 * 2 - 3);
    }

    #[test]
    fn duplicates_summed_nonpositive_dropped() {
        let m = ScoreMatrix::from_columns(3, 1, vec![vec![(1, 1.0), (1, 2.0), (0, 0.0)], vec![]]);
        assert_eq!(m.score(1, DrColumn(0)), 3.0);
        assert_eq!(m.nnz(), 1, "zero-score entry must be dropped");
    }
}
