//! The model traits: scoring ([`KgcModel`]) and training ([`TrainableModel`]).

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, RelationId, Triple};

/// A knowledge-graph completion model that scores triples.
///
/// Higher scores mean "more plausible". A model is a **query vector and a
/// table**: [`KgcModel::build_query`] does everything that does not depend
/// on the candidate (the translation, rotation, core contraction or
/// convolution) once per `(triple, side)`, and two row primitives score
/// that prepared query against rows of the entity table —
/// [`KgcModel::score_rows`] over a contiguous range (`|E|` rows for full
/// filtered ranking, one shard's worth for a shard server) and
/// [`KgcModel::score_gathered`] over a candidate list (`n_s` rows for
/// sampled evaluation). That is the paper's whole cost model, and the only
/// scoring surface an implementation writes.
///
/// **Row contract:** the score of row `e` depends on `(q, e)` alone —
/// never on its neighbours, the range it arrived in, the other queries of
/// its block, or which primitive computed it — so any partition of
/// `0..|E|` through `score_rows`, any block through
/// [`KgcModel::score_rows_block`] and any candidate list through
/// `score_gathered` yield the same bits per entity. Shard, thread, block,
/// node and full-vs-sampled parity all rest on this.
pub trait KgcModel: Send + Sync {
    /// Human-readable model name (e.g. `"ComplEx"`).
    fn name(&self) -> &'static str;

    /// Embedding dimensionality (reported in experiment logs).
    fn dim(&self) -> usize;

    /// Number of entities.
    fn num_entities(&self) -> usize;

    /// Number of relations.
    fn num_relations(&self) -> usize;

    /// Storage precision of the entity table on the scoring path. Exact
    /// f32 for every trainable model; [`crate::QuantizedModel`] overrides
    /// this so serving surfaces can report what a model actually runs at.
    fn precision(&self) -> crate::kernels::Precision {
        crate::kernels::Precision::F32
    }

    /// Length of a prepared query, in floats.
    fn query_len(&self) -> usize;

    /// Prepare `triple`'s query on `side` into `q`
    /// (`q.len() == query_len()`): everything the row primitives need that
    /// does not depend on the candidate.
    fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]);

    /// Scores of the contiguous entity range `rows` against the prepared
    /// query `q`; `out.len() == rows.len()`.
    fn score_rows(&self, q: &[f32], rows: Range<usize>, out: &mut [f32]);

    /// [`KgcModel::score_rows`] for a block of prepared queries (`qs`,
    /// `query_len()` floats each, back to back) into `out`, query-major:
    /// `out[i * rows.len()..(i + 1) * rows.len()]` is query `i`'s row, with
    /// the bits `score_rows` gives it. A family that can score the rows
    /// once for several queries (a register-blocked kernel) overrides it.
    fn score_rows_block(&self, qs: &[f32], rows: Range<usize>, out: &mut [f32]) {
        let len = self.query_len();
        for (i, out) in out.chunks_exact_mut(rows.len().max(1)).enumerate() {
            self.score_rows(&qs[i * len..(i + 1) * len], rows.clone(), out);
        }
    }

    /// Scores of the gathered `candidates` against the prepared query `q`;
    /// `out.len() == candidates.len()`.
    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]);

    /// Score a single triple (its tail query against its own tail).
    fn score(&self, h: EntityId, r: RelationId, t: EntityId) -> f32 {
        let mut out = [0.0f32];
        self.score_candidates(
            Triple { head: h, relation: r, tail: t },
            QuerySide::Tail,
            &[t],
            &mut out,
        );
        out[0]
    }

    /// Scores of a candidate subset answering `triple`'s query on `side`.
    fn score_candidates(
        &self,
        triple: Triple,
        side: QuerySide,
        candidates: &[EntityId],
        out: &mut [f32],
    ) {
        self.score_gathered(&prepared_query(self, triple, side), candidates, out);
    }

    /// Scores of every entity answering `triple`'s query on `side`;
    /// `out.len() == num_entities()`. The reference row tests compare the
    /// streamed engine against; ranking itself goes through
    /// [`crate::engine`], which never materialises it.
    fn score_all(&self, triple: Triple, side: QuerySide, out: &mut [f32]) {
        self.score_rows(&prepared_query(self, triple, side), 0..self.num_entities(), out);
    }
}

/// The prepared query for `(triple, side)` in a fresh buffer. Callers that
/// score many rows build it here once and share it read-only.
pub(crate) fn prepared_query<M: KgcModel + ?Sized>(
    model: &M,
    triple: Triple,
    side: QuerySide,
) -> Vec<f32> {
    let mut q = vec![0.0f32; model.query_len()];
    model.build_query(triple, side, &mut q);
    q
}

/// A model that can take gradient steps.
///
/// Training is organised in *query groups*: a positive triple, a query side,
/// and a candidate list filling that side's slot (the true answer plus
/// sampled negatives). `coeffs[i] = ∂loss/∂score(candidates[i])`; the model
/// applies one Adagrad step for the group. Grouping lets models share the
/// query-side computation (crucial for TuckER's core contraction and ConvE's
/// convolution) and fold per-candidate gradients into a single rank-1 update.
pub trait TrainableModel: KgcModel {
    /// Scores of the group's candidates (same semantics as
    /// [`KgcModel::score_candidates`], but may cache query intermediates).
    fn score_group(&self, pos: Triple, side: QuerySide, candidates: &[EntityId], out: &mut [f32]) {
        self.score_candidates(pos, side, candidates, out);
    }

    /// Apply one Adagrad step for the group.
    fn step_group(
        &mut self,
        pos: Triple,
        side: QuerySide,
        candidates: &[EntityId],
        coeffs: &[f32],
        lr: f32,
    );

    /// Every parameter table, borrowed, in a model-defined stable order:
    /// what [`crate::io`] writes, with the lengths
    /// [`crate::ModelKind::table_lens`] predicts.
    fn param_tables(&self) -> Vec<&[f32]>;

    /// [`TrainableModel::param_tables`], writable: what a snapshot load
    /// reads into.
    fn param_tables_mut(&mut self) -> Vec<&mut [f32]>;
}

/// Implements `param_tables`/`param_tables_mut` over a fixed list of
/// embedding-table fields.
#[macro_export]
macro_rules! impl_persistence_tables {
    ($($field:ident),+ $(,)?) => {
        fn param_tables(&self) -> Vec<&[f32]> {
            vec![$(self.$field.as_slice()),+]
        }

        fn param_tables_mut(&mut self) -> Vec<&mut [f32]> {
            vec![$(self.$field.as_mut_slice()),+]
        }
    };
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by every model's tests.
    //!
    //! `step_group` with a single candidate and coefficient 1 performs an
    //! Adagrad step with gradient `g = ∂score/∂θ`. On a fresh model the
    //! first Adagrad step is `−lr · g / (|g| + eps)`, i.e. `−lr · sign(g)`,
    //! which only reveals the gradient's sign. To check magnitudes we
    //! instead verify the *loss decrease* property: stepping with
    //! `coeff = −1` (gradient ascent on the score) must increase the score,
    //! and stepping with `coeff = +1` must decrease it, for every model and
    //! both query sides.

    use super::*;

    /// Assert that `step_group` moves the score in the expected direction.
    pub fn assert_step_direction<M: TrainableModel>(model: &mut M, pos: Triple, side: QuerySide) {
        let answer = side.answer(pos);
        let before = model.score(pos.head, pos.relation, pos.tail);
        // coeff −1 = ascend the score.
        model.step_group(pos, side, &[answer], &[-1.0], 0.05);
        let up = model.score(pos.head, pos.relation, pos.tail);
        assert!(
            up > before,
            "{}: ascent step did not increase score ({} -> {})",
            model.name(),
            before,
            up
        );
        // Several descent steps must bring it back down.
        for _ in 0..5 {
            model.step_group(pos, side, &[answer], &[1.0], 0.05);
        }
        let down = model.score(pos.head, pos.relation, pos.tail);
        assert!(
            down < up,
            "{}: descent steps did not decrease score ({} -> {})",
            model.name(),
            up,
            down
        );
    }

    /// Assert the row primitives agree with `score` on every entity.
    ///
    /// Models using reciprocal relations for head queries (ConvE) should use
    /// [`assert_scorers_consistent_recip`] instead: their head query is
    /// *deliberately* a different function than `score(·, r, t)`.
    #[allow(clippy::needless_range_loop)] // symmetric/dual-index loop
    pub fn assert_scorers_consistent<M: KgcModel>(model: &M, r: RelationId) {
        let n = model.num_entities();
        let mut heads = vec![0.0f32; n];
        let query = Triple { head: EntityId(0), relation: r, tail: EntityId((n - 1) as u32) };
        model.score_all(query, QuerySide::Head, &mut heads);
        for e in 0..n {
            let sh = model.score(EntityId(e as u32), r, query.tail);
            assert!(
                (heads[e] - sh).abs() < 1e-3,
                "{}: head row[{e}] = {} but score = {}",
                model.name(),
                heads[e],
                sh
            );
        }
        assert_scorers_consistent_recip(model, r);
    }

    /// Scorer consistency for reciprocal-relation models: on both sides the
    /// gathered primitive must return the range primitive's bits. (The tail
    /// side is `score` by definition; the head side evaluates the inverse
    /// relation, so it is only checked against itself.)
    pub fn assert_scorers_consistent_recip<M: KgcModel>(model: &M, r: RelationId) {
        let n = model.num_entities();
        let query = Triple { head: EntityId(0), relation: r, tail: EntityId((n - 1) as u32) };
        let cands: Vec<EntityId> = (0..n as u32).step_by(2).map(EntityId).collect();
        for side in QuerySide::BOTH {
            let mut row = vec![0.0f32; n];
            model.score_all(query, side, &mut row);
            let mut out = vec![0.0f32; cands.len()];
            model.score_candidates(query, side, &cands, &mut out);
            for (i, &c) in cands.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    row[c.index()].to_bits(),
                    "{}: {side:?} candidate scorer disagrees at {c:?}",
                    model.name()
                );
            }
        }
    }
}
