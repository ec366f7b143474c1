//! Inference-only serving wrapper over a quantized entity table.
//!
//! [`QuantizedModel`] rebuilds a trained snapshot with its entity table
//! stored at reduced precision ([`Precision::F16`] or [`Precision::Int8`])
//! while relation parameters stay exact f32 (they are tiny next to the
//! entity table and participate in query construction, where precision is
//! cheapest to keep). Scoring runs the dequantize-free kernels in
//! [`crate::kernels::quant`]; query vectors are built from the *quantized*
//! context row so a model is self-consistent — the same representation of
//! an entity is used whether it appears as context or candidate.
//!
//! Quantization is never silent: construction fails for model families
//! whose scoring path cannot honour the documented accuracy budget
//! (TuckER's core contraction and ConvE's convolution amplify per-dimension
//! error in ways the affine bound does not cover), and
//! [`KgcModel::precision`] reports what the model actually runs at.

use std::ops::Range;

use kg_core::triple::QuerySide;
use kg_core::{EntityId, KgError, RelationId, Triple};

use crate::factory::ModelKind;
use crate::io::ModelSnapshot;
use crate::kernels::{Combine, Precision, QuantizedTable};
use crate::model::KgcModel;
use crate::{ComplEx, DistMult, Rescal, RotatE, TransE};

/// A trained model re-materialised for serving with quantized entity
/// storage. Built from a [`ModelSnapshot`] via
/// [`QuantizedModel::from_snapshot`]; supports the full scoring surface
/// but not training.
pub struct QuantizedModel {
    kind: ModelKind,
    dim: usize,
    num_relations: usize,
    entities: QuantizedTable,
    /// Relation parameters, flat f32 rows of width [`Self::rel_stride`].
    relations: Vec<f32>,
    /// Row width of `relations`: `dim` for TransE/DistMult/ComplEx,
    /// `dim²` for RESCAL matrices, `dim/2` for RotatE phases.
    rel_stride: usize,
}

impl QuantizedModel {
    /// Quantize a snapshot's entity table to `precision`.
    ///
    /// Errors when `precision` is [`Precision::F32`] (nothing to do — load
    /// the exact model instead), when the family has no quantized scoring
    /// path (TuckER, ConvE), or when the snapshot's tables do not have the
    /// shape the family declares.
    pub fn from_snapshot(snapshot: &ModelSnapshot, precision: Precision) -> Result<Self, KgError> {
        let fail = |msg: String| KgError::InvalidInput(format!("quantized load: {msg}"));
        if !precision.is_quantized() {
            return Err(fail("precision f32 is not a quantized representation".into()));
        }
        let kind = snapshot.kind;
        let dim = snapshot.dim;
        let rel_stride = match kind {
            ModelKind::TransE | ModelKind::DistMult | ModelKind::ComplEx => dim,
            ModelKind::Rescal => dim * dim,
            ModelKind::RotatE => dim / 2,
            ModelKind::TuckEr | ModelKind::ConvE => {
                return Err(fail(format!(
                    "{} has no quantized scoring path; serve it at f32",
                    kind.name()
                )));
            }
        };
        if dim == 0 {
            return Err(fail("snapshot has dim 0".into()));
        }
        if snapshot.tables.len() < 2 {
            return Err(fail(format!(
                "{} snapshot needs entity + relation tables, got {}",
                kind.name(),
                snapshot.tables.len()
            )));
        }
        let ents = &snapshot.tables[0];
        let rels = &snapshot.tables[1];
        if ents.len() != snapshot.num_entities * dim {
            return Err(fail(format!(
                "entity table length {} != {} entities × dim {dim}",
                ents.len(),
                snapshot.num_entities
            )));
        }
        if rels.len() != snapshot.num_relations * rel_stride {
            return Err(fail(format!(
                "relation table length {} != {} relations × stride {rel_stride}",
                rels.len(),
                snapshot.num_relations
            )));
        }
        Ok(QuantizedModel {
            kind,
            dim,
            num_relations: snapshot.num_relations,
            entities: QuantizedTable::from_rows(ents, dim, precision),
            relations: rels.clone(),
            rel_stride,
        })
    }

    /// The model family this snapshot came from.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Bytes held by the quantized entity table (for capacity planning).
    pub fn entity_table_bytes(&self) -> usize {
        self.entities.bytes()
    }

    /// Distance/similarity op the family's range kernel uses.
    fn combine(&self) -> Combine {
        match self.kind {
            ModelKind::TransE => Combine::NegL1,
            _ => Combine::Dot,
        }
    }

    fn relation(&self, r: RelationId) -> &[f32] {
        let i = r.index();
        &self.relations[i * self.rel_stride..(i + 1) * self.rel_stride]
    }
}

impl KgcModel for QuantizedModel {
    fn name(&self) -> &'static str {
        self.kind.name()
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

    fn precision(&self) -> Precision {
        self.entities.precision()
    }

    fn query_len(&self) -> usize {
        self.dim
    }

    /// The family's query builder over the *dequantized* context row.
    fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
        let mut ctx = vec![0.0f32; self.dim];
        self.entities.dequantize_row(side.context(triple).index(), &mut ctx);
        let re = self.relation(triple.relation);
        match (self.kind, side) {
            (ModelKind::TransE, QuerySide::Tail) => TransE::tail_query_into(&ctx, re, q),
            (ModelKind::TransE, QuerySide::Head) => TransE::head_query_into(&ctx, re, q),
            (ModelKind::DistMult, _) => DistMult::query_into(&ctx, re, q),
            (ModelKind::ComplEx, QuerySide::Tail) => ComplEx::tail_query_into(&ctx, re, q),
            (ModelKind::ComplEx, QuerySide::Head) => ComplEx::head_query_into(&ctx, re, q),
            (ModelKind::Rescal, QuerySide::Tail) => Rescal::tail_query_into(&ctx, re, q),
            (ModelKind::Rescal, QuerySide::Head) => Rescal::head_query_into(&ctx, re, q),
            (ModelKind::RotatE, QuerySide::Tail) => RotatE::tail_query_into(&ctx, re, q),
            (ModelKind::RotatE, QuerySide::Head) => RotatE::head_query_into(&ctx, re, q),
            (ModelKind::TuckEr | ModelKind::ConvE, _) => unreachable!("rejected at construction"),
        }
    }

    fn score_rows(&self, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
        if self.kind == ModelKind::RotatE {
            // RotatE's modulus distance has no affine-fused kernel; score
            // row-by-row over dequantized candidates.
            let mut row = vec![0.0f32; self.dim];
            for (o, e) in out.iter_mut().zip(rows) {
                self.entities.dequantize_row(e, &mut row);
                *o = RotatE::mod_distance_slices(q, &row);
            }
        } else {
            self.entities.combine_range(self.combine(), q, rows, out);
        }
    }

    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        if self.kind == ModelKind::RotatE {
            let mut row = vec![0.0f32; self.dim];
            for (o, &c) in out.iter_mut().zip(candidates) {
                self.entities.dequantize_row(c.index(), &mut row);
                *o = RotatE::mod_distance_slices(q, &row);
            }
        } else {
            let op = self.combine();
            for (o, &c) in out.iter_mut().zip(candidates) {
                *o = self.entities.combine_one(op, q, c.index());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::build_model;
    use crate::io::snapshot_model;

    fn snapshot_for(kind: ModelKind, dim: usize) -> ModelSnapshot {
        let model = build_model(kind, 10, 3, dim, 99);
        snapshot_model(model.as_ref(), kind).unwrap()
    }

    const QUANT_KINDS: [ModelKind; 5] = [
        ModelKind::TransE,
        ModelKind::DistMult,
        ModelKind::ComplEx,
        ModelKind::Rescal,
        ModelKind::RotatE,
    ];

    #[test]
    fn quantized_tracks_f32_scores_within_budget() {
        for kind in QUANT_KINDS {
            let dim = if kind == ModelKind::Rescal { 8 } else { 12 };
            let snap = snapshot_for(kind, dim);
            let exact = crate::io::model_from_snapshot(&snap).unwrap();
            for precision in [Precision::F16, Precision::Int8] {
                let quant = QuantizedModel::from_snapshot(&snap, precision).unwrap();
                assert_eq!(quant.precision(), precision);
                assert_eq!(quant.name(), exact.name());
                let n = quant.num_entities();
                let mut want = vec![0.0f32; n];
                let mut got = vec![0.0f32; n];
                let query = Triple::new(3, 1, 0);
                exact.score_all(query, QuerySide::Tail, &mut want);
                quant.score_all(query, QuerySide::Tail, &mut got);
                // Embeddings here are O(1); affine int8 error per dim is
                // ≤ scale/2 ≈ range/510, so a loose absolute budget holds.
                let tol = if precision == Precision::F16 { 5e-3 } else { 5e-2 };
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= tol * (1.0 + w.abs()),
                        "{} {}: {g} vs {w}",
                        kind.name(),
                        precision.name()
                    );
                }
            }
        }
    }

    #[test]
    fn range_and_candidate_scorers_match_full_pass() {
        for kind in QUANT_KINDS {
            let dim = if kind == ModelKind::Rescal { 8 } else { 12 };
            let snap = snapshot_for(kind, dim);
            let quant = QuantizedModel::from_snapshot(&snap, Precision::Int8).unwrap();
            let n = quant.num_entities();
            let mut full = vec![0.0f32; n];
            let query = Triple::new(0, 0, 7);
            quant.score_all(query, QuerySide::Head, &mut full);
            let mut q = vec![0.0f32; quant.query_len()];
            quant.build_query(query, QuerySide::Head, &mut q);
            let mut part = vec![0.0f32; 4];
            quant.score_rows(&q, 3..7, &mut part);
            assert_eq!(&part, &full[3..7], "{}: range ≠ full slice", kind.name());
            let cands = [EntityId(8), EntityId(0), EntityId(5)];
            let mut cs = vec![0.0f32; 3];
            quant.score_gathered(&q, &cands, &mut cs);
            for (i, &c) in cands.iter().enumerate() {
                assert_eq!(cs[i], full[c.index()], "{}: candidate ≠ full", kind.name());
            }
            // score() agrees with the tail row.
            quant.score_all(Triple::new(2, 2, 0), QuerySide::Tail, &mut full);
            let one = quant.score(EntityId(2), RelationId(2), EntityId(9));
            assert_eq!(one, full[9]);
        }
    }

    #[test]
    fn unsupported_families_and_precisions_are_rejected() {
        let snap = snapshot_for(ModelKind::TuckEr, 8);
        assert!(QuantizedModel::from_snapshot(&snap, Precision::Int8).is_err());
        let snap = snapshot_for(ModelKind::ConvE, 16);
        assert!(QuantizedModel::from_snapshot(&snap, Precision::F16).is_err());
        let snap = snapshot_for(ModelKind::TransE, 8);
        assert!(QuantizedModel::from_snapshot(&snap, Precision::F32).is_err());
    }
}
