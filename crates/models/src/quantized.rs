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
use crate::kernels::{Combine, Precision, QuantizedTable};
use crate::model::{KgcModel, TrainableModel};
use crate::{ComplEx, DistMult, Rescal, RotatE, TransE};

/// A trained model re-materialised for serving with quantized entity
/// storage. Built from an exact model's tables via
/// [`QuantizedModel::from_model`]; supports the full scoring surface but
/// not training.
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
    /// Quantize the entity table of `model`, a `kind`, to `precision`,
    /// reading its tables where they are.
    ///
    /// Errors when `precision` is [`Precision::F32`] (nothing to do — serve
    /// the exact model instead), when the family has no quantized scoring
    /// path (TuckER, ConvE), or when the model's tables do not have the
    /// shape `kind` declares.
    pub fn from_model(
        model: &dyn TrainableModel,
        kind: ModelKind,
        precision: Precision,
    ) -> Result<Self, KgError> {
        let fail = |msg: String| KgError::InvalidInput(format!("quantized load: {msg}"));
        if !precision.is_quantized() {
            return Err(fail("precision f32 is not a quantized representation".into()));
        }
        let dim = model.dim();
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
            return Err(fail("model has dim 0".into()));
        }
        let tables = model.param_tables();
        let &[ents, rels] = tables.as_slice() else {
            return Err(fail(format!(
                "{} needs entity + relation tables, got {}",
                kind.name(),
                tables.len()
            )));
        };
        let (num_entities, num_relations) = (model.num_entities(), model.num_relations());
        if ents.len() != num_entities * dim {
            return Err(fail(format!(
                "entity table length {} != {num_entities} entities × dim {dim}",
                ents.len()
            )));
        }
        if rels.len() != num_relations * rel_stride {
            return Err(fail(format!(
                "relation table length {} != {num_relations} relations × stride {rel_stride}",
                rels.len()
            )));
        }
        Ok(QuantizedModel {
            kind,
            dim,
            num_relations,
            entities: QuantizedTable::from_rows(ents, dim, precision),
            relations: rels.to_vec(),
            rel_stride,
        })
    }

    /// The model family this snapshot came from.
    pub fn kind(&self) -> ModelKind {
        self.kind
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

    fn model_for(kind: ModelKind, dim: usize) -> Box<dyn TrainableModel> {
        build_model(kind, 10, 3, dim, 99)
    }

    fn quantize(
        kind: ModelKind,
        dim: usize,
        precision: Precision,
    ) -> Result<QuantizedModel, KgError> {
        QuantizedModel::from_model(model_for(kind, dim).as_ref(), kind, precision)
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
            let exact = model_for(kind, dim);
            for precision in [Precision::F16, Precision::Int8] {
                let quant = QuantizedModel::from_model(exact.as_ref(), kind, precision).unwrap();
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
            let quant = quantize(kind, dim, Precision::Int8).unwrap();
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
        assert!(quantize(ModelKind::TuckEr, 8, Precision::Int8).is_err());
        assert!(quantize(ModelKind::ConvE, 16, Precision::F16).is_err());
        assert!(quantize(ModelKind::TransE, 8, Precision::F32).is_err());
        // A model quantized as a family it is not has the wrong tables.
        let rescal = model_for(ModelKind::Rescal, 8);
        assert!(QuantizedModel::from_model(rescal.as_ref(), ModelKind::DistMult, Precision::Int8)
            .is_err());
    }
}
