//! Model factory: build any of the paper's seven models by name.

use kg_core::sample::seeded_rng;

use crate::model::TrainableModel;

/// Which KGC model to build (§5.2's model zoo).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelKind {
    /// TransE (translational, L1).
    TransE,
    /// DistMult (bilinear diagonal).
    DistMult,
    /// ComplEx (complex bilinear).
    ComplEx,
    /// RESCAL (full bilinear).
    Rescal,
    /// RotatE (complex rotation).
    RotatE,
    /// TuckER (core tensor).
    TuckEr,
    /// ConvE (2D convolution, reciprocal relations).
    ConvE,
}

impl ModelKind {
    /// All models, in the order the paper's tables list them.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::TransE,
        ModelKind::RotatE,
        ModelKind::Rescal,
        ModelKind::DistMult,
        ModelKind::ConvE,
        ModelKind::ComplEx,
        ModelKind::TuckEr,
    ];

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::TransE => "TransE",
            ModelKind::DistMult => "DistMult",
            ModelKind::ComplEx => "ComplEx",
            ModelKind::Rescal => "RESCAL",
            ModelKind::RotatE => "RotatE",
            ModelKind::TuckEr => "TuckER",
            ModelKind::ConvE => "ConvE",
        }
    }

    /// Parse a (case-insensitive) model name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "transe" => Some(ModelKind::TransE),
            "distmult" => Some(ModelKind::DistMult),
            "complex" => Some(ModelKind::ComplEx),
            "rescal" => Some(ModelKind::Rescal),
            "rotate" => Some(ModelKind::RotatE),
            "tucker" => Some(ModelKind::TuckEr),
            "conve" => Some(ModelKind::ConvE),
            _ => None,
        }
    }

    /// Default embedding dimension: smaller for the models whose per-step
    /// cost is super-linear in `d` (RESCAL's d², TuckER's d³).
    pub fn default_dim(self) -> usize {
        match self {
            ModelKind::Rescal | ModelKind::TuckEr => 16,
            _ => 32,
        }
    }

    /// The lengths of the parameter tables [`build_model`] allocates for
    /// this family at `ne` entities × `nr` relations × `dim`, in
    /// [`TrainableModel::param_tables`] order — or why the constructor
    /// would refuse that shape, or that its size overflows `usize`. A
    /// snapshot reader checks a header against this before allocating.
    pub fn table_lens(self, ne: usize, nr: usize, dim: usize) -> Result<Vec<usize>, String> {
        let name = self.name();
        if dim == 0 {
            return Err(format!("{name} needs a positive dimension"));
        }
        let even = |dim: usize| match dim.is_multiple_of(2) {
            true => Ok(dim),
            false => Err(format!("{name} needs an even dimension, got {dim}")),
        };
        let mul = |a: usize, b: usize| {
            a.checked_mul(b).ok_or_else(|| format!("{name} {ne}x{nr}x{dim} overflows usize"))
        };
        let entities = mul(ne, dim)?;
        Ok(match self {
            ModelKind::TransE | ModelKind::DistMult => vec![entities, mul(nr, dim)?],
            ModelKind::ComplEx => vec![entities, mul(nr, even(dim)?)?],
            ModelKind::Rescal => vec![entities, mul(nr, mul(dim, dim)?)?],
            ModelKind::RotatE => vec![entities, mul(nr, even(dim)? / 2)?],
            ModelKind::TuckEr => vec![entities, mul(nr, dim)?, mul(dim, mul(dim, dim)?)?],
            ModelKind::ConvE => crate::ConvE::table_lens(ne, nr, dim)?,
        })
    }
}

/// Build a freshly initialised model.
pub fn build_model(
    kind: ModelKind,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    seed: u64,
) -> Box<dyn TrainableModel> {
    let mut rng = seeded_rng(seed);
    match kind {
        ModelKind::TransE => {
            Box::new(crate::TransE::new(num_entities, num_relations, dim, &mut rng))
        }
        ModelKind::DistMult => {
            Box::new(crate::DistMult::new(num_entities, num_relations, dim, &mut rng))
        }
        ModelKind::ComplEx => {
            Box::new(crate::ComplEx::new(num_entities, num_relations, dim, &mut rng))
        }
        ModelKind::Rescal => {
            Box::new(crate::Rescal::new(num_entities, num_relations, dim, &mut rng))
        }
        ModelKind::RotatE => {
            Box::new(crate::RotatE::new(num_entities, num_relations, dim, &mut rng))
        }
        ModelKind::TuckEr => {
            Box::new(crate::TuckEr::new(num_entities, num_relations, dim, &mut rng))
        }
        ModelKind::ConvE => Box::new(crate::ConvE::new(num_entities, num_relations, dim, &mut rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::{EntityId, RelationId};

    #[test]
    fn parse_roundtrip() {
        for k in ModelKind::ALL {
            assert_eq!(ModelKind::parse(k.name()), Some(k));
        }
        assert_eq!(ModelKind::parse("nope"), None);
        assert_eq!(ModelKind::parse("COMPLEX"), Some(ModelKind::ComplEx));
    }

    #[test]
    fn build_all_models_and_score() {
        for k in ModelKind::ALL {
            let m = build_model(k, 12, 4, k.default_dim(), 3);
            assert_eq!(m.num_entities(), 12);
            assert_eq!(m.num_relations(), 4);
            assert_eq!(m.name(), k.name());
            let s = m.score(EntityId(1), RelationId(2), EntityId(5));
            assert!(s.is_finite(), "{} produced non-finite score", k.name());
        }
    }

    /// `table_lens` is what the reader trusts instead of building a model
    /// from an unchecked header, so it must predict every constructor.
    #[test]
    fn table_lens_match_what_build_model_allocates() {
        for kind in ModelKind::ALL {
            for (ne, nr, dim) in [(1, 1, 8), (9, 3, 12), (5, 2, 16), (0, 4, 8), (7, 0, 24)] {
                let model = build_model(kind, ne, nr, dim, 1);
                let built: Vec<usize> = model.param_tables().iter().map(|t| t.len()).collect();
                assert_eq!(
                    kind.table_lens(ne, nr, dim),
                    Ok(built),
                    "{} {ne}x{nr}x{dim}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn table_lens_refuse_what_the_constructors_refuse() {
        for kind in ModelKind::ALL {
            assert!(kind.table_lens(3, 2, 0).unwrap_err().contains("positive dimension"));
            assert!(kind.table_lens(usize::MAX / 2, 2, 8).unwrap_err().contains("overflows"));
        }
        for kind in [ModelKind::RotatE, ModelKind::ComplEx] {
            assert!(kind.table_lens(3, 2, 3).unwrap_err().contains("even dimension, got 3"));
        }
        assert!(ModelKind::ConvE.table_lens(3, 2, 5).unwrap_err().contains("multiple of 4"));
        assert!(ModelKind::ConvE.table_lens(3, 2, 4).unwrap_err().contains("too small"));
        assert!(ModelKind::TuckEr.table_lens(1, 1, 1 << 22).unwrap_err().contains("overflows"));
        assert!(ModelKind::TransE.table_lens(3, 2, 3).is_ok(), "odd dims are fine for TransE");
    }

    #[test]
    fn deterministic_construction() {
        let a = build_model(ModelKind::ComplEx, 10, 3, 8, 7);
        let b = build_model(ModelKind::ComplEx, 10, 3, 8, 7);
        assert_eq!(
            a.score(EntityId(0), RelationId(0), EntityId(1)),
            b.score(EntityId(0), RelationId(0), EntityId(1))
        );
    }
}
