//! L-WD and L-WD-T — the paper's Algorithm 1.
//!
//! 1. Build the binary incidence matrix `B ∈ {0,1}^{|E| × 2|R|}` (a 1 where
//!    an entity was seen as head/tail of a relation); L-WD-T appends `|T|`
//!    type columns.
//! 2. Co-occurrence: `W = BᵀB`.
//! 3. Normalise `W` row-wise (rows become ARM-confidence distributions).
//! 4. Scores: `X = B·W`, restricted to the `2|R|` domain/range columns.
//!
//! Parameter-free, CPU-only, two sparse matrix products — the properties
//! Table 1 credits it with. Intuitively `W` is the adjacency matrix of a
//! global graph over domains/ranges (Figure 2); an entity inherits the
//! outgoing confidence mass of every domain/range it participates in.
//!
//! Step 4 is one pass that never holds `X`: `ScoreMatrix::propagate`
//! accumulates each entity's row in `spgemm`'s order and writes its
//! `2|R|` domain/range cells straight into the column-major score matrix,
//! bit for bit what the sparse product would hold. `W` is small
//! (`(2|R| + |T|)²`), so it stays a sparse product; only the `|E|`-row side
//! is streamed. WD ([`crate::wd`]) shares the incidence matrix and the pass.

use kg_core::sparse::{row_normalize_l1, spgemm, transpose, CooBuilder, CsrMatrix};
use kg_datasets::Dataset;

use crate::recommender::{RecommenderCriteria, RelationRecommender};
use crate::score_matrix::ScoreMatrix;

/// The linear Wikidata-property-suggester recommender.
#[derive(Clone, Copy, Debug)]
pub struct Lwd {
    use_types: bool,
}

impl Lwd {
    /// Structure-only L-WD.
    pub fn untyped() -> Self {
        Lwd { use_types: false }
    }

    /// L-WD-T: type memberships become additional incidence columns.
    pub fn typed() -> Self {
        Lwd { use_types: true }
    }
}

impl RelationRecommender for Lwd {
    fn name(&self) -> &'static str {
        if self.use_types {
            "L-WD-T"
        } else {
            "L-WD"
        }
    }

    fn criteria(&self) -> RecommenderCriteria {
        RecommenderCriteria {
            scalable_cpu: true,
            parameter_free: true,
            supports_unseen: true,
            type_free: !self.use_types,
            inductive: true,
        }
    }

    fn needs_types(&self) -> bool {
        self.use_types
    }

    fn fit(&self, dataset: &Dataset) -> ScoreMatrix {
        let b = incidence(dataset, self.use_types);
        // Steps 2–3: W = BᵀB, row-normalised.
        let mut w = spgemm(&transpose(&b), &b);
        row_normalize_l1(&mut w);
        // Step 4: X = B·W on the 2|R| domain/range columns.
        ScoreMatrix::propagate(&b, &w, dataset.num_relations(), |x, _| x)
    }
}

/// Step 1: the binary incidence matrix `B` — `|E|` rows; columns are the
/// `|R|` domains, the `|R|` ranges, then (with `use_types`) the `|T|`
/// types. Shared with WD.
pub(crate) fn incidence(dataset: &Dataset, use_types: bool) -> CsrMatrix {
    let ne = dataset.num_entities();
    let nr = dataset.num_relations();
    let nt = if use_types { dataset.types.num_types() } else { 0 };
    let mut b = CooBuilder::with_capacity(ne, 2 * nr + nt, dataset.train.len() * 2);
    for r in 0..nr {
        let rel = kg_core::RelationId(r as u32);
        for ec in dataset.train.heads_of(rel) {
            b.push(ec.entity.index(), r, 1.0);
        }
        for ec in dataset.train.tails_of(rel) {
            b.push(ec.entity.index(), nr + r, 1.0);
        }
    }
    if use_types {
        for e in 0..ne {
            for &ty in dataset.types.types_of(kg_core::EntityId(e as u32)) {
                b.push(e, 2 * nr + ty.index(), 1.0);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::{DrColumn, EntityId, RelationId, Triple, TypeAssignment, TypeId};

    /// Bill/Melinda-style toy graph (Figure 2): two people linked by
    /// `divorcedWith` (r0), both born in a location (`bornIn`, r1).
    fn dataset() -> Dataset {
        let train = vec![
            Triple::new(0, 0, 1), // A divorcedWith B
            Triple::new(0, 1, 2), // A bornIn L1
            Triple::new(1, 1, 3), // B bornIn L2
        ];
        Dataset::new("lwd-test", train, vec![], vec![], TypeAssignment::empty(4), None, 4, 2)
    }

    #[test]
    fn unseen_candidates_get_positive_scores() {
        let m = Lwd::untyped().fit(&dataset());
        // Entity 1 was never a head of bornIn... it was (1,1,3). Entity 0 was
        // never a *tail* of divorcedWith — but it co-occurs (head of r0,
        // head of r1) with the tail-of-r0 column through entity 1's profile?
        // The key property: some entity gets a nonzero score in a column it
        // was never observed in.
        let mut found_unseen_positive = false;
        for c in 0..m.num_columns() {
            let col = DrColumn(c as u32);
            let (es, _) = m.column(col);
            for &e in es {
                let seen = dataset().train.triples().iter().any(|t| {
                    (c < 2 && t.relation.0 as usize == c && t.head.0 == e)
                        || (c >= 2 && t.relation.0 as usize == c - 2 && t.tail.0 == e)
                });
                if !seen {
                    found_unseen_positive = true;
                }
            }
        }
        assert!(found_unseen_positive, "L-WD must generalise beyond PT's support");
    }

    #[test]
    fn seen_members_score_high() {
        let m = Lwd::untyped().fit(&dataset());
        // Entity 0 (seen head of both relations) must outscore entity 3
        // (only ever a tail of bornIn) in the domain of divorcedWith.
        let dom = DrColumn::domain(RelationId(0));
        assert!(m.score(0, dom) > m.score(3, dom));
    }

    #[test]
    fn disconnected_entities_score_zero() {
        // Entity 9 participates in nothing: zero row in B ⇒ zero scores.
        let train = vec![Triple::new(0, 0, 1)];
        let d = Dataset::new("z", train, vec![], vec![], TypeAssignment::empty(10), None, 10, 1);
        let m = Lwd::untyped().fit(&d);
        for c in 0..m.num_columns() {
            assert_eq!(m.score(9, DrColumn(c as u32)), 0.0);
        }
        assert!(m.zero_cells() > 0);
    }

    #[test]
    fn typed_variant_uses_types_to_connect() {
        // Entities 2 and 3 share a type; only 2 is seen as tail of r0.
        let train = vec![Triple::new(0, 0, 2)];
        let types = TypeAssignment::from_pairs(
            vec![(EntityId(2), TypeId(0)), (EntityId(3), TypeId(0))],
            4,
            1,
        );
        let d = Dataset::new("t", train, vec![], vec![], types, None, 4, 1);
        let untyped = Lwd::untyped().fit(&d);
        let typed = Lwd::typed().fit(&d);
        let rng = DrColumn::range(RelationId(0), 1);
        assert_eq!(untyped.score(3, rng), 0.0, "untyped L-WD cannot reach 3");
        assert!(typed.score(3, rng) > 0.0, "L-WD-T reaches 3 through the shared type");
    }

    #[test]
    fn matrix_dimensions() {
        let m = Lwd::untyped().fit(&dataset());
        assert_eq!(m.num_entities(), 4);
        assert_eq!(m.num_relations(), 2);
        assert_eq!(m.num_columns(), 4);
    }
}
