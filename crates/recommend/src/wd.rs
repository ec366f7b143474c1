//! WD — the original Wikidata Property Suggester scoring rule
//! (Abedjan & Naumann 2014, as evaluated by Zangerle et al. 2016).
//!
//! The paper derives L-WD from WD: *"Unlike WD, we do not use the average of
//! the squared confidence scores and do not use a minimum confidence
//! threshold"* (§3.1). This module implements the original rule so the
//! simplification can be ablated (`repro ablate-wd`):
//!
//! * co-occurrence confidences below `min_confidence` are dropped,
//! * an entity's score for a column is the **average of squared**
//!   confidences over its incident columns (L-WD *sums* raw confidences).
//!
//! It shares L-WD's incidence matrix and its one-pass propagation
//! (`ScoreMatrix::propagate`); the average is a division of each
//! accumulated cell by the entity's degree, applied as the cell is written.

use kg_core::sparse::{row_normalize_l1, spgemm, transpose, CooBuilder, CsrMatrix};
use kg_datasets::Dataset;

use crate::lwd::incidence;
use crate::recommender::{RecommenderCriteria, RelationRecommender};
use crate::score_matrix::ScoreMatrix;

/// The classic property-suggester recommender.
#[derive(Clone, Copy, Debug)]
pub struct Wd {
    /// Minimum ARM confidence; weaker associations are discarded.
    pub min_confidence: f32,
    /// Whether to append type columns (the WD deployment uses types).
    pub use_types: bool,
}

impl Default for Wd {
    fn default() -> Self {
        Wd { min_confidence: 0.01, use_types: false }
    }
}

impl Wd {
    /// Untyped WD with the given confidence threshold.
    pub fn with_threshold(min_confidence: f32) -> Self {
        Wd { min_confidence, use_types: false }
    }
}

impl RelationRecommender for Wd {
    fn name(&self) -> &'static str {
        if self.use_types {
            "WD-T"
        } else {
            "WD"
        }
    }

    fn criteria(&self) -> RecommenderCriteria {
        RecommenderCriteria {
            scalable_cpu: true,
            // The confidence threshold is a hyper-parameter — the exact
            // shortcoming L-WD removes.
            parameter_free: false,
            supports_unseen: true,
            type_free: !self.use_types,
            inductive: true,
        }
    }

    fn needs_types(&self) -> bool {
        self.use_types
    }

    fn fit(&self, dataset: &Dataset) -> ScoreMatrix {
        // Incidence matrix B, exactly as in L-WD.
        let b = incidence(dataset, self.use_types);

        // Confidence matrix, thresholded and squared.
        let mut w = spgemm(&transpose(&b), &b);
        row_normalize_l1(&mut w);
        let w = threshold_and_square(&w, self.min_confidence);

        // Average (not sum) of squared confidences: divide each entity's
        // cells by its number of incident columns.
        ScoreMatrix::propagate(&b, &w, dataset.num_relations(), |x, deg| x / deg as f32)
    }
}

/// Drop entries below `threshold` and square the survivors.
fn threshold_and_square(w: &CsrMatrix, threshold: f32) -> CsrMatrix {
    let mut out = CooBuilder::new(w.rows(), w.cols());
    for i in 0..w.rows() {
        let (idx, vals) = w.row(i);
        for (&j, &v) in idx.iter().zip(vals) {
            if v >= threshold {
                out.push(i, j as usize, v * v);
            }
        }
    }
    out.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lwd::Lwd;
    use kg_core::{DrColumn, RelationId, Triple, TypeAssignment};

    fn dataset() -> Dataset {
        let train = vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 1, 2),
            Triple::new(1, 1, 3),
            Triple::new(4, 0, 5),
            Triple::new(4, 1, 2),
        ];
        Dataset::new("wd-test", train, vec![], vec![], TypeAssignment::empty(6), None, 6, 2)
    }

    #[test]
    fn wd_produces_scores_on_seen_members() {
        let m = Wd::default().fit(&dataset());
        assert!(m.score(0, DrColumn::domain(RelationId(0))) > 0.0);
        assert!(m.score(4, DrColumn::domain(RelationId(0))) > 0.0);
        assert!(m.nnz() > 0);
    }

    #[test]
    fn high_threshold_prunes_weak_associations() {
        let low = Wd::with_threshold(0.0).fit(&dataset());
        let high = Wd::with_threshold(0.9).fit(&dataset());
        assert!(high.nnz() <= low.nnz(), "{} > {}", high.nnz(), low.nnz());
    }

    #[test]
    fn wd_scores_bounded_by_one() {
        // Averaged squared probabilities can never exceed 1.
        let m = Wd::default().fit(&dataset());
        for c in 0..m.num_columns() {
            let (_, ss) = m.column(DrColumn(c as u32));
            assert!(ss.iter().all(|&s| s <= 1.0 + 1e-6));
        }
    }

    #[test]
    fn lwd_support_is_superset_of_wd() {
        // Thresholding can only remove support relative to L-WD.
        let d = dataset();
        let wd = Wd::with_threshold(0.3).fit(&d);
        let lwd = Lwd::untyped().fit(&d);
        for c in 0..wd.num_columns() {
            let col = DrColumn(c as u32);
            for &e in wd.column(col).0 {
                assert!(lwd.score(e, col) > 0.0, "WD reached {e} where L-WD did not");
            }
        }
    }

    #[test]
    fn criteria_flag_parameterised() {
        assert!(!Wd::default().criteria().parameter_free);
        assert_eq!(Wd::default().name(), "WD");
    }
}
