//! Per-column "seen" sets: which entities occurred in each domain/range in
//! a triple set. This is simultaneously the PT recommender's output, the
//! recall reference for static thresholding, and the union term of the
//! paper's CR-Test protocol ("we include the already seen entities").

use kg_core::{DrColumn, RelationId, Triple, TripleStore};

/// Sorted entity lists per domain/range column, built from training data.
#[derive(Clone, Debug)]
pub struct SeenSets {
    num_relations: usize,
    num_entities: usize,
    sets: Vec<Vec<u32>>,
}

impl SeenSets {
    /// Build from the training store (heads → domain, tails → range).
    pub fn from_store(store: &TripleStore) -> Self {
        let nr = store.num_relations();
        let mut sets = vec![Vec::new(); 2 * nr];
        for r in 0..nr {
            let rel = RelationId(r as u32);
            sets[r] = store.heads_of(rel).iter().map(|ec| ec.entity.0).collect();
            sets[nr + r] = store.tails_of(rel).iter().map(|ec| ec.entity.0).collect();
        }
        SeenSets { num_relations: nr, num_entities: store.num_entities(), sets }
    }

    /// Extend the seen sets with more triples (e.g. validation data, for the
    /// *Unseen* candidate-recall variant that excludes train ∪ valid).
    pub fn extend_with(&mut self, triples: &[Triple]) {
        for t in triples {
            self.sets[t.relation.index()].push(t.head.0);
            self.sets[self.num_relations + t.relation.index()].push(t.tail.0);
        }
        for s in &mut self.sets {
            s.sort_unstable();
            s.dedup();
        }
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Number of entities in the universe.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Sorted entities seen in column `c`.
    #[inline]
    pub fn column(&self, c: DrColumn) -> &[u32] {
        &self.sets[c.index()]
    }

    /// Whether `entity` was seen in column `c`.
    #[inline]
    pub fn contains(&self, entity: u32, c: DrColumn) -> bool {
        self.column(c).binary_search(&entity).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        TripleStore::from_triples(
            vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2), Triple::new(3, 1, 0)],
            4,
            2,
        )
    }

    #[test]
    fn heads_and_tails_split_into_columns() {
        let s = SeenSets::from_store(&store());
        assert_eq!(s.column(DrColumn(0)), &[0]); // heads of r0
        assert_eq!(s.column(DrColumn(2)), &[1, 2]); // tails of r0
        assert_eq!(s.column(DrColumn(1)), &[3]); // heads of r1
        assert_eq!(s.column(DrColumn(3)), &[0]); // tails of r1
    }

    #[test]
    fn contains_checks_membership() {
        let s = SeenSets::from_store(&store());
        assert!(s.contains(1, DrColumn(2)));
        assert!(!s.contains(3, DrColumn(2)));
    }

    #[test]
    fn extend_with_adds_valid_triples() {
        let mut s = SeenSets::from_store(&store());
        s.extend_with(&[Triple::new(2, 1, 3)]);
        assert!(s.contains(2, DrColumn(1)));
        assert!(s.contains(3, DrColumn(3)));
        // Still deduplicated.
        s.extend_with(&[Triple::new(2, 1, 3)]);
        assert_eq!(s.column(DrColumn(1)), &[2, 3]);
    }
}
