//! The `Dataset` bundle: splits, type assignments, filter index.

use kg_core::{FilterIndex, Triple, TripleStore, TypeAssignment};

use crate::schema::KgSchema;

/// A benchmark dataset: train store, held-out splits, entity types, and the
/// filter index over *all* splits (the filtered-ranking protocol removes
/// every known-true triple, whichever split it came from).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name (e.g. `"fb15k237-sim"`).
    pub name: String,
    /// Training triples, indexed.
    pub train: TripleStore,
    /// Validation triples.
    pub valid: Vec<Triple>,
    /// Test triples.
    pub test: Vec<Triple>,
    /// Entity → types multi-map (may be empty for untyped graphs).
    pub types: TypeAssignment,
    /// The generating ontology, when the dataset is synthetic.
    pub schema: Option<KgSchema>,
    /// Filter index over train ∪ valid ∪ test.
    pub filter: FilterIndex,
}

impl Dataset {
    /// Assemble a dataset, building the triple store and filter index.
    #[allow(clippy::too_many_arguments)] // a constructor enumerating the parts
    pub fn new(
        name: impl Into<String>,
        train: Vec<Triple>,
        valid: Vec<Triple>,
        test: Vec<Triple>,
        types: TypeAssignment,
        schema: Option<KgSchema>,
        num_entities: usize,
        num_relations: usize,
    ) -> Self {
        let filter = FilterIndex::from_slices(&[&train, &valid, &test]);
        let train = TripleStore::from_triples(train, num_entities, num_relations);
        Dataset { name: name.into(), train, valid, test, types, schema, filter }
    }

    /// Number of entities in the universe.
    pub fn num_entities(&self) -> usize {
        self.train.num_entities()
    }

    /// Number of relation types.
    pub fn num_relations(&self) -> usize {
        self.train.num_relations()
    }

    /// Total triples across all splits.
    pub fn num_triples(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            "tiny",
            vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)],
            vec![Triple::new(2, 0, 3)],
            vec![Triple::new(3, 0, 4)],
            TypeAssignment::empty(5),
            None,
            5,
            1,
        )
    }

    #[test]
    fn counts() {
        let d = tiny();
        assert_eq!(d.num_entities(), 5);
        assert_eq!(d.num_relations(), 1);
        assert_eq!(d.num_triples(), 4);
        assert_eq!(d.train.len(), 2);
    }

    #[test]
    fn filter_covers_all_splits() {
        let d = tiny();
        assert!(d.filter.contains(Triple::new(0, 0, 1))); // train
        assert!(d.filter.contains(Triple::new(2, 0, 3))); // valid
        assert!(d.filter.contains(Triple::new(3, 0, 4))); // test
        assert!(!d.filter.contains(Triple::new(4, 0, 0)));
    }
}
