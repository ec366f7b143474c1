//! Immutable triple store with per-relation adjacency.
//!
//! Triples are deduplicated and stored sorted by `(relation, head, tail)`;
//! per-relation slices plus per-relation unique head/tail lists (with
//! occurrence counts) are precomputed because every relation recommender in
//! the paper consumes exactly those views: PT needs the unique head/tail
//! sets, DBH needs the occurrence counts, L-WD needs the binary incidence.

use crate::ids::{EntityId, RelationId};
use crate::triple::Triple;

/// An entity together with how many times it occurred in a slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EntityCount {
    /// The entity.
    pub entity: EntityId,
    /// Number of triples of the relation in which it filled the slot.
    pub count: u32,
}

/// Immutable, indexed set of triples.
#[derive(Clone, Debug)]
pub struct TripleStore {
    num_entities: usize,
    num_relations: usize,
    /// All triples, sorted by `(relation, head, tail)`, deduplicated.
    triples: Vec<Triple>,
    /// `rel_offsets[r]..rel_offsets[r+1]` indexes `triples` for relation `r`.
    rel_offsets: Vec<usize>,
    /// Unique heads per relation (sorted), flattened.
    heads: Vec<EntityCount>,
    head_offsets: Vec<usize>,
    /// Unique tails per relation (sorted), flattened.
    tails: Vec<EntityCount>,
    tail_offsets: Vec<usize>,
    /// Total degree (as head + as tail) per entity.
    degree: Vec<u32>,
}

impl TripleStore {
    /// Build a store from raw triples. Triples referencing out-of-range
    /// entities/relations panic in debug builds and are the caller's
    /// responsibility; duplicates are removed.
    pub fn from_triples(
        mut triples: Vec<Triple>,
        num_entities: usize,
        num_relations: usize,
    ) -> Self {
        triples.sort_unstable_by_key(|t| (t.relation, t.head, t.tail));
        triples.dedup();
        debug_assert!(triples.iter().all(|t| {
            t.head.index() < num_entities
                && t.tail.index() < num_entities
                && t.relation.index() < num_relations
        }));

        let mut rel_offsets = vec![0usize; num_relations + 1];
        for t in &triples {
            rel_offsets[t.relation.index() + 1] += 1;
        }
        for r in 0..num_relations {
            rel_offsets[r + 1] += rel_offsets[r];
        }

        let mut degree = vec![0u32; num_entities];
        for t in &triples {
            degree[t.head.index()] += 1;
            degree[t.tail.index()] += 1;
        }

        // Unique heads with counts, per relation. Triples are sorted by
        // (r, h, t) so heads group naturally; tails need a per-relation sort.
        let mut heads = Vec::new();
        let mut head_offsets = Vec::with_capacity(num_relations + 1);
        let mut tails = Vec::new();
        let mut tail_offsets = Vec::with_capacity(num_relations + 1);
        head_offsets.push(0);
        tail_offsets.push(0);
        let mut tail_buf: Vec<EntityId> = Vec::new();
        for r in 0..num_relations {
            let slice = &triples[rel_offsets[r]..rel_offsets[r + 1]];
            let mut i = 0;
            while i < slice.len() {
                let h = slice[i].head;
                let mut j = i + 1;
                while j < slice.len() && slice[j].head == h {
                    j += 1;
                }
                heads.push(EntityCount { entity: h, count: (j - i) as u32 });
                i = j;
            }
            head_offsets.push(heads.len());

            tail_buf.clear();
            tail_buf.extend(slice.iter().map(|t| t.tail));
            tail_buf.sort_unstable();
            let mut i = 0;
            while i < tail_buf.len() {
                let t = tail_buf[i];
                let mut j = i + 1;
                while j < tail_buf.len() && tail_buf[j] == t {
                    j += 1;
                }
                tails.push(EntityCount { entity: t, count: (j - i) as u32 });
                i = j;
            }
            tail_offsets.push(tails.len());
        }

        TripleStore {
            num_entities,
            num_relations,
            triples,
            rel_offsets,
            heads,
            head_offsets,
            tails,
            tail_offsets,
            degree,
        }
    }

    /// Number of entities in the universe (not just those with triples).
    #[inline]
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of relation types.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Number of (deduplicated) triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the store holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All triples, sorted by `(relation, head, tail)`.
    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Triples of relation `r`.
    #[inline]
    pub fn triples_of(&self, r: RelationId) -> &[Triple] {
        &self.triples[self.rel_offsets[r.index()]..self.rel_offsets[r.index() + 1]]
    }

    /// Unique heads (sorted) of relation `r` with occurrence counts — the
    /// pseudo-typed *domain* and the DBH head scores.
    #[inline]
    pub fn heads_of(&self, r: RelationId) -> &[EntityCount] {
        &self.heads[self.head_offsets[r.index()]..self.head_offsets[r.index() + 1]]
    }

    /// Unique tails (sorted) of relation `r` with occurrence counts — the
    /// pseudo-typed *range* and the DBH tail scores.
    #[inline]
    pub fn tails_of(&self, r: RelationId) -> &[EntityCount] {
        &self.tails[self.tail_offsets[r.index()]..self.tail_offsets[r.index() + 1]]
    }

    /// Whether the store contains `t` (binary search; prefer
    /// [`crate::FilterIndex`] for repeated membership queries).
    pub fn contains(&self, t: Triple) -> bool {
        self.triples_of(t.relation)
            .binary_search_by_key(&(t.head, t.tail), |x| (x.head, x.tail))
            .is_ok()
    }

    /// Total degree (head slots + tail slots) of an entity.
    #[inline]
    pub fn degree(&self, e: EntityId) -> u32 {
        self.degree[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        // 5 entities, 2 relations.
        let triples = vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 0, 2),
            Triple::new(3, 0, 1),
            Triple::new(1, 1, 4),
            Triple::new(0, 0, 1), // duplicate
        ];
        TripleStore::from_triples(triples, 5, 2)
    }

    #[test]
    fn dedup_and_counts() {
        let s = store();
        assert_eq!(s.len(), 4);
        assert_eq!(s.num_entities(), 5);
        assert_eq!(s.num_relations(), 2);
    }

    #[test]
    fn per_relation_slices() {
        let s = store();
        assert_eq!(s.triples_of(RelationId(0)).len(), 3);
        assert_eq!(s.triples_of(RelationId(1)).len(), 1);
        assert!(s.triples_of(RelationId(0)).iter().all(|t| t.relation == RelationId(0)));
    }

    #[test]
    fn unique_heads_and_tails_with_counts() {
        let s = store();
        let heads: Vec<_> = s.heads_of(RelationId(0)).to_vec();
        assert_eq!(
            heads,
            vec![
                EntityCount { entity: EntityId(0), count: 2 },
                EntityCount { entity: EntityId(3), count: 1 }
            ]
        );
        let tails: Vec<_> = s.tails_of(RelationId(0)).to_vec();
        assert_eq!(
            tails,
            vec![
                EntityCount { entity: EntityId(1), count: 2 },
                EntityCount { entity: EntityId(2), count: 1 }
            ]
        );
    }

    #[test]
    fn contains_checks_membership() {
        let s = store();
        assert!(s.contains(Triple::new(0, 0, 2)));
        assert!(!s.contains(Triple::new(2, 0, 0)));
        assert!(!s.contains(Triple::new(0, 1, 2)));
    }

    #[test]
    fn degrees() {
        let s = store();
        assert_eq!(s.degree(EntityId(0)), 2); // head of two triples
        assert_eq!(s.degree(EntityId(1)), 3); // tail twice + head once
        assert_eq!(s.degree(EntityId(2)), 1);
    }

    #[test]
    fn empty_store() {
        let s = TripleStore::from_triples(vec![], 3, 2);
        assert!(s.is_empty());
        assert_eq!(s.heads_of(RelationId(1)), &[]);
    }
}
