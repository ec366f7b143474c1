//! Triples `(head, relation, tail)` — the atoms of a knowledge graph.

use crate::ids::{EntityId, RelationId};

/// A directed, labelled edge `(h, r, t)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Triple {
    /// Head (subject) entity.
    pub head: EntityId,
    /// Relation (predicate).
    pub relation: RelationId,
    /// Tail (object) entity.
    pub tail: EntityId,
}

impl Triple {
    /// Construct a triple from raw indices.
    #[inline]
    pub fn new(h: u32, r: u32, t: u32) -> Self {
        Triple { head: EntityId(h), relation: RelationId(r), tail: EntityId(t) }
    }

    /// `(head, relation)` pair, the key of a tail query.
    #[inline]
    pub fn hr(self) -> (EntityId, RelationId) {
        (self.head, self.relation)
    }

    /// `(relation, tail)` pair, the key of a head query.
    #[inline]
    pub fn rt(self) -> (RelationId, EntityId) {
        (self.relation, self.tail)
    }
}

/// Which side of a triple a ranking query predicts.
///
/// Standard KGC evaluation issues both a tail query `(h, r, ?)` and a head
/// query `(?, r, t)` per test triple.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum QuerySide {
    /// Predict the tail: candidates come from the *range* of `r`.
    Tail,
    /// Predict the head: candidates come from the *domain* of `r`.
    Head,
}

impl QuerySide {
    /// Both query sides, in the order the paper evaluates them.
    pub const BOTH: [QuerySide; 2] = [QuerySide::Tail, QuerySide::Head];

    /// The entity being predicted for `triple` on this side.
    #[inline]
    pub fn answer(self, triple: Triple) -> EntityId {
        match self {
            QuerySide::Tail => triple.tail,
            QuerySide::Head => triple.head,
        }
    }

    /// The fixed (context) entity of the query.
    #[inline]
    pub fn context(self, triple: Triple) -> EntityId {
        match self {
            QuerySide::Tail => triple.head,
            QuerySide::Head => triple.tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Triple::new(1, 2, 3);
        assert_eq!(t.head, EntityId(1));
        assert_eq!(t.relation, RelationId(2));
        assert_eq!(t.tail, EntityId(3));
        assert_eq!(t.hr(), (EntityId(1), RelationId(2)));
        assert_eq!(t.rt(), (RelationId(2), EntityId(3)));
    }

    #[test]
    fn query_side_answer_and_context() {
        let t = Triple::new(10, 0, 20);
        assert_eq!(QuerySide::Tail.answer(t), EntityId(20));
        assert_eq!(QuerySide::Tail.context(t), EntityId(10));
        assert_eq!(QuerySide::Head.answer(t), EntityId(10));
        assert_eq!(QuerySide::Head.context(t), EntityId(20));
    }

    #[test]
    fn triples_order_lexicographically() {
        let a = Triple::new(0, 1, 5);
        let b = Triple::new(0, 2, 0);
        let c = Triple::new(1, 0, 0);
        assert!(a < b && b < c);
    }
}
