//! Filter index for *filtered* ranking evaluation.
//!
//! The standard KGC protocol ranks the true answer against all candidates
//! *except* other entities known to form true triples (in train ∪ valid ∪
//! test). This index answers `known tails of (h, r)` and `known heads of
//! (r, t)` in O(1) expected time.

use crate::fxhash::FxHashMap;
use crate::ids::{EntityId, RelationId};
use crate::triple::{QuerySide, Triple};

/// Hash index of all known-true triples, keyed both ways.
#[derive(Clone, Debug, Default)]
pub struct FilterIndex {
    tails_of: FxHashMap<(EntityId, RelationId), Vec<EntityId>>,
    heads_of: FxHashMap<(RelationId, EntityId), Vec<EntityId>>,
    len: usize,
}

impl FilterIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from one or more triple slices (typically train, valid, test).
    pub fn from_slices(slices: &[&[Triple]]) -> Self {
        let mut idx = Self::new();
        for s in slices {
            for &t in *s {
                idx.insert(t);
            }
        }
        idx.finish();
        idx
    }

    /// Insert a triple (duplicates across slices are deduplicated by
    /// [`FilterIndex::finish`]).
    pub fn insert(&mut self, t: Triple) {
        self.tails_of.entry((t.head, t.relation)).or_default().push(t.tail);
        self.heads_of.entry((t.relation, t.tail)).or_default().push(t.head);
        self.len += 1;
    }

    /// Sort and deduplicate the answer lists. Must be called after the last
    /// `insert` and before queries; `from_slices` does so automatically.
    pub fn finish(&mut self) {
        let mut removed = 0usize;
        for v in self.tails_of.values_mut() {
            let before = v.len();
            v.sort_unstable();
            v.dedup();
            removed += before - v.len();
        }
        for v in self.heads_of.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        self.len -= removed;
    }

    /// Number of distinct triples indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All known-true tails for the query `(h, r, ?)`, sorted.
    #[inline]
    pub fn known_tails(&self, h: EntityId, r: RelationId) -> &[EntityId] {
        self.tails_of.get(&(h, r)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All known-true heads for the query `(?, r, t)`, sorted.
    #[inline]
    pub fn known_heads(&self, r: RelationId, t: EntityId) -> &[EntityId] {
        self.heads_of.get(&(r, t)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Known answers for `triple`'s query on `side` (tails for tail queries,
    /// heads for head queries), sorted.
    #[inline]
    pub fn known_answers(&self, triple: Triple, side: QuerySide) -> &[EntityId] {
        match side {
            QuerySide::Tail => self.known_tails(triple.head, triple.relation),
            QuerySide::Head => self.known_heads(triple.relation, triple.tail),
        }
    }

    /// Whether `(h, r, t)` is a known-true triple.
    #[inline]
    pub fn contains(&self, t: Triple) -> bool {
        self.known_tails(t.head, t.relation).binary_search(&t.tail).is_ok()
    }

    /// Whether `e` answers `triple`'s query on `side` truthfully.
    #[inline]
    pub fn is_true_answer(&self, triple: Triple, side: QuerySide, e: EntityId) -> bool {
        self.known_answers(triple, side).binary_search(&e).is_ok()
    }

    /// Visit every distinct indexed triple (iteration order unspecified).
    /// Only meaningful after [`FilterIndex::finish`].
    pub fn for_each_triple(&self, mut f: impl FnMut(Triple)) {
        for (&(h, r), tails) in &self.tails_of {
            for &t in tails {
                f(Triple { head: h, relation: r, tail: t });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> FilterIndex {
        let train = vec![Triple::new(0, 0, 1), Triple::new(0, 0, 2), Triple::new(3, 1, 1)];
        let test = vec![Triple::new(0, 0, 4), Triple::new(0, 0, 1)]; // one dup with train
        FilterIndex::from_slices(&[&train, &test])
    }

    #[test]
    fn known_tails_sorted_and_deduped() {
        let idx = index();
        assert_eq!(
            idx.known_tails(EntityId(0), RelationId(0)),
            &[EntityId(1), EntityId(2), EntityId(4)]
        );
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn known_heads() {
        let idx = index();
        assert_eq!(idx.known_heads(RelationId(0), EntityId(1)), &[EntityId(0)]);
        assert_eq!(idx.known_heads(RelationId(1), EntityId(1)), &[EntityId(3)]);
        assert_eq!(idx.known_heads(RelationId(1), EntityId(9)), &[]);
    }

    #[test]
    fn contains_and_true_answer() {
        let idx = index();
        assert!(idx.contains(Triple::new(0, 0, 4)));
        assert!(!idx.contains(Triple::new(4, 0, 0)));
        let t = Triple::new(0, 0, 1);
        assert!(idx.is_true_answer(t, QuerySide::Tail, EntityId(2)));
        assert!(!idx.is_true_answer(t, QuerySide::Tail, EntityId(3)));
        assert!(idx.is_true_answer(t, QuerySide::Head, EntityId(0)));
    }

    #[test]
    fn known_answers_dispatches_by_side() {
        let idx = index();
        let t = Triple::new(0, 0, 1);
        assert_eq!(idx.known_answers(t, QuerySide::Tail).len(), 3);
        assert_eq!(idx.known_answers(t, QuerySide::Head), &[EntityId(0)]);
    }

    #[test]
    fn empty_index() {
        let idx = FilterIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.known_tails(EntityId(0), RelationId(0)), &[]);
    }
}
