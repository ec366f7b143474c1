//! Filter index for *filtered* ranking evaluation.
//!
//! The standard KGC protocol ranks the true answer against all candidates
//! *except* other entities known to form true triples (in train ∪ valid ∪
//! test). This index answers `known tails of (h, r)` and `known heads of
//! (r, t)` in O(1) expected time.
//!
//! It is built once and never edited (a live graph overlays it; see
//! [`crate::live`]). Each side is therefore flat: one sorted, deduplicated
//! array of answers, and a map from a query key to its `(start, len)` run
//! in that array — a few words per key instead of a heap `Vec` per key.

use crate::fxhash::FxHashMap;
use crate::ids::{EntityId, RelationId};
use crate::triple::{QuerySide, Triple};

/// One side of the index: every key's answers as one run of `answers`.
#[derive(Clone, Debug)]
struct Runs<K> {
    /// Key → `(start, len)` of its run in `answers`.
    runs: FxHashMap<K, (u32, u32)>,
    /// All runs back to back, each sorted and duplicate-free.
    answers: Vec<EntityId>,
}

impl<K> Default for Runs<K> {
    fn default() -> Self {
        Runs { runs: FxHashMap::default(), answers: Vec::new() }
    }
}

impl<K: std::hash::Hash + Eq> Runs<K> {
    /// The runs of `sorted` (sorted by key, then answer, and deduplicated;
    /// fewer than 2^32 of them, so every offset fits a `u32`), split into
    /// `(key, answer)` by `split`.
    fn build(sorted: &[Triple], split: impl Fn(Triple) -> (K, EntityId)) -> Self {
        let keys = sorted.chunk_by(|a, b| split(*a).0 == split(*b).0);
        let mut runs =
            FxHashMap::with_capacity_and_hasher(keys.clone().count(), Default::default());
        let mut answers = Vec::with_capacity(sorted.len());
        for run in keys {
            runs.insert(split(run[0]).0, (answers.len() as u32, run.len() as u32));
            answers.extend(run.iter().map(|&t| split(t).1));
        }
        Runs { runs, answers }
    }

    /// The answers a `(start, len)` run spans.
    #[inline]
    fn run(&self, (start, len): (u32, u32)) -> &[EntityId] {
        &self.answers[start as usize..(start + len) as usize]
    }

    #[inline]
    fn get(&self, key: &K) -> &[EntityId] {
        self.runs.get(key).map_or(&[], |&span| self.run(span))
    }
}

/// Hash index of all known-true triples, keyed both ways.
#[derive(Clone, Debug, Default)]
pub struct FilterIndex {
    tails: Runs<(EntityId, RelationId)>,
    heads: Runs<(RelationId, EntityId)>,
}

impl FilterIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from one or more triple slices (typically train, valid, test);
    /// duplicates within and across slices count once. One copy of the
    /// triples is sorted twice — by `(h, r, t)` for the tail side, by
    /// `(r, t, h)` for the head side — and each order is cut into runs.
    pub fn from_slices(slices: &[&[Triple]]) -> Self {
        let mut triples = slices.concat();
        triples.sort_unstable();
        triples.dedup();
        assert!(u32::try_from(triples.len()).is_ok(), "FilterIndex holds fewer than 2^32 triples");
        let tails = Runs::build(&triples, |t| (t.hr(), t.tail));
        triples.sort_unstable_by_key(|t| (t.relation, t.tail, t.head));
        let heads = Runs::build(&triples, |t| (t.rt(), t.head));
        FilterIndex { tails, heads }
    }

    /// Number of distinct triples indexed.
    pub fn len(&self) -> usize {
        self.tails.answers.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All known-true tails for the query `(h, r, ?)`, sorted.
    #[inline]
    pub fn known_tails(&self, h: EntityId, r: RelationId) -> &[EntityId] {
        self.tails.get(&(h, r))
    }

    /// All known-true heads for the query `(?, r, t)`, sorted.
    #[inline]
    pub fn known_heads(&self, r: RelationId, t: EntityId) -> &[EntityId] {
        self.heads.get(&(r, t))
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
    pub fn for_each_triple(&self, mut f: impl FnMut(Triple)) {
        for (&(h, r), &span) in &self.tails.runs {
            for &t in self.tails.run(span) {
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
