//! Live graphs: streaming triple deltas over a frozen snapshot.
//!
//! Everything below the serving layer evaluates against a [`FilterIndex`]
//! built once at load time. A live graph absorbs inserts and deletes
//! without that rebuild: a [`LiveFilterIndex`] keeps the loaded snapshot as
//! an immutable *base*, and every query key a delta has touched **owns**
//! its complete sorted answer list together with the graph version that
//! last changed it. A known-answer query is one lookup that falls through
//! to the base; it borrows either way. Applying a [`GraphDelta`] is
//! copy-on-write: it produces a *new* `LiveFilterIndex` that shares the
//! base and every list the delta did not change by `Arc`, so readers
//! holding the previous index are never blocked or disturbed — the same
//! atomic-flip discipline the serving registry uses for hot model reloads.
//! The touched keys live in persistent hash tries, so the new index copies
//! only the trie nodes above the keys the delta changes: a write costs
//! O(delta · log keys), not the graph's history.
//!
//! [`LiveGraph`] wraps the flip: a writer applies deltas one at a time
//! under a mutex, while readers take a snapshot (one brief `RwLock` read,
//! never held across scoring work).
//!
//! **The invariant**: every owned list is sorted and duplicate-free, and
//! the tail-keyed and head-keyed lists describe one triple set. Hence the
//! contract that makes this safe to serve: a live index with any sequence
//! of deltas applied answers `contains` / `known_answers` identically to a
//! [`FilterIndex`] rebuilt from scratch over the final triple set
//! ([`LiveFilterIndex::rebuilt`] pins it; proptests hold ranking output
//! byte-identical across all model families).
//!
//! **Cache validity.** A write touches no cache. A cached result carries
//! the version `v` of the snapshot its reader held when it asked, and is
//! served to a reader holding snapshot `s` iff `v ≤ s.version()` and no
//! key it read has [`LiveFilterIndex::answers_changed_at`] `> v` in `s` —
//! a pure function of the immutable snapshot the reader already holds.
//! Why that is exact: the result was computed on some snapshot `p ≥ v`, so
//! it reflects every change `≤ p`; it is served only if its keys did not
//! change in `(v, s]`, so it equals the answer at `max(p, s)` — a version
//! the graph carried between the reader taking `s` and getting its reply.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::ids::{EntityId, RelationId};
use crate::index::FilterIndex;
use crate::trie::HashTrie;
use crate::triple::{QuerySide, Triple};

/// A batch of writes against a live graph.
///
/// Within one delta, inserts are applied first, then deletes — so a triple
/// named in both ends up absent. Duplicates and no-ops (inserting a triple
/// already present, deleting one that is not) are skipped silently; the
/// effective counts come back in [`ApplyOutcome`].
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    /// Triples to add to the known-true set.
    pub insert: Vec<Triple>,
    /// Triples to remove from the known-true set.
    pub delete: Vec<Triple>,
}

impl GraphDelta {
    /// Delta inserting `insert` and deleting `delete`.
    pub fn new(insert: Vec<Triple>, delete: Vec<Triple>) -> Self {
        GraphDelta { insert, delete }
    }

    /// Whether the delta names no triples at all.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }
}

/// What applying a delta did.
#[derive(Clone, Debug)]
pub struct ApplyOutcome {
    /// Graph version after the apply (unchanged if the delta was a no-op).
    pub version: u64,
    /// Triples actually added (requested inserts minus no-ops).
    pub inserted: usize,
    /// Triples actually removed (requested deletes minus no-ops).
    pub deleted: usize,
    /// Distinct known-true triples after the apply.
    pub len: usize,
}

impl ApplyOutcome {
    /// Whether the delta changed the graph at all.
    pub fn changed(&self) -> bool {
        self.inserted + self.deleted > 0
    }
}

/// A touched key's complete sorted answer list and the graph version of
/// the last delta that changed it.
#[derive(Clone, Debug)]
struct Owned {
    answers: Arc<[EntityId]>,
    changed_at: u64,
}

/// The touched keys of one direction (tail keys or head keys).
type Overlay<K> = HashTrie<K, Owned>;

/// Sorted `answers` with sorted `changes` applied — `(e, true)` adds an
/// absent `e`, `(e, false)` removes a present one — built in the reusable
/// `scratch` and allocated once.
fn edited(
    scratch: &mut Vec<EntityId>,
    answers: &[EntityId],
    changes: impl IntoIterator<Item = (EntityId, bool)>,
) -> Arc<[EntityId]> {
    scratch.clear();
    let mut rest = answers;
    for (e, add) in changes {
        let at = rest.partition_point(|&x| x < e);
        scratch.extend_from_slice(&rest[..at]);
        if add {
            scratch.push(e);
            rest = &rest[at..];
        } else {
            rest = &rest[at + 1..];
        }
    }
    scratch.extend_from_slice(rest);
    Arc::from(&scratch[..])
}

/// A delta-aware known-triple index: a frozen base snapshot plus, for each
/// key a delta has touched, that key's own answer list — answering the
/// same filtered-ranking queries as [`FilterIndex`].
///
/// Invariant (maintained by [`LiveFilterIndex::apply`]): every owned list
/// is sorted and duplicate-free, and the tail-keyed and head-keyed maps
/// describe the same triple set. A key stays owned once touched, even when
/// its list equals the base's again: its `changed_at` is what lets a cache
/// tell a result from before the round trip from one after it (see the
/// module docs for the validity rule).
#[derive(Clone, Debug)]
pub struct LiveFilterIndex {
    base: Arc<FilterIndex>,
    tails: Overlay<(EntityId, RelationId)>,
    heads: Overlay<(RelationId, EntityId)>,
    version: u64,
    len: usize,
}

impl LiveFilterIndex {
    /// Version-0 live view of a frozen snapshot (no key touched).
    pub fn from_base(base: Arc<FilterIndex>) -> Self {
        let len = base.len();
        LiveFilterIndex {
            base,
            tails: Overlay::default(),
            heads: Overlay::default(),
            version: 0,
            len,
        }
    }

    /// The frozen snapshot this view overlays.
    pub fn base(&self) -> &Arc<FilterIndex> {
        &self.base
    }

    /// Graph version this index reflects (0 = pristine snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Distinct known-true triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no triple is known.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All known-true tails for `(h, r, ?)`, sorted.
    pub fn known_tails(&self, h: EntityId, r: RelationId) -> &[EntityId] {
        match self.tails.get(&(h, r)) {
            Some(owned) => &owned.answers,
            None => self.base.known_tails(h, r),
        }
    }

    /// All known-true heads for `(?, r, t)`, sorted.
    pub fn known_heads(&self, r: RelationId, t: EntityId) -> &[EntityId] {
        match self.heads.get(&(r, t)) {
            Some(owned) => &owned.answers,
            None => self.base.known_heads(r, t),
        }
    }

    /// Known answers for `triple`'s query on `side`, sorted. Always
    /// borrowed; the `Cow` is what [`KnownIndex`] promises its callers.
    pub fn known_answers(&self, triple: Triple, side: QuerySide) -> Cow<'_, [EntityId]> {
        Cow::Borrowed(match side {
            QuerySide::Tail => self.known_tails(triple.head, triple.relation),
            QuerySide::Head => self.known_heads(triple.relation, triple.tail),
        })
    }

    /// The graph version of the last delta that changed the known answers
    /// of `triple`'s query on `side`; 0 for a key no delta has touched. A
    /// result that read this key at version `v` is still exact on this
    /// index iff this is `≤ v` (and `v ≤` [`LiveFilterIndex::version`]).
    pub fn answers_changed_at(&self, triple: Triple, side: QuerySide) -> u64 {
        let owned = match side {
            QuerySide::Tail => self.tails.get(&triple.hr()),
            QuerySide::Head => self.heads.get(&triple.rt()),
        };
        owned.map_or(0, |o| o.changed_at)
    }

    /// Whether `(h, r, t)` is known true.
    pub fn contains(&self, t: Triple) -> bool {
        self.known_tails(t.head, t.relation).binary_search(&t.tail).is_ok()
    }

    /// Whether `e` answers `triple`'s query on `side` truthfully.
    pub fn is_true_answer(&self, triple: Triple, side: QuerySide, e: EntityId) -> bool {
        self.known_answers(triple, side).binary_search(&e).is_ok()
    }

    /// Visit every known-true triple (order unspecified).
    pub fn for_each_triple(&self, mut f: impl FnMut(Triple)) {
        self.base.for_each_triple(|t| {
            if self.tails.get(&t.hr()).is_none() {
                f(t);
            }
        });
        self.tails.for_each(|&(h, r), owned| {
            for &t in owned.answers.iter() {
                f(Triple { head: h, relation: r, tail: t });
            }
        });
    }

    /// A [`FilterIndex`] over exactly this index's triple set — the
    /// compaction path, and the reference the parity tests compare
    /// against.
    pub fn rebuilt(&self) -> FilterIndex {
        let mut triples = Vec::with_capacity(self.len);
        self.for_each_triple(|t| triples.push(t));
        FilterIndex::from_slices(&[&triples])
    }

    /// This index with `delta` applied (inserts first, then deletes), and
    /// what changed — in one pass grouped by key. The operations are
    /// sorted by triple, so each tail key's operations are contiguous and
    /// each triple's inserts precede its deletes; which of them take effect
    /// is decided against that key's one list, and the key's new list is
    /// built once at the new version, in the same walk of the trie. The
    /// head-keyed lists are built the same way from the operations that
    /// took effect. The base and every other list are shared — `self` is
    /// untouched, so readers holding it are undisturbed.
    pub fn apply(&self, delta: &GraphDelta) -> (LiveFilterIndex, ApplyOutcome) {
        let mut ops = Vec::with_capacity(delta.insert.len() + delta.delete.len());
        ops.extend(delta.insert.iter().map(|&t| (t, true)));
        ops.extend(delta.delete.iter().map(|&t| (t, false)));
        // Stable, so a triple's inserts stay before its deletes.
        ops.sort_by_key(|&(t, _)| t);
        // Any key stamped below is stamped by an effective operation, which
        // makes this the new version.
        let stamp = self.version + 1;
        let mut next = self.clone();
        let mut scratch = Vec::new();
        // Triples an operation took effect on, with the membership change
        // (`None` when an insert and a delete of an absent triple cancel).
        let mut effective: Vec<(Triple, Option<bool>)> = Vec::with_capacity(ops.len());
        let (mut inserted, mut deleted) = (0usize, 0usize);
        for key_ops in ops.chunk_by(|a, b| a.0.hr() == b.0.hr()) {
            let (h, r) = key_ops[0].0.hr();
            next.tails.update((h, r), |owned| {
                let answers = owned.map_or_else(|| self.base.known_tails(h, r), |o| &o.answers);
                let first = effective.len();
                for triple_ops in key_ops.chunk_by(|a, b| a.0 == b.0) {
                    let t = triple_ops[0].0;
                    let present = answers.binary_search(&t.tail).is_ok();
                    let insert = triple_ops[0].1 && !present;
                    let delete = !triple_ops[triple_ops.len() - 1].1 && (present || insert);
                    inserted += usize::from(insert);
                    deleted += usize::from(delete);
                    if insert || delete {
                        effective.push((t, (insert != delete).then_some(insert)));
                    }
                }
                let changes = effective[first..].iter().filter_map(|&(t, c)| Some((t.tail, c?)));
                let touched = effective.len() > first;
                touched.then(|| Owned {
                    answers: edited(&mut scratch, answers, changes),
                    changed_at: stamp,
                })
            });
        }
        effective.sort_unstable_by_key(|&(t, _)| (t.relation, t.tail, t.head));
        for key_effects in effective.chunk_by(|a, b| a.0.rt() == b.0.rt()) {
            let (r, t) = key_effects[0].0.rt();
            let changes = key_effects.iter().filter_map(|&(t, c)| Some((t.head, c?)));
            next.heads.update((r, t), |owned| {
                let answers = owned.map_or_else(|| self.base.known_heads(r, t), |o| &o.answers);
                Some(Owned { answers: edited(&mut scratch, answers, changes), changed_at: stamp })
            });
        }
        next.version += u64::from(inserted + deleted > 0);
        next.len = self.len + inserted - deleted;
        let outcome = ApplyOutcome { version: next.version, inserted, deleted, len: next.len };
        (next, outcome)
    }
}

/// Queries a filtered-ranking pass needs from a known-triple index,
/// abstracting over [`FilterIndex`] and [`LiveFilterIndex`] (both borrow).
pub trait KnownIndex: Sync {
    /// Known answers for `triple`'s query on `side`, sorted ascending.
    fn known_answers(&self, triple: Triple, side: QuerySide) -> Cow<'_, [EntityId]>;

    /// Whether `t` is a known-true triple.
    fn contains(&self, t: Triple) -> bool;
}

impl KnownIndex for FilterIndex {
    fn known_answers(&self, triple: Triple, side: QuerySide) -> Cow<'_, [EntityId]> {
        Cow::Borrowed(FilterIndex::known_answers(self, triple, side))
    }

    fn contains(&self, t: Triple) -> bool {
        FilterIndex::contains(self, t)
    }
}

impl KnownIndex for LiveFilterIndex {
    fn known_answers(&self, triple: Triple, side: QuerySide) -> Cow<'_, [EntityId]> {
        LiveFilterIndex::known_answers(self, triple, side)
    }

    fn contains(&self, t: Triple) -> bool {
        LiveFilterIndex::contains(self, t)
    }
}

/// The shared live graph: one writer at a time applies deltas
/// copy-on-write, readers snapshot the current [`LiveFilterIndex`] with a
/// brief read lock and keep scoring against their `Arc` while the world
/// moves on — the registry's atomic-flip discipline, applied to the
/// known-triple index.
#[derive(Debug)]
pub struct LiveGraph {
    current: RwLock<Arc<LiveFilterIndex>>,
    // Mirrors `current.version` so version probes never take the RwLock.
    version: AtomicU64,
    writer: Mutex<()>,
}

impl LiveGraph {
    /// Live graph over a frozen snapshot, at version 0.
    pub fn new(base: Arc<FilterIndex>) -> Self {
        LiveGraph {
            current: RwLock::new(Arc::new(LiveFilterIndex::from_base(base))),
            version: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The current index. Cheap; hold the returned `Arc` for the whole
    /// request so one request sees one graph version throughout.
    pub fn snapshot(&self) -> Arc<LiveFilterIndex> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Current graph version without touching the lock.
    pub fn version(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store in `apply` — a
        // reader that observes version N also observes the index flip that
        // published it.
        self.version.load(Ordering::Acquire)
    }

    /// Apply `delta`: build the next index off-lock, then flip. Serialised
    /// against other writers; readers are never blocked for longer than
    /// the pointer swap.
    pub fn apply(&self, delta: &GraphDelta) -> ApplyOutcome {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let snap = self.snapshot();
        let (next, outcome) = snap.apply(delta);
        if outcome.changed() {
            let next = Arc::new(next);
            let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
            *cur = next;
            // ORDERING: Release pairs with the Acquire load in `version` —
            // publishing the new version number happens-after the pointer
            // swap above, so `version()` can never run ahead of `snapshot()`.
            self.version.store(outcome.version, Ordering::Release);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Arc<FilterIndex> {
        let triples = vec![
            Triple::new(0, 0, 1),
            Triple::new(0, 0, 2),
            Triple::new(3, 1, 1),
            Triple::new(2, 0, 0),
        ];
        Arc::new(FilterIndex::from_slices(&[&triples]))
    }

    #[test]
    fn pristine_view_borrows_base() {
        let base = base();
        let live = LiveFilterIndex::from_base(Arc::clone(&base));
        assert_eq!(live.version(), 0);
        assert_eq!(live.len(), 4);
        let tails = live.known_tails(EntityId(0), RelationId(0));
        assert!(std::ptr::eq(tails, base.known_tails(EntityId(0), RelationId(0))));
        assert_eq!(tails, &[EntityId(1), EntityId(2)]);
    }

    #[test]
    fn insert_and_delete_update_queries_both_ways() {
        let live = LiveFilterIndex::from_base(base());
        let delta = GraphDelta::new(
            vec![Triple::new(0, 0, 5)], // new tail for (0,0)
            vec![Triple::new(0, 0, 1)], // drop a base triple
        );
        let (next, out) = live.apply(&delta);
        assert_eq!((out.inserted, out.deleted), (1, 1));
        assert_eq!(out.version, 1);
        assert_eq!(next.len(), 4);
        assert_eq!(next.known_tails(EntityId(0), RelationId(0)), &[EntityId(2), EntityId(5)]);
        // Head direction reflects the same writes.
        assert_eq!(next.known_heads(RelationId(0), EntityId(5)), &[EntityId(0)]);
        assert_eq!(next.known_heads(RelationId(0), EntityId(1)), &[]);
        assert!(next.contains(Triple::new(0, 0, 5)));
        assert!(!next.contains(Triple::new(0, 0, 1)));
        // The original view is untouched (copy-on-write).
        assert!(live.contains(Triple::new(0, 0, 1)));
        assert!(!live.contains(Triple::new(0, 0, 5)));
    }

    #[test]
    fn noops_do_not_bump_version() {
        let live = LiveFilterIndex::from_base(base());
        let delta = GraphDelta::new(
            vec![Triple::new(0, 0, 1)], // already present
            vec![Triple::new(9, 9, 9)], // never present
        );
        let (next, out) = live.apply(&delta);
        assert!(!out.changed());
        assert_eq!(out.version, 0);
        for side in QuerySide::BOTH {
            assert_eq!(next.answers_changed_at(Triple::new(0, 0, 1), side), 0);
        }
        assert_eq!(next.len(), live.len());
    }

    #[test]
    fn insert_then_delete_in_one_delta_ends_absent() {
        let live = LiveFilterIndex::from_base(base());
        let t = Triple::new(7, 1, 7);
        let (next, out) = live.apply(&GraphDelta::new(vec![t], vec![t]));
        assert!(!next.contains(t));
        assert_eq!((out.inserted, out.deleted), (1, 1));
        // add+delete cancel: the key answers exactly the base list again.
        assert_eq!(next.known_tails(EntityId(7), RelationId(1)), &[]);
        assert_eq!(next.known_heads(RelationId(1), EntityId(7)), &[]);
        assert_eq!(next.len(), live.len());
    }

    #[test]
    fn reinsert_of_deleted_base_triple_undeletes() {
        let live = LiveFilterIndex::from_base(base());
        let t = Triple::new(0, 0, 1);
        let (gone, _) = live.apply(&GraphDelta::new(vec![], vec![t]));
        assert!(!gone.contains(t));
        let (back, out) = gone.apply(&GraphDelta::new(vec![t], vec![]));
        assert!(back.contains(t));
        assert_eq!(out.version, 2);
        // The key answers exactly the base list again, both ways …
        assert_eq!(
            back.known_tails(EntityId(0), RelationId(0)),
            live.known_tails(EntityId(0), RelationId(0))
        );
        assert_eq!(
            back.known_heads(RelationId(0), EntityId(1)),
            live.known_heads(RelationId(0), EntityId(1))
        );
        assert_eq!(back.len(), live.len());
        // … and still says when it last changed: a result cached between
        // the delete and the reinsert must not be served after it.
        assert_eq!(back.answers_changed_at(t, QuerySide::Tail), 2);
    }

    #[test]
    fn answers_changed_at_reports_touched_queries_only() {
        let live = LiveFilterIndex::from_base(base());
        let (v1, _) = live.apply(&GraphDelta::new(vec![Triple::new(0, 0, 5)], vec![]));
        assert_eq!(v1.answers_changed_at(Triple::new(0, 0, 9), QuerySide::Tail), 1);
        assert_eq!(v1.answers_changed_at(Triple::new(9, 0, 5), QuerySide::Head), 1);
        assert_eq!(v1.answers_changed_at(Triple::new(3, 1, 9), QuerySide::Tail), 0);
        assert_eq!(v1.answers_changed_at(Triple::new(0, 0, 9), QuerySide::Head), 0);
        // A later delta on another key leaves the stamp alone; a no-op
        // naming the key does too; an effective one moves it.
        let (v2, _) = v1.apply(&GraphDelta::new(
            vec![Triple::new(3, 1, 7), Triple::new(0, 0, 5)],
            vec![Triple::new(0, 0, 8)],
        ));
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.answers_changed_at(Triple::new(0, 0, 9), QuerySide::Tail), 1);
        assert_eq!(v2.answers_changed_at(Triple::new(3, 1, 9), QuerySide::Tail), 2);
        let (v3, _) = v2.apply(&GraphDelta::new(vec![], vec![Triple::new(0, 0, 5)]));
        assert_eq!(v3.answers_changed_at(Triple::new(0, 0, 9), QuerySide::Tail), 3);
        // The snapshots before it are immutable, stamps included.
        assert_eq!(v2.answers_changed_at(Triple::new(0, 0, 9), QuerySide::Tail), 1);
    }

    #[test]
    fn rebuilt_matches_live_view() {
        let live = LiveFilterIndex::from_base(base());
        let (next, _) = live.apply(&GraphDelta::new(
            vec![Triple::new(0, 0, 5), Triple::new(8, 1, 0)],
            vec![Triple::new(2, 0, 0), Triple::new(3, 1, 1)],
        ));
        let rebuilt = next.rebuilt();
        assert_eq!(rebuilt.len(), next.len());
        for (h, r) in [(0u32, 0u32), (2, 0), (3, 1), (8, 1)] {
            let t = Triple::new(h, r, 0);
            assert_eq!(
                rebuilt.known_tails(t.head, t.relation),
                next.known_tails(t.head, t.relation),
                "tails of ({h},{r})"
            );
        }
    }

    #[test]
    fn live_graph_flips_and_keeps_old_snapshots_alive() {
        let lg = LiveGraph::new(base());
        let before = lg.snapshot();
        let out = lg.apply(&GraphDelta::new(vec![Triple::new(5, 0, 5)], vec![]));
        assert_eq!(out.version, 1);
        assert_eq!(lg.version(), 1);
        let after = lg.snapshot();
        assert!(!before.contains(Triple::new(5, 0, 5)), "old snapshot must be immutable");
        assert!(after.contains(Triple::new(5, 0, 5)));
        assert_eq!(before.version(), 0);
    }

    #[test]
    fn known_index_trait_agrees_across_implementations() {
        let frozen = base();
        let live = LiveFilterIndex::from_base(Arc::clone(&frozen));
        let t = Triple::new(0, 0, 1);
        for side in QuerySide::BOTH {
            let a = KnownIndex::known_answers(frozen.as_ref(), t, side);
            let b = KnownIndex::known_answers(&live, t, side);
            assert_eq!(&*a, &*b);
        }
        assert!(KnownIndex::contains(frozen.as_ref(), t));
        assert!(KnownIndex::contains(&live, t));
    }
}
