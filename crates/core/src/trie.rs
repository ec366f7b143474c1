//! A persistent hash array-mapped trie: the map behind a live graph's
//! touched keys.
//!
//! Cloning a [`HashTrie`] copies one root `Arc`. A write copies only the
//! nodes on its key's path that an earlier clone still shares
//! (`Arc::make_mut`), so every earlier clone keeps answering exactly as it
//! did, and a write costs the depth of its keys, not the number of keys the
//! map holds.
//!
//! Nodes are 32-way. Each level indexes a key by the next five bits of its
//! Fx hash, the *top* bits first: Fx mixes its high bits well and its low
//! bits poorly. A node stores only its occupied slots, in index order
//! behind a bitmap, in one allocation. A slot holds a single entry inline,
//! a child node, or — only for keys whose full 64-bit hashes are equal — a
//! collision list.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::iter;
use std::mem;
use std::sync::Arc;

use crate::fxhash::FxHasher;

/// Hash bits consumed per level (32-way nodes).
const BITS: u32 = 5;

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// The slot index of `hash` at `depth`: bits `63 − 5d` down to `59 − 5d`.
/// Depth 12 takes the last four bits (plus bit 63 again), so two distinct
/// hashes part at depth 12 at the latest.
fn index(hash: u64, depth: u32) -> u32 {
    (hash.rotate_left(BITS * (depth + 1)) & 31) as u32
}

/// A persistent map from `K` to `V`: cheap to clone, copy-on-write below.
#[derive(Clone, Debug)]
pub(crate) struct HashTrie<K, V> {
    root: Node<K, V>,
}

#[derive(Clone, Debug)]
struct Node<K, V> {
    /// Bit `i` is set iff slot index `i` is occupied.
    bitmap: u32,
    /// The occupied slots, in index order.
    slots: Arc<[Slot<K, V>]>,
}

#[derive(Clone, Debug)]
enum Slot<K, V> {
    Leaf(K, V),
    Node(Node<K, V>),
    /// Two or more entries whose keys all have the full hash `.0`. Boxed,
    /// not shared: a path copy clones it deeply, which only a 64-bit hash
    /// collision ever costs.
    Collision(u64, Box<[(K, V)]>),
}

impl<K, V> Default for HashTrie<K, V> {
    fn default() -> Self {
        HashTrie { root: Node::default() }
    }
}

/// An empty collision slot. It allocates nothing and holds no `Arc`, so it
/// is the free placeholder a slot leaves behind when moved out of a node.
impl<K, V> Default for Slot<K, V> {
    fn default() -> Self {
        Slot::Collision(0, Box::default())
    }
}

impl<K, V> Default for Node<K, V> {
    fn default() -> Self {
        // An empty `Arc<[_]>` shares a static allocation.
        Node { bitmap: 0, slots: Arc::default() }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> HashTrie<K, V> {
    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let hash = hash_of(key);
        let mut node = &self.root;
        let mut depth = 0;
        loop {
            let bit = 1u32 << index(hash, depth);
            if node.bitmap & bit == 0 {
                return None;
            }
            match &node.slots[(node.bitmap & (bit - 1)).count_ones() as usize] {
                Slot::Node(child) => node = child,
                Slot::Leaf(k, v) => return (k == key).then_some(v),
                Slot::Collision(_, entries) => {
                    return entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                }
            }
            depth += 1;
        }
    }

    /// Store `f(the value under key)` under `key` when it returns `Some`:
    /// one walk, which copies the nodes above `key` that an earlier clone
    /// shares (whether or not `f` stores anything).
    pub(crate) fn update(&mut self, key: K, f: impl FnOnce(Option<&V>) -> Option<V>) {
        let hash = hash_of(&key);
        self.root.update(0, hash, key, f);
    }

    /// Visit every entry (order unspecified).
    pub(crate) fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        self.root.for_each(&mut f);
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Node<K, V> {
    fn update(&mut self, depth: u32, hash: u64, key: K, f: impl FnOnce(Option<&V>) -> Option<V>) {
        let bit = 1u32 << index(hash, depth);
        let pos = (self.bitmap & (bit - 1)).count_ones() as usize;
        if self.bitmap & bit == 0 {
            if let Some(value) = f(None) {
                self.bitmap |= bit;
                self.add_slot(pos, Slot::Leaf(key, value));
            }
            return;
        }
        let slot = &mut Arc::make_mut(&mut self.slots)[pos];
        let old_hash = match slot {
            Slot::Node(child) => return child.update(depth + 1, hash, key, f),
            Slot::Leaf(k, v) if *k == key => {
                if let Some(value) = f(Some(v)) {
                    *v = value;
                }
                return;
            }
            Slot::Leaf(k, _) => hash_of(k),
            Slot::Collision(h, entries) if *h == hash => {
                let at = entries.iter().position(|(k, _)| *k == key);
                if let Some(value) = f(at.map(|i| &entries[i].1)) {
                    match at {
                        Some(i) => entries[i].1 = value,
                        None => {
                            let mut grown = mem::take(entries).into_vec();
                            grown.push((key, value));
                            *entries = grown.into_boxed_slice();
                        }
                    }
                }
                return;
            }
            Slot::Collision(h, _) => *h,
        };
        if let Some(value) = f(None) {
            let old = mem::take(slot);
            *slot = join(depth + 1, old, old_hash, key, value, hash);
        }
    }

    /// Insert `slot` at `pos`. The slots move when this node is unshared —
    /// it was copied earlier in the same write — and are cloned otherwise.
    fn add_slot(&mut self, pos: usize, slot: Slot<K, V>) {
        let slot = iter::once(slot);
        self.slots = match Arc::get_mut(&mut self.slots) {
            Some(slots) => {
                let (before, after) = slots.split_at_mut(pos);
                let (before, after) =
                    (before.iter_mut().map(mem::take), after.iter_mut().map(mem::take));
                before.chain(slot).chain(after).collect()
            }
            None => {
                let (before, after) = self.slots.split_at(pos);
                before.iter().cloned().chain(slot).chain(after.iter().cloned()).collect()
            }
        };
    }

    fn for_each(&self, f: &mut impl FnMut(&K, &V)) {
        for slot in self.slots.iter() {
            match slot {
                Slot::Leaf(k, v) => f(k, v),
                Slot::Node(child) => child.for_each(f),
                Slot::Collision(_, entries) => entries.iter().for_each(|(k, v)| f(k, v)),
            }
        }
    }
}

/// One slot at `depth` holding `old` (a leaf, or a collision slot, whose
/// keys hash to `old_hash`) and the entry `key` (hash `hash`, a key `old`
/// does not hold). A collision slot with `key`'s hash never gets here:
/// `Node::update` extends it in place.
fn join<K, V>(
    depth: u32,
    old: Slot<K, V>,
    old_hash: u64,
    key: K,
    value: V,
    hash: u64,
) -> Slot<K, V> {
    match old {
        Slot::Leaf(k, v) if old_hash == hash => {
            Slot::Collision(hash, Box::new([(k, v), (key, value)]))
        }
        old => {
            let (a, b) = (index(old_hash, depth), index(hash, depth));
            let slots: Arc<[Slot<K, V>]> = match a.cmp(&b) {
                Ordering::Less => Arc::from([old, Slot::Leaf(key, value)]),
                Ordering::Greater => Arc::from([Slot::Leaf(key, value), old]),
                Ordering::Equal => Arc::from([join(depth + 1, old, old_hash, key, value, hash)]),
            };
            Slot::Node(Node { bitmap: (1 << a) | (1 << b), slots })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    impl<K, V> HashTrie<K, V> {
        /// Levels on the longest path from the root to an entry.
        fn depth(&self) -> u32 {
            fn depth<K, V>(node: &Node<K, V>) -> u32 {
                let below = node.slots.iter().map(|s| match s {
                    Slot::Node(child) => depth(child),
                    _ => 0,
                });
                1 + below.max().unwrap_or(0)
            }
            depth(&self.root)
        }
    }

    /// Every entry, sorted.
    fn entries<K: Hash + Eq + Clone + Ord, V: Clone>(trie: &HashTrie<K, V>) -> Vec<(K, V)> {
        let mut all = Vec::new();
        trie.for_each(|k, v| all.push((k.clone(), v.clone())));
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Insert `ops` in order against a `BTreeMap`, checking after every
    /// insert that the trie and *every earlier clone* answer exactly as
    /// the reference did when the clone was taken, for every key in
    /// `probe`. A clone is taken before every other insert, so the inserts
    /// between also write to nodes that no clone shares.
    fn check_against_btree<K>(ops: &[(K, u32)], probe: &[K])
    where
        K: Hash + Eq + Clone + Ord + Debug,
    {
        let mut trie = HashTrie::default();
        let mut reference = BTreeMap::new();
        let mut history = Vec::new();
        for (i, (key, value)) in ops.iter().enumerate() {
            if i % 2 == 0 {
                history.push((trie.clone(), reference.clone()));
            }
            trie.update(key.clone(), |_| Some(*value));
            reference.insert(key.clone(), *value);
            for (then, want) in history.iter().map(|(t, r)| (t, r)).chain([(&trie, &reference)]) {
                for k in probe {
                    assert_eq!(then.get(k), want.get(k), "{k:?}");
                }
                let want: Vec<(K, u32)> = want.iter().map(|(k, v)| (k.clone(), *v)).collect();
                assert_eq!(entries(then), want);
            }
        }
    }

    /// The modular inverse of Fx's multiplier: a key that writes
    /// `h · FX_INVERSE` to a fresh `FxHasher` hashes to exactly `h`.
    fn fx_inverse() -> u64 {
        const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        // Newton's iteration doubles the correct low bits each step.
        let mut x = FX_SEED;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(FX_SEED.wrapping_mul(x)));
        }
        assert_eq!(FX_SEED.wrapping_mul(x), 1);
        x
    }

    /// A key whose trie hash is chosen outright: keys with equal `hash` and
    /// different `id` collide in all 64 bits.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Forced {
        hash: u64,
        id: u8,
    }

    impl Hash for Forced {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(self.hash.wrapping_mul(fx_inverse()));
        }
    }

    /// A hash drawn from few values that share long prefixes: the top
    /// five bits and the low four vary, so distinct hashes still agree on
    /// levels 1–11 and part only at level 0 or at level 12.
    fn forced_hash(top: u64, low: u64) -> u64 {
        (top << 59) | low
    }

    #[test]
    fn forced_keys_hash_to_their_chosen_hash() {
        for hash in [0, 1, u64::MAX, forced_hash(3, 9)] {
            assert_eq!(hash_of(&Forced { hash, id: 0 }), hash);
        }
    }

    proptest! {
        #[test]
        fn inserts_and_overwrites_match_a_btree_map(
            ops in proptest::collection::vec((0u16..48, 0u32..1000), 0..40),
        ) {
            let probe: Vec<u16> = (0..50).collect();
            check_against_btree(&ops, &probe);
        }

        #[test]
        fn shared_prefixes_and_full_collisions_match_a_btree_map(
            ops in proptest::collection::vec(((0u64..2, 0u64..3, 0u8..3), 0u32..1000), 0..40),
        ) {
            let ops: Vec<(Forced, u32)> = ops
                .iter()
                .map(|&((top, low, id), v)| (Forced { hash: forced_hash(top, low), id }, v))
                .collect();
            let probe: Vec<Forced> = (0..2)
                .flat_map(|top| (0..3).flat_map(move |low| (0..4).map(move |id| (top, low, id))))
                .map(|(top, low, id)| Forced { hash: forced_hash(top, low), id })
                .collect();
            check_against_btree(&ops, &probe);
        }
    }

    /// 2^16 keys make paths four or more levels deep; a clone taken
    /// halfway still answers as it did.
    #[test]
    fn two_to_the_sixteen_keys_stay_findable_and_persistent() {
        let n = 1u32 << 16;
        let mut trie = HashTrie::default();
        for k in 0..n / 2 {
            trie.update(k, |_| Some(k ^ 0x5555));
        }
        let half = trie.clone();
        for k in 0..n {
            trie.update(k, |_| Some(k.wrapping_mul(3)));
        }
        assert!(trie.depth() >= 4, "depth {}", trie.depth());
        for k in 0..n + 8 {
            assert_eq!(trie.get(&k), (k < n).then(|| k.wrapping_mul(3)).as_ref());
            assert_eq!(half.get(&k), (k < n / 2).then_some(k ^ 0x5555).as_ref());
        }
        assert_eq!(entries(&trie).len(), n as usize);
    }
}
