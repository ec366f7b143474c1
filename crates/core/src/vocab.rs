//! String-interning vocabulary mapping external labels to dense ids.
//!
//! Labels are hashed with std's SipHash, not [`crate::fxhash`]: Fx mixes a
//! string eight bytes at a time and lets the first bytes decide the bucket
//! bits, so labels that share a prefix (the generator's `e0` … `e49999`)
//! collide into a few hundred buckets and every lookup walks a long probe
//! chain. SipHash sees every byte. Its keys are fixed, so the table's
//! layout repeats run to run; ids never depend on it — they are handed out
//! in first-occurrence order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

/// The label index's hasher: SipHash with fixed keys.
type LabelHasher = BuildHasherDefault<DefaultHasher>;

/// Bidirectional mapping between string labels and dense `u32` indices.
///
/// Used for entity, relation and type vocabularies when loading external
/// datasets; the synthetic generator produces labels of the form `e123`,
/// `r7`, `type4`.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    labels: Vec<String>,
    index: HashMap<String, u32, LabelHasher>,
}

impl Vocab {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Vocabulary with `n` generated labels `"{prefix}{i}"`.
    pub fn generated(prefix: &str, n: usize) -> Self {
        let mut v = Self::with_capacity(n);
        for i in 0..n {
            v.intern(&format!("{prefix}{i}"));
        }
        v
    }

    /// Empty vocabulary with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Vocab {
            labels: Vec::with_capacity(n),
            index: HashMap::with_capacity_and_hasher(n, LabelHasher::default()),
        }
    }

    /// Intern `label`, returning its dense id (existing id if already known).
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.index.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(label.to_owned());
        self.index.insert(label.to_owned(), id);
        id
    }

    /// Look up the id of `label`, if interned.
    pub fn get(&self, label: &str) -> Option<u32> {
        self.index.get(label).copied()
    }

    /// The label of id `i`, if in range.
    pub fn label(&self, i: u32) -> Option<&str> {
        self.labels.get(i as usize).map(String::as_str)
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate `(id, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.labels.iter().enumerate().map(|(i, s)| (i as u32, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("alpha");
        let b = v.intern("beta");
        assert_ne!(a, b);
        assert_eq!(v.intern("alpha"), a);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut v = Vocab::new();
        let id = v.intern("France");
        assert_eq!(v.get("France"), Some(id));
        assert_eq!(v.label(id), Some("France"));
        assert_eq!(v.get("Spain"), None);
        assert_eq!(v.label(99), None);
    }

    #[test]
    fn generated_labels() {
        let v = Vocab::generated("e", 3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.label(0), Some("e0"));
        assert_eq!(v.get("e2"), Some(2));
    }

    #[test]
    fn hasher_spreads_labels_that_share_a_prefix() {
        use std::hash::BuildHasher;
        // Fx gives these 50 000 labels 256 distinct low-16-bit patterns.
        let hasher = LabelHasher::default();
        let mut patterns: Vec<u16> =
            (0..50_000).map(|i| hasher.hash_one(format!("e{i}")) as u16).collect();
        patterns.sort_unstable();
        patterns.dedup();
        assert!(patterns.len() >= 30_000, "{} distinct low-16-bit patterns", patterns.len());
    }

    #[test]
    fn ids_follow_first_occurrence_across_splits() {
        // Three "splits" interned in turn, repeats within and across them.
        let splits = [["e7", "e3", "e7"], ["e3", "e11", "e0"], ["e0", "e7", "e5"]];
        let mut v = Vocab::new();
        let ids: Vec<Vec<u32>> =
            splits.iter().map(|split| split.iter().map(|l| v.intern(l)).collect()).collect();
        assert_eq!(ids, vec![vec![0, 1, 0], vec![1, 2, 3], vec![3, 0, 4]]);
        let labels: Vec<&str> = v.iter().map(|(_, l)| l).collect();
        assert_eq!(labels, ["e7", "e3", "e11", "e0", "e5"]);
    }

    #[test]
    fn iter_preserves_id_order() {
        let mut v = Vocab::new();
        v.intern("x");
        v.intern("y");
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }
}
