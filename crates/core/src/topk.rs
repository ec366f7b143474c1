//! Bounded top-k selection over score rows, shared by every ranking
//! consumer (the `/topk` endpoint, the sharded scoring engine, benches).
//!
//! The comparison used throughout is [`cmp_score`], a *total* order on
//! `f32` scores with an explicit NaN rule, so a top-k computed shard by
//! shard and merged is bit-for-bit identical to one computed over the whole
//! row — the invariant the sharded scoring engine is built on.

use std::cmp::Ordering;

/// Total order on scores: higher is better, **NaN is the worst score**.
///
/// * finite / infinite values compare as usual (`partial_cmp`);
/// * `-0.0 == +0.0` (ties then break on entity id elsewhere);
/// * every NaN sorts below every non-NaN, and all NaNs are equal.
///
/// Making NaN explicitly *worst* (instead of IEEE's "all comparisons
/// false", which silently drops NaN competitors from rank counts) gives
/// order-independent results: any permutation of a score row — in
/// particular any shard partition of it — selects the same top-k and
/// counts the same competitors.
#[inline]
pub fn cmp_score(a: f32, b: f32) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        // At least one NaN: NaN < non-NaN, NaN == NaN.
        None => match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => unreachable!("partial_cmp is None only with NaN"),
        },
    }
}

/// Order entries best-first: score descending under [`cmp_score`], then
/// entity id ascending (lower ids win ties).
#[inline]
pub fn cmp_entry(a: (u32, f32), b: (u32, f32)) -> Ordering {
    cmp_score(b.1, a.1).then_with(|| a.0.cmp(&b.0))
}

/// A bounded min-heap keeping the `k` best `(entity, score)` entries seen.
///
/// "Best" is score-descending with ties broken toward the lower entity id
/// ([`cmp_entry`]); pushing more than `k` entries evicts the current worst.
/// `k == 0` keeps nothing.
pub struct TopKHeap {
    k: usize,
    /// Max-heap on "worseness": the root is the weakest kept entry.
    heap: std::collections::BinaryHeap<HeapEntry>,
}

/// Heap wrapper ordering entries worst-first (root = weakest).
struct HeapEntry(u32, f32);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // cmp_entry sorts best-first ascending, so "worse" = Greater: the
        // weakest kept entry is the heap maximum, sitting at the root to
        // be evicted first.
        cmp_entry((self.0, self.1), (other.0, other.1))
    }
}

impl TopKHeap {
    /// Heap retaining at most `k` entries.
    pub fn new(k: usize) -> Self {
        TopKHeap { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    /// Entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offer one entry; keeps it only if it beats the current worst.
    #[inline]
    pub fn push(&mut self, entity: u32, score: f32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry(entity, score));
        } else if let Some(weakest) = self.heap.peek() {
            if cmp_entry((entity, score), (weakest.0, weakest.1)) == Ordering::Less {
                self.heap.pop();
                self.heap.push(HeapEntry(entity, score));
            }
        }
    }

    /// The kept entries, best first (score descending, ids ascending on
    /// ties).
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut out: Vec<(u32, f32)> = self.heap.into_iter().map(|e| (e.0, e.1)).collect();
        out.sort_by(|&a, &b| cmp_entry(a, b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::{merge_all, PartialTopK};

    /// Reference: full sort of the row, known ids excluded.
    fn naive_topk(scores: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut all: Vec<(u32, f32)> =
            scores.iter().enumerate().map(|(e, &s)| (e as u32, s)).collect();
        all.sort_by(|&a, &b| cmp_entry(a, b));
        all.truncate(k);
        all
    }

    #[test]
    fn cmp_score_totals() {
        assert_eq!(cmp_score(1.0, 2.0), Ordering::Less);
        assert_eq!(cmp_score(2.0, 1.0), Ordering::Greater);
        assert_eq!(cmp_score(1.0, 1.0), Ordering::Equal);
        assert_eq!(cmp_score(-0.0, 0.0), Ordering::Equal, "signed zeros tie");
        assert_eq!(cmp_score(f32::NAN, f32::NEG_INFINITY), Ordering::Less, "NaN is worst");
        assert_eq!(cmp_score(f32::NEG_INFINITY, f32::NAN), Ordering::Greater);
        assert_eq!(cmp_score(f32::NAN, f32::NAN), Ordering::Equal);
    }

    #[test]
    fn heap_selects_k_best() {
        let scores = [0.1f32, 0.9, 0.5, 0.9, 0.2];
        let mut h = TopKHeap::new(3);
        for (e, &s) in scores.iter().enumerate() {
            h.push(e as u32, s);
        }
        assert_eq!(h.into_sorted(), vec![(1, 0.9), (3, 0.9), (2, 0.5)]);
    }

    #[test]
    fn ties_at_boundary_keep_lowest_ids() {
        let tied = [1.0f32; 6];
        let mut h = TopKHeap::new(3);
        for (e, &s) in tied.iter().enumerate() {
            h.push(e as u32, s);
        }
        assert_eq!(h.into_sorted().iter().map(|t| t.0).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut h = TopKHeap::new(0);
        h.push(0, 1.0);
        assert!(h.is_empty());
        assert!(h.into_sorted().is_empty());
    }

    #[test]
    fn nan_never_beats_a_real_score() {
        let mut h = TopKHeap::new(2);
        h.push(0, f32::NAN);
        h.push(1, -1.0e30);
        h.push(2, f32::NAN);
        let top = h.into_sorted();
        assert_eq!(top[0], (1, -1.0e30));
        assert_eq!(top[1].0, 0, "among NaNs the lower id wins");
    }

    #[test]
    fn merge_matches_unsharded_for_any_split() {
        let scores: Vec<f32> = (0..97).map(|i| ((i * 31 + 7) % 17) as f32 / 3.0).collect();
        let k = 10;
        let want = naive_topk(&scores, k);
        for shards in [1usize, 2, 3, 7, 97] {
            let chunk = scores.len().div_ceil(shards);
            let mut per_shard = Vec::new();
            for (s, slice) in scores.chunks(chunk).enumerate() {
                let mut h = TopKHeap::new(k);
                for (off, &v) in slice.iter().enumerate() {
                    h.push((s * chunk + off) as u32, v);
                }
                per_shard.push(h.into_sorted());
            }
            let got = merge_all(
                PartialTopK::empty(k),
                per_shard.into_iter().map(|t| PartialTopK::from_entries(k, t)),
            )
            .into_entries();
            assert_eq!(got, want, "{shards} shards diverged");
        }
    }
}
