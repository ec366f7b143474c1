//! Sampling primitives for the three evaluation strategies.
//!
//! * uniform without replacement (R and the Static candidate draw),
//! * weighted without replacement (Probabilistic): one distribution, two
//!   costs — an Efraimidis–Spirakis sweep for a one-off draw, an alias
//!   table with rejection for repeated draws from the same weights,
//! * a deterministic seeded RNG helper so every experiment is reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG from a 64-bit seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Reusable membership set over positions `0..n`: the duplicate filter of
/// every without-replacement draw. A draw marks its picks and unmarks them
/// before returning (`O(k)`, not `O(n)`), so one set serves any number of
/// draws and is empty between them.
#[derive(Clone, Debug, Default)]
pub struct PickSet {
    words: Vec<u64>,
}

impl PickSet {
    /// An empty set; it grows to the largest `n` it is used with.
    pub fn new() -> Self {
        PickSet::default()
    }

    fn grow(&mut self, n: usize) {
        if self.words.len() * 64 < n {
            self.words.resize(n.div_ceil(64), 0);
        }
    }

    /// Mark `i`; `true` if it was not marked before.
    #[inline]
    fn insert(&mut self, i: u32) -> bool {
        let word = &mut self.words[(i >> 6) as usize];
        let bit = 1u64 << (i & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn remove_all(&mut self, picks: &[u32]) {
        for &i in picks {
            self.words[(i >> 6) as usize] &= !(1u64 << (i & 63));
        }
    }
}

/// Sample `k` distinct values uniformly from `0..n` (Floyd's algorithm,
/// `k` RNG calls). If `k >= n`, returns all of `0..n`.
pub fn uniform_without_replacement<R: Rng>(rng: &mut R, n: usize, k: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(k.min(n));
    uniform_without_replacement_into(rng, n, k, &mut PickSet::new(), &mut out);
    out
}

/// As [`uniform_without_replacement`], appending to `out` and rejecting
/// duplicates through a caller-owned [`PickSet`] — what a caller drawing
/// many columns reuses instead of allocating per draw.
pub fn uniform_without_replacement_into<R: Rng>(
    rng: &mut R,
    n: usize,
    k: usize,
    seen: &mut PickSet,
    out: &mut Vec<u32>,
) {
    if k >= n {
        out.extend(0..n as u32);
        return;
    }
    seen.grow(n);
    let start = out.len();
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j as u32);
        out.push(if seen.insert(t) {
            t
        } else {
            seen.insert(j as u32);
            j as u32
        });
    }
    seen.remove_all(&out[start..]);
}

/// Sample `k` distinct elements from `items` uniformly.
pub fn sample_slice<R: Rng, T: Copy>(rng: &mut R, items: &[T], k: usize) -> Vec<T> {
    uniform_without_replacement(rng, items.len(), k)
        .into_iter()
        .map(|i| items[i as usize])
        .collect()
}

#[derive(PartialEq)]
struct HeapEntry {
    key: f64,
    pos: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on *negated* comparison: we keep the k LARGEST keys, so
        // the heap root must be the smallest kept key.
        other.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
    }
}

/// Weighted sampling of `k` distinct positions without replacement
/// (Efraimidis–Spirakis A-Res): each position gets key `u^(1/w)` with
/// `u ~ U(0,1)`; the `k` largest keys win. We use the equivalent (and much
/// cheaper) key `ln(u)/w` — `ln` is monotone, so the ordering distribution
/// is identical while avoiding a `powf` per element. Positions with weight
/// `<= 0` are never selected. Returns positions into `weights`, unordered.
///
/// This is the Probabilistic sampler of §4.1: entities with higher
/// recommender scores are proportionally more likely to be drawn.
pub fn weighted_without_replacement<R: Rng>(rng: &mut R, weights: &[f32], k: usize) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for (pos, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        // ln(u)/w is negative; larger (closer to 0) ⇔ larger u^(1/w).
        let key = u.ln() / w as f64;
        if heap.len() < k {
            heap.push(HeapEntry { key, pos });
        } else if let Some(top) = heap.peek() {
            if key > top.key {
                heap.pop();
                heap.push(HeapEntry { key, pos });
            }
        }
    }
    heap.into_iter().map(|e| e.pos).collect()
}

/// Alias draws issued per batch of [`WeightedIndex::sample_distinct`]:
/// their table loads are independent, so the cache misses overlap.
const DRAW_BATCH: usize = 16;

/// Alias draws spent per requested pick before the rejection loop hands
/// the remaining picks to the exact sweep.
const ATTEMPTS_PER_PICK: usize = 4;

/// One slot of an alias table: a draw landing here keeps the slot with
/// probability `accept` and takes `alias` otherwise.
#[derive(Clone, Copy, Debug)]
struct AliasCell {
    accept: f32,
    alias: u32,
}

/// Walker/Vose alias table for repeated weighted draws: `O(n)` to build,
/// 8 bytes per item, `O(1)` and one table read per draw. Items are drawn
/// in proportion to their weight, up to the `f32` rounding of the stored
/// acceptance probabilities; positions with weight `<= 0` are never
/// drawn. Weights must be finite.
#[derive(Clone, Debug)]
pub struct WeightedIndex {
    cells: Vec<AliasCell>,
    positives: usize,
}

impl WeightedIndex {
    /// Build from weights (non-positive weights get zero mass).
    pub fn new(weights: &[f32]) -> Self {
        let n = weights.len();
        assert!(n <= u32::MAX as usize, "alias table positions are u32");
        let mass = |i: usize| if weights[i] > 0.0 { weights[i] as f64 } else { 0.0 };
        let (mut total, mut positives, mut heaviest) = (0.0f64, 0usize, 0usize);
        for (i, &w) in weights.iter().enumerate() {
            total += mass(i);
            positives += usize::from(w > 0.0);
            if mass(i) > mass(heaviest) {
                heaviest = i;
            }
        }
        if positives == 0 {
            return WeightedIndex {
                cells: vec![AliasCell { accept: 0.0, alias: 0 }; n],
                positives,
            };
        }
        // What the pairing below leaves unpaired (rounding) must already be
        // right: a positive slot keeps itself, a zero-weight slot never
        // does — it points at the heaviest item until paired.
        let mut cells: Vec<AliasCell> = (0..n)
            .map(|i| match weights[i] > 0.0 {
                true => AliasCell { accept: 1.0, alias: i as u32 },
                false => AliasCell { accept: 0.0, alias: heaviest as u32 },
            })
            .collect();
        // Vose's pairing as two forward scans, no work lists: masses are
        // scaled to mean 1, `i` visits the slots under 1 and `donor` the
        // slots at or over 1. A small slot keeps its own mass and takes the
        // rest of its unit from the donor; a donor drained below 1 is the
        // next small to fill — on the spot, so only the current donor ever
        // carries a residual (`left`).
        let scale = n as f64 / total;
        let scaled = |i: usize| mass(i) * scale;
        let next_donor = |from: usize| (from..n).find(|&k| scaled(k) >= 1.0);
        let mut donor = next_donor(0);
        let mut left = donor.map_or(0.0, scaled);
        'slots: for i in 0..n {
            let (mut small, mut own) = (i, scaled(i));
            if own >= 1.0 {
                continue;
            }
            loop {
                let Some(d) = donor else { break 'slots };
                cells[small] = AliasCell { accept: own as f32, alias: d as u32 };
                left = (left + own) - 1.0;
                if left >= 1.0 {
                    break;
                }
                (small, own) = (d, left);
                donor = next_donor(d + 1);
                left = donor.map_or(0.0, scaled);
            }
        }
        WeightedIndex { cells, positives }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no item can be drawn (no items, or no positive weight).
    pub fn is_empty(&self) -> bool {
        self.positives == 0
    }

    /// Split 64 random bits into a uniform slot and a uniform fraction in
    /// `[0, 1)`: the integer and fractional parts of `bits / 2^64 * n`.
    #[inline]
    fn slot_and_fraction(&self, bits: u64) -> (usize, f32) {
        let x = bits as u128 * self.cells.len() as u128;
        let fraction = ((x as u64) >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
        ((x >> 64) as usize, fraction)
    }

    /// One weighted draw (with replacement); `None` without positive mass.
    pub fn sample_one<R: Rng>(&self, rng: &mut R) -> Option<usize> {
        if self.positives == 0 {
            return None;
        }
        let (slot, fraction) = self.slot_and_fraction(rng.next_u64());
        let cell = self.cells[slot];
        Some(if fraction < cell.accept { slot } else { cell.alias as usize })
    }

    /// The weights this table encodes, up to a common factor (mean 1).
    fn masses(&self) -> Vec<f32> {
        let mut mass = vec![0.0f32; self.cells.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            mass[i] += cell.accept;
            mass[cell.alias as usize] += 1.0 - cell.accept;
        }
        mass
    }

    /// Append `min(k, positives)` *distinct* positions to `out`, drawn by
    /// successive weighted sampling without replacement: each pick is
    /// weighted among the items not picked yet. That is the distribution
    /// of [`weighted_without_replacement`] (A-Res), at `O(1)` per draw
    /// instead of `O(n)` per call.
    ///
    /// Picks are alias draws with duplicates rejected through `seen` —
    /// the first `k` distinct values of an i.i.d. weighted sequence are
    /// exactly a successive sample. Draws go out in batches of
    /// `DRAW_BATCH` independent table reads. When a few items hold most
    /// of the mass, rejections dominate: after `ATTEMPTS_PER_PICK * k`
    /// draws the remaining picks come from one A-Res sweep over the items
    /// not picked yet, which is the same conditional distribution, so the
    /// draw always terminates and stays exact. `k >= positives` returns
    /// every positive position.
    pub fn sample_distinct<R: Rng>(
        &self,
        rng: &mut R,
        k: usize,
        seen: &mut PickSet,
        out: &mut Vec<u32>,
    ) {
        let start = out.len();
        let k = k.min(self.positives);
        if k < self.positives {
            seen.grow(self.cells.len());
            let mut budget = ATTEMPTS_PER_PICK * k;
            while out.len() - start < k && budget > 0 {
                let mut draws = [(0usize, 0.0f32); DRAW_BATCH];
                for d in &mut draws {
                    *d = self.slot_and_fraction(rng.next_u64());
                }
                let cells = draws.map(|(slot, _)| self.cells[slot]);
                for (&(slot, fraction), cell) in draws.iter().zip(cells) {
                    let pick = if fraction < cell.accept { slot as u32 } else { cell.alias };
                    if out.len() - start < k && seen.insert(pick) {
                        out.push(pick);
                    }
                }
                budget = budget.saturating_sub(DRAW_BATCH);
            }
            seen.remove_all(&out[start..]);
        }
        let missing = k - (out.len() - start);
        if missing > 0 {
            let mut mass = self.masses();
            for &p in &out[start..] {
                mass[p as usize] = 0.0;
            }
            out.extend(
                weighted_without_replacement(rng, &mass, missing).into_iter().map(|p| p as u32),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashSet;

    #[test]
    fn uniform_sample_is_distinct_and_in_range() {
        let mut rng = seeded_rng(7);
        let s = uniform_without_replacement(&mut rng, 100, 30);
        assert_eq!(s.len(), 30);
        let set: FxHashSet<u32> = s.iter().copied().collect();
        assert_eq!(set.len(), 30);
        assert!(s.iter().all(|&x| x < 100));
    }

    #[test]
    fn uniform_sample_saturates() {
        let mut rng = seeded_rng(7);
        let s = uniform_without_replacement(&mut rng, 5, 10);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn uniform_sample_covers_all_positions_eventually() {
        let mut rng = seeded_rng(3);
        let mut seen = FxHashSet::default();
        for _ in 0..200 {
            for x in uniform_without_replacement(&mut rng, 10, 3) {
                seen.insert(x);
            }
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn sample_slice_picks_from_items() {
        let mut rng = seeded_rng(11);
        let items = [10u32, 20, 30, 40];
        let s = sample_slice(&mut rng, &items, 2);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|x| items.contains(x)));
        assert_ne!(s[0], s[1]);
    }

    #[test]
    fn weighted_sample_respects_zero_weights() {
        let mut rng = seeded_rng(5);
        let weights = [0.0, 1.0, 0.0, 2.0, 0.0];
        for _ in 0..50 {
            let s = weighted_without_replacement(&mut rng, &weights, 2);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 3]);
        }
    }

    #[test]
    fn weighted_sample_size_limited_by_positive_weights() {
        let mut rng = seeded_rng(5);
        let weights = [0.0, 1.0, 0.0];
        let s = weighted_without_replacement(&mut rng, &weights, 3);
        assert_eq!(s, vec![1]);
    }

    #[test]
    fn weighted_sample_is_biased_toward_heavy_items() {
        let mut rng = seeded_rng(42);
        let weights = [1.0f32, 10.0];
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            let s = weighted_without_replacement(&mut rng, &weights, 1);
            counts[s[0]] += 1;
        }
        // P(pick heavy) = 10/11 ≈ 0.909; allow generous slack.
        assert!(counts[1] > 1600, "heavy item drawn {} times", counts[1]);
    }

    #[test]
    fn weighted_sample_k_zero() {
        let mut rng = seeded_rng(1);
        assert!(weighted_without_replacement(&mut rng, &[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: Vec<u32> = uniform_without_replacement(&mut seeded_rng(9), 50, 10);
        let b: Vec<u32> = uniform_without_replacement(&mut seeded_rng(9), 50, 10);
        assert_eq!(a, b);
    }

    /// Inclusion counts of every position over `draws` seeded draws of `k`.
    fn inclusion_counts(
        n: usize,
        draws: u64,
        mut draw: impl FnMut(&mut StdRng) -> Vec<u32>,
    ) -> Vec<f64> {
        let mut counts = vec![0.0f64; n];
        for seed in 0..draws {
            for p in draw(&mut seeded_rng(seed)) {
                counts[p as usize] += 1.0;
            }
        }
        counts
    }

    #[test]
    fn alias_rejection_matches_a_res_inclusion_frequencies() {
        // A skewed 20-item column: three heavy items hold 72 % of the mass.
        // The deleted stochastic-universal-sampling draw would fail this for
        // the heavy items: one heavier than total/k was included with
        // certainty (item 0: 1.0 where successive sampling gives 0.96).
        let mut weights = vec![1.0f32; 20];
        (weights[0], weights[1], weights[2]) = (30.0, 10.0, 4.0);
        let (k, draws) = (4usize, 20_000u64);
        let idx = WeightedIndex::new(&weights);
        let mut seen = PickSet::new();
        let alias = inclusion_counts(20, draws, |rng| {
            let mut out = Vec::new();
            idx.sample_distinct(rng, k, &mut seen, &mut out);
            assert_eq!(out.len(), k);
            out
        });
        let a_res = inclusion_counts(20, draws, |rng| {
            weighted_without_replacement(rng, &weights, k).into_iter().map(|p| p as u32).collect()
        });
        // Two independent estimates of one inclusion probability p differ by
        // sd = sqrt(2 p (1 - p) / draws) <= 0.005; the tolerance is 4 sd.
        for (p, (a, b)) in alias.iter().zip(&a_res).enumerate() {
            let (a, b) = (a / draws as f64, b / draws as f64);
            assert!((a - b).abs() < 0.02, "item {p}: alias {a:.4} vs A-Res {b:.4}");
        }
        assert!(alias[0] / (draws as f64) < 0.99, "the heaviest item is not certain");
    }

    #[test]
    fn tables_encode_the_weights_and_never_reach_a_non_positive_slot() {
        // Checked on the table itself, so it holds for every seed: a
        // non-positive slot never keeps itself, and no slot — paired or left
        // over by Vose's loop — sends a draw to a non-positive position.
        let mut rng = seeded_rng(12);
        for n in [1usize, 2, 3, 17, 64, 257] {
            for _ in 0..40 {
                let weights: Vec<f32> = (0..n)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => 0.0,
                        1 => -rng.gen_range(0.0f32..3.0),
                        2 => rng.gen_range(0.0f32..1e-6),
                        _ => rng.gen_range(0.0f32..100.0),
                    })
                    .collect();
                let idx = WeightedIndex::new(&weights);
                let positives = weights.iter().filter(|&&w| w > 0.0).count();
                assert_eq!((idx.len(), idx.positives), (n, positives));
                for (i, cell) in idx.cells.iter().enumerate() {
                    if idx.is_empty() {
                        break;
                    }
                    if weights[i] <= 0.0 {
                        assert_eq!(cell.accept, 0.0, "{weights:?}: slot {i} can keep itself");
                    }
                    if cell.accept < 1.0 {
                        let alias = cell.alias as usize;
                        assert!(weights[alias] > 0.0, "{weights:?}: {i} -> {alias}");
                    }
                }
                // ... and the reachable slots carry the weights' proportions.
                let total: f64 = weights.iter().map(|&w| w.max(0.0) as f64).sum();
                for (m, w) in idx.masses().iter().zip(&weights).filter(|_| !idx.is_empty()) {
                    let want = w.max(0.0) as f64 * n as f64 / total;
                    assert!((*m as f64 - want).abs() < 1e-4 * (1.0 + want), "{weights:?}");
                }
                let mut out = Vec::new();
                idx.sample_distinct(&mut rng, n / 2, &mut PickSet::new(), &mut out);
                assert!(out.iter().all(|&p| weights[p as usize] > 0.0));
                if let Some(p) = idx.sample_one(&mut rng) {
                    assert!(weights[p] > 0.0);
                }
            }
        }
    }

    #[test]
    fn weighted_index_sample_one_respects_weights() {
        let idx = WeightedIndex::new(&[1.0, 0.0, 9.0]);
        let mut rng = seeded_rng(6);
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[idx.sample_one(&mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight item drawn");
        assert!(counts[2] > counts[0] * 5, "heavy item {} vs light {}", counts[2], counts[0]);
    }

    #[test]
    fn weighted_index_sample_distinct_properties() {
        let weights: Vec<f32> = (0..200).map(|i| 1.0 + (i % 7) as f32).collect();
        let idx = WeightedIndex::new(&weights);
        let mut seen = PickSet::new();
        let draw = |seen: &mut PickSet, seed| {
            let mut s = vec![7u32];
            idx.sample_distinct(&mut seeded_rng(seed), 50, seen, &mut s);
            s
        };
        let s = draw(&mut seen, 8);
        assert_eq!(s.len(), 51, "picks are appended");
        let set: FxHashSet<u32> = s[1..].iter().copied().collect();
        assert_eq!(set.len(), 50, "samples must be distinct");
        assert!(s.iter().all(|&i| i < 200));
        // The set is handed back empty: same seed, same draw, reused or fresh.
        assert_eq!(draw(&mut seen, 8), s);
        assert_eq!(draw(&mut PickSet::new(), 8), s);
        assert_ne!(draw(&mut seen, 9), s);
    }

    #[test]
    fn heavy_skew_terminates_through_the_exact_completion() {
        // One item holds 99 % of the mass: once it is picked, 99 of 100
        // alias draws are rejected, so the attempt budget runs out long
        // before k = positives - 1 picks and the A-Res sweep finishes.
        let mut weights = vec![0.0f32; 300];
        for w in weights.iter_mut().step_by(3) {
            *w = 1.0;
        }
        weights[150] = 99.0 * 99.0;
        let idx = WeightedIndex::new(&weights);
        assert_eq!(idx.positives, 100);
        for seed in 0..20 {
            let mut out = Vec::new();
            idx.sample_distinct(&mut seeded_rng(seed), 99, &mut PickSet::new(), &mut out);
            let set: FxHashSet<u32> = out.iter().copied().collect();
            assert_eq!((out.len(), set.len()), (99, 99), "k distinct picks");
            assert!(out.iter().all(|&p| weights[p as usize] > 0.0));
            assert!(set.contains(&150), "the 99 % item is all but certain");
        }
    }

    #[test]
    fn weighted_index_empty_and_saturated() {
        let mut out = Vec::new();
        for idx in [WeightedIndex::new(&[]), WeightedIndex::new(&[0.0, -1.0])] {
            assert!(idx.is_empty());
            assert_eq!(idx.sample_one(&mut seeded_rng(1)), None);
            idx.sample_distinct(&mut seeded_rng(1), 3, &mut PickSet::new(), &mut out);
            assert!(out.is_empty());
        }
        // k >= positives: exactly the positives, no more.
        let idx = WeightedIndex::new(&[1.0, 0.0, 1.0]);
        for k in [2, 10] {
            out.clear();
            idx.sample_distinct(&mut seeded_rng(2), k, &mut PickSet::new(), &mut out);
            out.sort_unstable();
            assert_eq!(out, vec![0, 2], "cannot draw more distinct than positive items");
        }
    }

    #[test]
    fn a_reused_pick_set_and_a_non_empty_output_do_not_change_a_draw() {
        // k = 40 of 50 takes both of Floyd's branches. (The values
        // themselves are pinned to the previous commit's in kg-recommend's
        // `random_and_static_draws_are_pinned_to_the_parent_commit`.)
        let fresh = uniform_without_replacement(&mut seeded_rng(3), 50, 40);
        let mut seen = PickSet::new();
        let mut out = Vec::new();
        uniform_without_replacement_into(&mut seeded_rng(9), 1000, 12, &mut seen, &mut out);
        uniform_without_replacement_into(&mut seeded_rng(3), 50, 40, &mut seen, &mut out);
        assert_eq!(out[12..], fresh);
        assert!(seen.words.iter().all(|&w| w == 0), "the set is handed back empty");
    }
}
