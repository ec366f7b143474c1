//! Property-based tests for kg-core invariants.

use kg_core::sample::{
    seeded_rng, uniform_without_replacement, weighted_without_replacement, PickSet, WeightedIndex,
};
use kg_core::sparse::{row_normalize_l1, spgemm, transpose, CooBuilder, CsrMatrix};
use kg_core::stats::{
    expected_higher_ranked, expected_rank_gain, kendall_tau, mae, pearson, RankGainParams,
};
use kg_core::triple::QuerySide;
use kg_core::{
    EntityId, FilterIndex, GraphDelta, LiveFilterIndex, RelationId, Triple, TripleStore,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn matrix_strategy(max: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (1usize..max, 1usize..max).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            proptest::collection::vec(prop_oneof![2 => Just(0.0f32), 1 => -4.0f32..4.0f32], c),
            r,
        )
    })
}

fn dense_mul(a: &[Vec<f32>], b: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let (n, k, m) = (a.len(), b.len(), b[0].len());
    let mut out = vec![vec![0.0f32; m]; n];
    for i in 0..n {
        for p in 0..k {
            for j in 0..m {
                out[i][j] += a[i][p] * b[p][j];
            }
        }
    }
    out
}

/// Every query of `idx` over a 6 × 2 × 6 domain (and one entity past it)
/// answers what the triple set `reference` implies.
fn assert_filter_matches(idx: &FilterIndex, reference: &BTreeSet<Triple>) {
    let mut tails: BTreeMap<(u32, u32), BTreeSet<EntityId>> = BTreeMap::new();
    let mut heads: BTreeMap<(u32, u32), BTreeSet<EntityId>> = BTreeMap::new();
    for t in reference {
        tails.entry((t.head.0, t.relation.0)).or_default().insert(t.tail);
        heads.entry((t.relation.0, t.tail.0)).or_default().insert(t.head);
    }
    let sorted = |set: Option<&BTreeSet<EntityId>>| -> Vec<EntityId> {
        set.map(|s| s.iter().copied().collect()).unwrap_or_default()
    };
    assert_eq!(idx.len(), reference.len());
    assert_eq!(idx.is_empty(), reference.is_empty());
    for a in 0..7u32 {
        for r in 0..2u32 {
            let want_tails = sorted(tails.get(&(a, r)));
            let want_heads = sorted(heads.get(&(r, a)));
            assert_eq!(idx.known_tails(EntityId(a), RelationId(r)), &want_tails[..]);
            assert_eq!(idx.known_heads(RelationId(r), EntityId(a)), &want_heads[..]);
            for b in 0..7u32 {
                let t = Triple::new(a, r, b);
                let known = reference.contains(&t);
                assert_eq!(idx.contains(t), known, "{t:?}");
                assert_eq!(idx.is_true_answer(t, QuerySide::Tail, EntityId(b)), known);
                assert_eq!(
                    idx.is_true_answer(Triple::new(b, r, a), QuerySide::Head, EntityId(b)),
                    reference.contains(&Triple::new(b, r, a))
                );
            }
        }
    }
    let mut visited = Vec::new();
    idx.for_each_triple(|t| visited.push(t));
    visited.sort_unstable();
    assert_eq!(visited, reference.iter().copied().collect::<Vec<_>>(), "each triple exactly once");
}

/// `t`'s query key on `side`, tagged with the side (`true` = tail query).
fn query_key(t: Triple, side: QuerySide) -> (bool, u32, u32) {
    match side {
        QuerySide::Tail => (true, t.head.0, t.relation.0),
        QuerySide::Head => (false, t.relation.0, t.tail.0),
    }
}

proptest! {
    #[test]
    fn transpose_is_involution(d in matrix_strategy(9)) {
        let m = CsrMatrix::from_dense(&d);
        let tt = transpose(&transpose(&m));
        prop_assert_eq!(tt, m);
    }

    #[test]
    fn transpose_preserves_validity_and_nnz(d in matrix_strategy(9)) {
        let m = CsrMatrix::from_dense(&d);
        let t = transpose(&m);
        prop_assert!(t.validate().is_ok());
        prop_assert_eq!(t.nnz(), m.nnz());
        prop_assert_eq!((t.rows(), t.cols()), (m.cols(), m.rows()));
    }

    #[test]
    fn spgemm_matches_dense((a, b) in matrix_strategy(7).prop_flat_map(|a| {
        let k = a[0].len();
        let b = (1usize..7).prop_flat_map(move |m| proptest::collection::vec(
            proptest::collection::vec(prop_oneof![2 => Just(0.0f32), 1 => -4.0f32..4.0f32], m), k));
        (Just(a), b)
    })) {
        let c = spgemm(&CsrMatrix::from_dense(&a), &CsrMatrix::from_dense(&b));
        prop_assert!(c.validate().is_ok());
        let reference = dense_mul(&a, &b);
        let got = c.to_dense();
        for i in 0..reference.len() {
            for j in 0..reference[0].len() {
                prop_assert!((got[i][j] - reference[i][j]).abs() < 1e-3,
                    "cell ({},{}) {} vs {}", i, j, got[i][j], reference[i][j]);
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // dual-index loops
    fn gram_matrix_symmetric(d in matrix_strategy(8)) {
        let b = CsrMatrix::from_dense(&d);
        let w = spgemm(&transpose(&b), &b);
        let dd = w.to_dense();
        for i in 0..w.rows() {
            for j in 0..w.cols() {
                prop_assert!((dd[i][j] - dd[j][i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn row_normalize_rows_sum_to_one_or_zero(d in matrix_strategy(8)) {
        let mut m = CsrMatrix::from_dense(&d.iter().map(|r| r.iter().map(|v| v.abs()).collect()).collect::<Vec<_>>());
        row_normalize_l1(&mut m);
        for i in 0..m.rows() {
            let s: f32 = m.row_values(i).iter().sum();
            prop_assert!(s == 0.0 || (s - 1.0).abs() < 1e-5, "row {} sums to {}", i, s);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // dual-index loops
    fn coo_builder_sums_duplicates(entries in proptest::collection::vec((0usize..5, 0usize..5, -3.0f32..3.0), 0..40)) {
        let mut b = CooBuilder::new(5, 5);
        let mut dense = vec![vec![0.0f32; 5]; 5];
        for &(r, c, v) in &entries {
            b.push(r, c, v);
            dense[r][c] += v;
        }
        let m = b.build();
        prop_assert!(m.validate().is_ok());
        for r in 0..5 {
            for c in 0..5 {
                prop_assert!((m.get(r, c) - dense[r][c]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn uniform_sample_distinct_in_range(seed in 0u64..1000, n in 1usize..200, frac in 0.0f64..1.2) {
        let k = ((n as f64 * frac) as usize).min(n + 5);
        let s = uniform_without_replacement(&mut seeded_rng(seed), n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s.len());
        prop_assert!(s.iter().all(|&x| (x as usize) < n));
    }

    #[test]
    fn weighted_sample_never_picks_nonpositive(seed in 0u64..500, weights in proptest::collection::vec(prop_oneof![Just(0.0f32), Just(-1.0f32), 0.01f32..5.0, Just(500.0f32)], 1..50), k in 1usize..20) {
        // One contract, both samplers: the one-shot A-Res sweep and the
        // alias table (whose rejection loop hands over to the sweep when a
        // 500.0 soaks up the draws).
        let alias = |seed| {
            let mut out = Vec::new();
            WeightedIndex::new(&weights).sample_distinct(&mut seeded_rng(seed), k, &mut PickSet::new(), &mut out);
            out.into_iter().map(|p| p as usize).collect::<Vec<_>>()
        };
        prop_assert_eq!(alias(seed), alias(seed));
        let positive = weights.iter().filter(|w| **w > 0.0).count();
        for s in [weighted_without_replacement(&mut seeded_rng(seed), &weights, k), alias(seed)] {
            prop_assert_eq!(s.len(), k.min(positive));
            prop_assert!(s.iter().all(|&p| weights[p] > 0.0));
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), s.len());
        }
    }

    #[test]
    fn theorem1_gain_nonnegative(higher in 0u64..50, extra_range in 0u64..100, extra_e in 0u64..1000, ns_frac in 0.0f64..1.0) {
        // Construct valid params: higher ≤ range ≤ E.
        let range = higher + extra_range;
        let e = range + extra_e;
        if e == 0 { return Ok(()); }
        let ns = ((e as f64) * ns_frac) as u64;
        let p = RankGainParams { higher, range_size: range.max(1).min(e), num_entities: e, n_s: ns };
        if p.higher > p.range_size { return Ok(()); }
        prop_assert!(expected_rank_gain(p) >= 0.0);
    }

    #[test]
    fn hypergeom_monotone_in_sample_size(higher in 0u64..50, pool_extra in 1u64..500, ns in 0u64..400) {
        let pool = higher + pool_extra;
        let ns1 = ns.min(pool);
        let ns2 = (ns1 + 1).min(pool);
        prop_assert!(expected_higher_ranked(higher, pool, ns1) <= expected_higher_ranked(higher, pool, ns2) + 1e-12);
    }

    #[test]
    fn pearson_and_kendall_bounded(pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..30)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
        if let Some(t) = kendall_tau(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&t));
        }
    }

    #[test]
    fn mae_zero_iff_equal(xs in proptest::collection::vec(-10.0f64..10.0, 1..20)) {
        prop_assert_eq!(mae(&xs, &xs), 0.0);
    }

    #[test]
    fn filter_index_agrees_with_naive(raw in proptest::collection::vec((0u32..8, 0u32..3, 0u32..8), 0..60)) {
        let triples: Vec<Triple> = raw.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect();
        let idx = FilterIndex::from_slices(&[&triples]);
        let store = TripleStore::from_triples(triples.clone(), 8, 3);
        prop_assert_eq!(idx.len(), store.len());
        for h in 0..8u32 {
            for r in 0..3u32 {
                for t in 0..8u32 {
                    let tri = Triple::new(h, r, t);
                    prop_assert_eq!(idx.contains(tri), store.contains(tri));
                }
            }
        }
    }

    /// The flat index against a `BTreeMap<key, BTreeSet>` reference, with
    /// duplicates within and across slices (a 6 × 2 × 6 domain), the empty
    /// index, and `LiveFilterIndex::rebuilt` after a delta.
    #[test]
    fn flat_filter_index_matches_a_btree_reference(
        slices in proptest::collection::vec(
            proptest::collection::vec((0u32..6, 0u32..2, 0u32..6), 0..30),
            0..4,
        ),
        insert in proptest::collection::vec((0u32..6, 0u32..2, 0u32..6), 0..10),
        delete in proptest::collection::vec((0u32..6, 0u32..2, 0u32..6), 0..10),
    ) {
        let to_triples =
            |raw: &[(u32, u32, u32)]| raw.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect::<Vec<Triple>>();
        let slices: Vec<Vec<Triple>> = slices.iter().map(|s| to_triples(s)).collect();
        let refs: Vec<&[Triple]> = slices.iter().map(Vec::as_slice).collect();
        let mut reference: BTreeSet<Triple> = slices.iter().flatten().copied().collect();
        let idx = FilterIndex::from_slices(&refs);
        assert_filter_matches(&idx, &reference);
        assert_filter_matches(&FilterIndex::new(), &BTreeSet::new());

        let delta = GraphDelta::new(to_triples(&insert), to_triples(&delete));
        let (live, _) = LiveFilterIndex::from_base(std::sync::Arc::new(idx)).apply(&delta);
        reference.extend(delta.insert.iter().copied());
        for t in &delta.delete {
            reference.remove(t);
        }
        assert_filter_matches(&live.rebuilt(), &reference);
    }

    #[test]
    fn live_filter_index_matches_rebuilt_after_arbitrary_deltas(
        base in proptest::collection::vec((0u32..8, 0u32..3, 0u32..8), 0..40),
        deltas in proptest::collection::vec(
            (proptest::collection::vec((0u32..8, 0u32..3, 0u32..8), 0..10),
             proptest::collection::vec((0u32..8, 0u32..3, 0u32..8), 0..10),
             0usize..4,
             0usize..4),
            0..6,
        ),
    ) {
        let to_triples =
            |raw: &[(u32, u32, u32)]| raw.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect::<Vec<Triple>>();
        let base_triples = to_triples(&base);
        let mut live =
            LiveFilterIndex::from_base(std::sync::Arc::new(FilterIndex::from_slices(&[&base_triples])));
        // Naive per-triple model of the contract: a set with inserts applied
        // before deletes within each delta (a triple named in both ends
        // absent), and per query key the version of the last delta in which
        // an effective operation named it (0 = never).
        let mut naive: std::collections::HashSet<Triple> = base_triples.iter().copied().collect();
        let mut stamps: std::collections::HashMap<(bool, u32, u32), u64> = Default::default();
        // Every snapshot taken so far, with what it answered when taken.
        let mut history = vec![(live.clone(), naive.clone(), stamps.clone())];
        for (ins, del, dup, echo) in &deltas {
            // `dup` inserts named twice, and `echo` inserts deleted again,
            // within the same delta.
            let mut insert = to_triples(ins);
            insert.extend_from_within(..(*dup).min(insert.len()));
            let mut delete = to_triples(del);
            delete.extend_from_slice(&insert[..(*echo).min(insert.len())]);
            let delta = GraphDelta::new(insert, delete);
            let (next, outcome) = live.apply(&delta);
            let inserted: Vec<Triple> = delta.insert.iter().copied().filter(|&t| naive.insert(t)).collect();
            let deleted: Vec<Triple> = delta.delete.iter().copied().filter(|t| naive.remove(t)).collect();
            let changed = !inserted.is_empty() || !deleted.is_empty();
            for &t in inserted.iter().chain(&deleted) {
                for side in QuerySide::BOTH {
                    stamps.insert(query_key(t, side), live.version() + 1);
                }
            }
            prop_assert_eq!((outcome.inserted, outcome.deleted), (inserted.len(), deleted.len()));
            prop_assert_eq!(outcome.len, naive.len());
            prop_assert_eq!(outcome.version, live.version() + u64::from(changed));
            live = next;
            history.push((live.clone(), naive.clone(), stamps.clone()));
            for (at, (snapshot, set, stamps)) in history.iter().enumerate() {
                prop_assert_eq!(snapshot.len(), set.len());
                for h in 0..8u32 {
                    for r in 0..3u32 {
                        for t in 0..8u32 {
                            let tri = Triple::new(h, r, t);
                            prop_assert_eq!(snapshot.contains(tri), set.contains(&tri), "snapshot {}: {:?}", at, tri);
                            for side in QuerySide::BOTH {
                                prop_assert_eq!(
                                    snapshot.answers_changed_at(tri, side),
                                    stamps.get(&query_key(tri, side)).copied().unwrap_or(0),
                                    "snapshot {}: {:?} {:?}", at, tri, side
                                );
                            }
                        }
                    }
                }
            }
        }
        prop_assert_eq!(live.len(), naive.len());
        // The load-bearing contract: the overlay index answers exactly like
        // a FilterIndex rebuilt from scratch over the final triple set.
        let rebuilt = live.rebuilt();
        for h in 0..8u32 {
            for r in 0..3u32 {
                for t in 0..8u32 {
                    let tri = Triple::new(h, r, t);
                    prop_assert_eq!(live.contains(tri), naive.contains(&tri));
                    prop_assert_eq!(live.contains(tri), rebuilt.contains(tri));
                }
                prop_assert_eq!(
                    live.known_tails(kg_core::EntityId(h), kg_core::RelationId(r)),
                    rebuilt.known_tails(kg_core::EntityId(h), kg_core::RelationId(r)),
                    "known_tails diverged at ({}, {})", h, r
                );
                prop_assert_eq!(
                    live.known_heads(kg_core::RelationId(r), kg_core::EntityId(h)),
                    rebuilt.known_heads(kg_core::RelationId(r), kg_core::EntityId(h)),
                    "known_heads diverged at ({}, {})", r, h
                );
            }
        }
    }

    #[test]
    fn triple_store_slices_partition_triples(raw in proptest::collection::vec((0u32..10, 0u32..4, 0u32..10), 0..80)) {
        let triples: Vec<Triple> = raw.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect();
        let store = TripleStore::from_triples(triples, 10, 4);
        let total: usize = (0..4).map(|r| store.triples_of(kg_core::RelationId(r)).len()).sum();
        prop_assert_eq!(total, store.len());
        // heads_of counts sum to the relation's triple count.
        for r in 0..4u32 {
            let rel = kg_core::RelationId(r);
            let head_sum: u32 = store.heads_of(rel).iter().map(|ec| ec.count).sum();
            prop_assert_eq!(head_sum as usize, store.triples_of(rel).len());
            let tail_sum: u32 = store.tails_of(rel).iter().map(|ec| ec.count).sum();
            prop_assert_eq!(tail_sum as usize, store.triples_of(rel).len());
        }
    }
}
