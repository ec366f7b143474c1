//! The linear recommenders' one-pass propagation against the construction
//! it replaced: `X = spgemm(B, W)` held as an entity-major CSR matrix, its
//! domain/range cells regrouped into per-column lists and re-sorted by
//! `ScoreMatrix::from_columns`. Every column must match in entities and in
//! score bits.

use kg_core::sparse::{row_normalize_l1, spgemm, transpose, CooBuilder, CsrMatrix};
use kg_core::{DrColumn, EntityId, RelationId, Triple, TypeAssignment, TypeId};
use kg_datasets::Dataset;
use kg_recommend::{Lwd, RelationRecommender, ScoreMatrix, Wd};
use proptest::prelude::*;

/// Entities that may occur in a triple or a type membership. Entity
/// `TYPED` is at most typed, entity `BARE` never occurs anywhere.
const USED: u32 = 10;
const TYPED: u32 = USED;
const BARE: u32 = USED + 1;
const NE: usize = USED as usize + 2;
/// Relations that may occur in a triple; relation `USED_R` has none.
const USED_R: u32 = 3;
const NR: usize = USED_R as usize + 1;
const NT: usize = 4;

/// The incidence matrix `B`, built as L-WD and WD built it.
fn incidence(d: &Dataset, use_types: bool) -> CsrMatrix {
    let (ne, nr) = (d.num_entities(), d.num_relations());
    let nt = if use_types { d.types.num_types() } else { 0 };
    let mut b = CooBuilder::new(ne, 2 * nr + nt);
    for r in 0..nr {
        let rel = RelationId(r as u32);
        for ec in d.train.heads_of(rel) {
            b.push(ec.entity.index(), r, 1.0);
        }
        for ec in d.train.tails_of(rel) {
            b.push(ec.entity.index(), nr + r, 1.0);
        }
    }
    if use_types {
        for e in 0..ne {
            for &ty in d.types.types_of(EntityId(e as u32)) {
                b.push(e, 2 * nr + ty.index(), 1.0);
            }
        }
    }
    b.build()
}

/// A CSR matrix `X` with entities as rows and `≥ 2|R|` columns, as a score
/// matrix (extra type columns are ignored).
fn from_entity_major(x: &CsrMatrix, num_relations: usize) -> ScoreMatrix {
    let cols = 2 * num_relations;
    assert!(x.cols() >= cols, "matrix has too few columns");
    let mut columns: Vec<Vec<(u32, f32)>> = vec![Vec::new(); cols];
    for e in 0..x.rows() {
        let (idx, vals) = x.row(e);
        for (&c, &v) in idx.iter().zip(vals) {
            if (c as usize) < cols && v > 0.0 {
                columns[c as usize].push((e as u32, v));
            }
        }
    }
    ScoreMatrix::from_columns(x.rows(), num_relations, columns)
}

fn lwd_reference(d: &Dataset, use_types: bool) -> ScoreMatrix {
    let b = incidence(d, use_types);
    let mut w = spgemm(&transpose(&b), &b);
    row_normalize_l1(&mut w);
    from_entity_major(&spgemm(&b, &w), d.num_relations())
}

fn wd_reference(d: &Dataset, wd: Wd) -> ScoreMatrix {
    let (ne, nr) = (d.num_entities(), d.num_relations());
    let b = incidence(d, wd.use_types);
    let mut w = spgemm(&transpose(&b), &b);
    row_normalize_l1(&mut w);
    let mut kept = CooBuilder::new(w.rows(), w.cols());
    for i in 0..w.rows() {
        let (idx, vals) = w.row(i);
        for (&j, &v) in idx.iter().zip(vals) {
            if v >= wd.min_confidence {
                kept.push(i, j as usize, v * v);
            }
        }
    }
    let x = spgemm(&b, &kept.build());
    let mut columns: Vec<Vec<(u32, f32)>> = vec![Vec::new(); 2 * nr];
    for e in 0..ne {
        let deg = b.row_nnz(e);
        if deg == 0 {
            continue;
        }
        let (idx, vals) = x.row(e);
        for (&c, &v) in idx.iter().zip(vals) {
            if (c as usize) < 2 * nr && v > 0.0 {
                columns[c as usize].push((e as u32, v / deg as f32));
            }
        }
    }
    ScoreMatrix::from_columns(ne, nr, columns)
}

/// Equal shape, and every column equal in entities and in score bits
/// (which makes the column offsets equal too).
fn assert_same(got: &ScoreMatrix, want: &ScoreMatrix, what: &str) {
    assert_eq!(got.num_entities(), want.num_entities(), "{what}: |E|");
    assert_eq!(got.num_relations(), want.num_relations(), "{what}: |R|");
    for c in 0..want.num_columns() {
        let col = DrColumn(c as u32);
        let ((ge, gs), (we, ws)) = (got.column(col), want.column(col));
        assert_eq!(ge, we, "{what}: entities of column {c}");
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(gs), bits(ws), "{what}: score bits of column {c}");
    }
}

/// Random small graphs over `USED` entities and `USED_R` relations, with
/// type memberships that may also reach entity `TYPED`.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (
        proptest::collection::vec((0..USED, 0..USED_R, 0..USED), 1..50),
        proptest::collection::vec((0..=TYPED, 0..NT as u32), 0..16),
    )
        .prop_map(|(raw, pairs)| {
            let train = raw.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect();
            let pairs = pairs.iter().map(|&(e, t)| (EntityId(e), TypeId(t))).collect();
            let types = TypeAssignment::from_pairs(pairs, NE, NT);
            Dataset::new("propagation", train, vec![], vec![], types, None, NE, NR)
        })
}

proptest! {
    #[test]
    fn lwd_equals_the_sparse_product(d in dataset_strategy()) {
        assert_same(&Lwd::untyped().fit(&d), &lwd_reference(&d, false), "L-WD");
        assert_same(&Lwd::typed().fit(&d), &lwd_reference(&d, true), "L-WD-T");
    }

    #[test]
    fn wd_equals_the_sparse_product(d in dataset_strategy()) {
        for min_confidence in [0.0, 0.01, 0.3] {
            for use_types in [false, true] {
                let wd = Wd { min_confidence, use_types };
                assert_same(&wd.fit(&d), &wd_reference(&d, wd), wd.name());
            }
        }
    }
}

#[test]
fn the_uncovered_cases_occur() {
    // A bare entity, a relation without triples and a typed-only entity
    // are in every generated graph; the fixed graph below pins what the
    // recommenders do with them.
    let train = vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2), Triple::new(2, 0, 0)];
    let types = TypeAssignment::from_pairs(
        vec![(EntityId(0), TypeId(0)), (EntityId(TYPED), TypeId(0))],
        NE,
        NT,
    );
    let d = Dataset::new("uncovered", train, vec![], vec![], types, None, NE, NR);
    let (typed, untyped) = (Lwd::typed().fit(&d), Lwd::untyped().fit(&d));
    assert_same(&typed, &lwd_reference(&d, true), "L-WD-T");
    assert_same(&untyped, &lwd_reference(&d, false), "L-WD");
    for c in 0..2 * NR {
        let col = DrColumn(c as u32);
        assert_eq!(typed.score(BARE, col), 0.0, "an entity in no column scores nowhere");
        assert_eq!(untyped.score(TYPED, col), 0.0, "untyped L-WD cannot reach a typed-only entity");
    }
    assert!(typed.score(TYPED, DrColumn(0)) > 0.0, "L-WD-T reaches it through the type column");
    // The relation without triples still has columns; nothing reaches them.
    for col in [DrColumn::domain(RelationId(USED_R)), DrColumn::range(RelationId(USED_R), NR)] {
        assert!(typed.column(col).0.is_empty());
    }
}

#[test]
fn from_entity_major_transposes() {
    // entity-major X: e0 -> col0: 1.0, col1: 2.0; e1 -> col1: 3.0
    let x = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]);
    let m = from_entity_major(&x, 1);
    assert_eq!(m.column(DrColumn(0)).0, &[0]);
    assert_eq!(m.column(DrColumn(1)).0, &[0, 1]);
    assert_eq!(m.score(1, DrColumn(1)), 3.0);
}
