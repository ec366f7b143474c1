//! Kernel parity suite: the contract that makes runtime ISA dispatch safe.
//!
//! 1. Every SIMD kernel must be **bit-identical** to the scalar reference
//!    for every Combine op, dimension, and value pattern (the scalar
//!    reference itself uses the canonical 8-lane accumulation order, and
//!    SIMD paths avoid FMA, so this is exact — not approximate — equality).
//! 2. The dispatched scoring path of every model family must produce the
//!    same bits whether forced to scalar or to the best detected ISA —
//!    this is what preserves shard/partial/gateway byte-parity.
//! 3. Quantized serving (f16/int8) must track the exact-f32 model within
//!    a documented accuracy budget on a *trained* model.

use kg_core::sample::seeded_rng;
use kg_core::triple::QuerySide;
use kg_core::{EntityId, RelationId, Triple};
use kg_models::io::{read_model, save_model};
use kg_models::kernels::{self, Combine, Isa};
use kg_models::trainer::{train_epoch, TrainConfig};
use kg_models::{
    build_model, KgcModel, ModelKind, Precision, QuantizedModel, QuantizedTable, ScoringEngine,
};
use proptest::prelude::*;
use std::sync::Arc;

/// f32 values including signed zeros, huge magnitudes (overflow to inf in
/// NegL2), subnormals, and infinities. NaN *inputs* are excluded — tables
/// never contain them — but NaNs generated by arithmetic (inf − inf,
/// inf · 0) still flow through both paths and must agree.
fn val() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => -1e6f32..1e6,
        1 => prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            Just(1e30f32),
            Just(-1e30f32),
            Just(1e-40f32),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
        ],
    ]
}

fn op() -> impl Strategy<Value = Combine> {
    prop_oneof![Just(Combine::Dot), Just(Combine::NegL1), Just(Combine::NegL2)]
}

/// A query vector and a flat row block of matching dimension (dim may be
/// 0; rows ≥ 1). Dimensions straddle the 8-lane boundary on purpose.
fn case(min_dim: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (min_dim..=96usize, 1usize..=10).prop_flat_map(|(dim, rows)| {
        (proptest::collection::vec(val(), dim), proptest::collection::vec(val(), dim * rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Explicit-ISA f32 kernels: every available ISA vs the scalar
    /// reference, bit for bit (single-row and blocked multi-row paths).
    #[test]
    fn simd_kernels_bitwise_match_scalar(c in op(), (q, flat) in case(0)) {
        let dim = q.len();
        let rows = flat.len().checked_div(dim).unwrap_or(3);
        let block = &flat[..rows * dim];
        let mut want = vec![0.0f32; rows];
        kernels::combine_rows_with(Isa::Scalar, c, &q, block, dim, &mut want);
        for isa in kernels::available() {
            let mut got = vec![0.0f32; rows];
            kernels::combine_rows_with(isa, c, &q, block, dim, &mut got);
            for i in 0..rows {
                prop_assert_eq!(
                    want[i].to_bits(), got[i].to_bits(),
                    "{:?} row {i} dim {dim}: {} vs {} ({})",
                    c, want[i], got[i], isa.name()
                );
            }
            // The single-row kernel is the same function the blocked path
            // falls back to for remainder rows — hold it to the same bits.
            for i in 0..rows {
                let one = kernels::combine_one_with(isa, c, &q, &block[i * dim..(i + 1) * dim]);
                prop_assert_eq!(want[i].to_bits(), one.to_bits());
            }
        }
    }

    /// Quantized kernels: scalar vs SIMD decode paths over the same table
    /// must agree bitwise for both storage precisions and all three ops.
    #[test]
    fn quantized_kernels_bitwise_match_scalar_isa(c in op(), (q, flat) in case(1)) {
        let dim = q.len();
        let rows = flat.len() / dim;
        let block = &flat[..rows * dim];
        for precision in [Precision::F16, Precision::Int8] {
            let table = QuantizedTable::from_rows(block, dim, precision);
            let mut want = vec![0.0f32; rows];
            table.combine_range_with(Isa::Scalar, c, &q, 0..rows, &mut want);
            for isa in kernels::available() {
                let mut got = vec![0.0f32; rows];
                table.combine_range_with(isa, c, &q, 0..rows, &mut got);
                for i in 0..rows {
                    prop_assert_eq!(
                        want[i].to_bits(), got[i].to_bits(),
                        "{} {:?} row {i} dim {dim} {} ({})",
                        precision.name(), c, want[i], isa.name()
                    );
                }
            }
        }
    }
}

/// The multi-query block kernel against one scalar `combine_rows` per
/// query, bit for bit, on every available ISA: every op, dimensions on
/// both sides of the 8-lane boundary, query counts that leave an odd query
/// out and row counts that leave 1–3 rows out of the 4-row blocks. Inputs
/// mix ordinary values with NaNs of two distinct payloads, ±0, ±∞ and
/// subnormals.
///
/// A NaN result must be NaN; its payload is not compared. Which of two
/// NaN operands an `add` or `mul` passes on depends on the operand order
/// the compiler picks, and it may swap the operands of either: the
/// single-query AVX2 kernel already keeps the query's payload where the
/// auto-vectorised reference keeps the row's. Every other bit is compared.
#[test]
fn block_kernel_bitwise_matches_per_query_scalar() {
    let nan_a = f32::from_bits(0x7fc0_0001);
    let nan_b = f32::from_bits(0xffc0_1234);
    let specials = [
        nan_a,
        nan_b,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -3e-39,
        f32::MIN_POSITIVE,
    ];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |special_every: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = state >> 33;
        if special_every > 0 && r.is_multiple_of(special_every) {
            specials[(r / special_every) as usize % specials.len()]
        } else {
            (r % 2001) as f32 / 250.0 - 4.0
        }
    };
    for c in [Combine::Dot, Combine::NegL1, Combine::NegL2] {
        for dim in [1usize, 3, 7, 8, 9, 12, 16, 17, 32, 33, 64] {
            for nq in 1usize..=9 {
                for n in [0usize, 1, 3, 4, 5, 8, 9, 67] {
                    // Plain values, then a special in roughly every fifth.
                    for special_every in [0u64, 5] {
                        let qs: Vec<f32> = (0..nq * dim).map(|_| next(special_every)).collect();
                        let rows: Vec<f32> = (0..n * dim).map(|_| next(special_every)).collect();
                        let mut want = vec![0.0f32; nq * n];
                        for (q, out) in qs.chunks(dim).zip(want.chunks_mut(n.max(1))) {
                            kernels::scalar::combine_rows(c, q, &rows, dim, out);
                        }
                        for isa in kernels::available() {
                            let mut got = vec![0.0f32; nq * n];
                            kernels::combine_rows_block_with(isa, c, &qs, &rows, dim, &mut got);
                            let bits = |v: &[f32]| {
                                v.iter()
                                    .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                                    .collect::<Vec<_>>()
                            };
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{} {c:?} dim {dim} nq {nq} rows {n} specials {special_every}",
                                isa.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The dispatched scoring surface of every model family, forced to scalar
/// and then to the best detected ISA, bit for bit. This is the whole-stack
/// version of the kernel-level property above: it catches any scoring path
/// that bypasses the kernel layer. Kept as ONE test function because
/// `force` mutates process-global dispatch state (the other tests here use
/// explicit-ISA entry points, so they can run concurrently).
#[test]
fn all_families_bit_identical_across_forced_isas() {
    let best = kernels::detect_best();
    let n = 40usize;
    let cands: Vec<EntityId> = (0..n as u32).step_by(3).map(EntityId).collect();
    for kind in ModelKind::ALL {
        let dim = match kind {
            ModelKind::ConvE => 16,
            ModelKind::Rescal | ModelKind::TuckEr => 8,
            _ => 12,
        };
        let model: Arc<dyn KgcModel> = Arc::from(build_model(kind, n, 3, dim, 1234) as Box<_>);
        let run = |isa: Isa| {
            assert_eq!(kernels::force(isa), isa, "{} unavailable on this host", isa.name());
            let mut tails = vec![0.0f32; n];
            let mut heads = vec![0.0f32; n];
            let mut range = vec![0.0f32; 14];
            let mut cand = vec![0.0f32; cands.len()];
            let tail_query = Triple::new(2, 1, 0);
            model.score_all(tail_query, QuerySide::Tail, &mut tails);
            model.score_all(Triple::new(0, 2, 9), QuerySide::Head, &mut heads);
            let mut q = vec![0.0f32; model.query_len()];
            model.build_query(tail_query, QuerySide::Tail, &mut q);
            model.score_rows(&q, 5..19, &mut range);
            model.score_candidates(tail_query, QuerySide::Tail, &cands, &mut cand);
            let point = model.score(EntityId(1), RelationId(0), EntityId(3));
            let top = ScoringEngine::new(Arc::clone(&model), 3).top_k(
                tail_query,
                QuerySide::Tail,
                &[EntityId(4)],
                5,
            );
            let top: Vec<(u32, u32)> = top.into_iter().map(|(e, s)| (e, s.to_bits())).collect();
            (tails, heads, range, cand, point, top)
        };
        let scalar = run(Isa::Scalar);
        let fast = run(best);
        kernels::force(best);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&scalar.0), bits(&fast.0), "{}: tail row diverged", kind.name());
        assert_eq!(bits(&scalar.1), bits(&fast.1), "{}: head row diverged", kind.name());
        assert_eq!(bits(&scalar.2), bits(&fast.2), "{}: range scoring diverged", kind.name());
        assert_eq!(bits(&scalar.3), bits(&fast.3), "{}: candidates diverged", kind.name());
        assert_eq!(scalar.4.to_bits(), fast.4.to_bits(), "{}: point score", kind.name());
        assert_eq!(scalar.5, fast.5, "{}: engine top-k diverged", kind.name());
        // The range slice must also equal the full pass (shard parity).
        assert_eq!(bits(&fast.2), bits(&fast.0[5..19]), "{}: range ≠ full slice", kind.name());
    }
}

/// Quantized serving accuracy on a trained model: MRR / Hits@k divergence
/// and worst-case rank displacement against the exact-f32 model. The
/// budgets asserted here are the ones documented in the README.
#[test]
fn quantized_accuracy_budget_on_trained_model() {
    // A ring with chords: enough structure that training separates
    // true answers from noise, small enough to rank exhaustively.
    let n = 30usize;
    let triples: Vec<Triple> = (0..n as u32)
        .flat_map(|i| {
            [Triple::new(i, 0, (i + 1) % n as u32), Triple::new(i, 1, (i + 7) % n as u32)]
        })
        .collect();
    let mut model = build_model(ModelKind::DistMult, n, 2, 16, 7);
    let mut rng = seeded_rng(3);
    for _ in 0..40 {
        train_epoch(model.as_mut(), &triples, &TrainConfig::default(), &mut rng);
    }

    // Optimistic rank of the true tail under full ranking.
    let rank_of = |m: &dyn kg_models::KgcModel, t: &Triple| -> usize {
        let mut scores = vec![0.0f32; n];
        m.score_all(*t, QuerySide::Tail, &mut scores);
        let truth = scores[t.tail.index()];
        1 + scores.iter().filter(|&&s| s > truth).count()
    };
    let stats = |m: &dyn kg_models::KgcModel| -> (f64, f64, Vec<usize>) {
        let ranks: Vec<usize> = triples.iter().map(|t| rank_of(m, t)).collect();
        let mrr = ranks.iter().map(|&r| 1.0 / r as f64).sum::<f64>() / ranks.len() as f64;
        let hits3 = ranks.iter().filter(|&&r| r <= 3).count() as f64 / ranks.len() as f64;
        (mrr, hits3, ranks)
    };
    let (mrr_f32, hits3_f32, ranks_f32) = stats(model.as_ref());
    assert!(mrr_f32 > 0.5, "training failed to separate answers (MRR {mrr_f32})");

    // (precision, MRR budget, Hits@3 budget, max per-query rank displacement)
    for (precision, mrr_tol, hits_tol, disp_tol) in
        [(Precision::F16, 0.005, 0.05, 1usize), (Precision::Int8, 0.05, 0.10, 4usize)]
    {
        let quant =
            QuantizedModel::from_model(model.as_ref(), ModelKind::DistMult, precision).unwrap();
        let (mrr_q, hits3_q, ranks_q) = stats(&quant);
        assert!(
            (mrr_f32 - mrr_q).abs() <= mrr_tol,
            "{}: MRR {mrr_f32} vs {mrr_q} exceeds budget {mrr_tol}",
            precision.name()
        );
        assert!(
            (hits3_f32 - hits3_q).abs() <= hits_tol,
            "{}: Hits@3 {hits3_f32} vs {hits3_q} exceeds budget {hits_tol}",
            precision.name()
        );
        let disp = ranks_f32.iter().zip(&ranks_q).map(|(&a, &b)| a.abs_diff(b)).max().unwrap();
        assert!(
            disp <= disp_tol,
            "{}: worst rank displacement {disp} exceeds budget {disp_tol}",
            precision.name()
        );
    }
}

/// `KG_KERNEL` forcing is clamped to available ISAs and never selects
/// quantization implicitly: a freshly built trainable model always reports
/// exact f32 regardless of the active kernel.
#[test]
fn precision_is_explicit_and_force_clamps() {
    let model = build_model(ModelKind::ComplEx, 8, 2, 8, 1);
    assert_eq!(model.precision(), Precision::F32);
    let mut saved = Vec::new();
    save_model(model.as_ref(), ModelKind::ComplEx, &mut saved).unwrap();
    let loaded = read_model(&mut saved.as_slice(), saved.len() as u64).unwrap();
    assert_eq!(loaded.precision_hint, Precision::F32);
    for isa in kernels::available() {
        assert!(kernels::is_available(isa));
    }
}
