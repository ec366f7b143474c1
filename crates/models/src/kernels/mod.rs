//! Hardware scoring kernels with runtime ISA dispatch.
//!
//! Every ranking path in the workspace bottoms out in "combine a query
//! vector with a contiguous block of embedding rows" (dot / negative-L1 /
//! negative-L2). This module owns that hot loop:
//!
//! * [`scalar`] is the **reference**: a fixed 8-lane accumulation with a
//!   fixed reduction tree (`lanes 0..8` striped over the dimension, tail
//!   dims into lanes `0..dim%8`, then the `(0+4)(1+5)(2+6)(3+7)` pairwise
//!   tree). Every other ISA implements *exactly* this order.
//! * [`x86`] is the AVX2 path. It deliberately uses `mul` + `add` (two
//!   roundings) rather than FMA: fused multiply-add rounds once and would
//!   produce different bits than the scalar reference, breaking the
//!   repo-wide byte-parity discipline across shards, partials and the
//!   gateway. The win comes from 8-wide lanes and 4-row register blocking
//!   (2 queries × 4 rows for a block of queries, [`combine_rows_block`]),
//!   not from fusion.
//! * [`neon`] is the arm64 path (two 4-lane vectors emulating the same
//!   8-lane virtual vector).
//! * [`quant`] holds the quantized-table kernels (f16 / int8 per-dimension
//!   affine), which are opt-in and documented with an accuracy budget.
//!
//! Because all ISAs share the lane order, **every f32 kernel is
//! bit-identical to scalar** — proptested in `tests/kernel_parity.rs`.
//!
//! Dispatch is resolved once per process from CPU feature detection, with a
//! `KG_KERNEL` environment override (`scalar` | `avx2` | `neon`; anything
//! unavailable on the host falls back to scalar). Tests and the perf smoke
//! can also force a path with [`force`].

pub mod quant;
pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub mod neon;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

pub use quant::{f16_to_f32, f32_to_f16, Precision, QuantizedTable};

/// How a query vector combines with entity rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Combine {
    /// `score = q · e`.
    Dot,
    /// `score = −Σ |q_k − e_k|` (TransE-L1, RotatE).
    NegL1,
    /// `score = −Σ (q_k − e_k)²` (TransE-L2).
    NegL2,
}

/// An instruction-set implementation of the combine kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Isa {
    /// Portable reference path (also the `KG_KERNEL=scalar` escape hatch).
    Scalar,
    /// x86-64 AVX2 (8 f32 lanes; requires the `avx2` CPU feature).
    Avx2,
    /// arm64 NEON (2×4 f32 lanes).
    Neon,
}

impl Isa {
    /// Stable lowercase name (used by `KG_KERNEL`, `/healthz`, `/metrics`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }

    fn code(self) -> u8 {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 2,
            Isa::Neon => 3,
        }
    }

    fn from_code(c: u8) -> Isa {
        match c {
            2 => Isa::Avx2,
            3 => Isa::Neon,
            _ => Isa::Scalar,
        }
    }
}

/// Whether `isa` can run on this host.
pub fn is_available(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        Isa::Avx2 => {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            {
                std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            {
                false
            }
        }
        Isa::Neon => cfg!(target_arch = "aarch64"),
    }
}

/// Whether the host can convert f16 lanes in hardware (F16C). Only
/// consulted by the quantized f16 kernel; every AVX2-era CPU has it.
pub fn f16c_available() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// The best ISA the host supports (ignores `KG_KERNEL`).
pub fn detect_best() -> Isa {
    if is_available(Isa::Avx2) {
        Isa::Avx2
    } else if is_available(Isa::Neon) {
        Isa::Neon
    } else {
        Isa::Scalar
    }
}

/// All ISAs runnable on this host (always starts with `Scalar`).
pub fn available() -> Vec<Isa> {
    let mut v = vec![Isa::Scalar];
    if is_available(Isa::Avx2) {
        v.push(Isa::Avx2);
    }
    if is_available(Isa::Neon) {
        v.push(Isa::Neon);
    }
    v
}

/// 0 = unresolved; otherwise an `Isa::code`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn resolve_from_env() -> Isa {
    match std::env::var("KG_KERNEL").ok().as_deref().map(str::to_ascii_lowercase).as_deref() {
        Some("scalar") => Isa::Scalar,
        Some("avx2") if is_available(Isa::Avx2) => Isa::Avx2,
        Some("neon") if is_available(Isa::Neon) => Isa::Neon,
        // Requested-but-unavailable paths fall back to the reference
        // implementation rather than crashing or silently picking another
        // SIMD flavour.
        Some("avx2") | Some("neon") => Isa::Scalar,
        _ => detect_best(),
    }
}

/// The ISA every dispatched kernel call uses. Resolved once per process
/// (CPU detection + `KG_KERNEL` override); later reads are one relaxed
/// atomic load, amortised over whole row ranges.
pub fn active() -> Isa {
    // ORDERING: Relaxed is enough on both sides — the byte is the only
    // shared state (no data is published behind it), and every thread
    // racing through the 0 branch computes the same `resolve_from_env()`
    // answer, so a duplicated store is idempotent.
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let isa = resolve_from_env();
            // ORDERING: Relaxed — idempotent cache fill, see above.
            ACTIVE.store(isa.code(), Ordering::Relaxed);
            isa
        }
        c => Isa::from_code(c),
    }
}

/// Force the active ISA for this process (clamped to what the host
/// supports; returns the effective choice). Used by the perf smoke to
/// compare paths in one process and available to embedders as a runtime
/// knob; production dispatch normally goes through `KG_KERNEL`/detection.
pub fn force(isa: Isa) -> Isa {
    let effective = if is_available(isa) { isa } else { Isa::Scalar };
    // ORDERING: Relaxed — the byte itself is the entire message; callers
    // that race with `force` get either the old or the new ISA, both valid.
    ACTIVE.store(effective.code(), Ordering::Relaxed);
    effective
}

/// Score `q` against every `dim`-wide row of `rows` (flat, row-major) into
/// `out`, on the active ISA.
#[inline]
pub fn combine_rows(c: Combine, q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    combine_rows_with(active(), c, q, rows, dim, out);
}

/// As [`combine_rows`] but on an explicit ISA (parity tests, perf smoke).
pub fn combine_rows_with(
    isa: Isa,
    c: Combine,
    q: &[f32],
    rows: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(q.len(), dim);
    debug_assert_eq!(rows.len(), out.len() * dim);
    match isa {
        Isa::Scalar => scalar::combine_rows(c, q, rows, dim, out),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => x86::combine_rows(c, q, rows, dim, out),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::combine_rows(c, q, rows, dim, out),
        #[allow(unreachable_patterns)]
        _ => scalar::combine_rows(c, q, rows, dim, out),
    }
}

/// Score each query of `qs` (`dim` floats each, back to back) against
/// every `dim`-wide row of `rows` into `out`, query-major: with
/// `n = rows.len() / dim`, `out[i * n..(i + 1) * n]` holds query `i`'s
/// scores. Each query gets exactly [`combine_rows`]'s bits — the reference
/// is that loop — and a block of one *is* [`combine_rows`].
#[inline]
pub fn combine_rows_block(c: Combine, qs: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    combine_rows_block_with(active(), c, qs, rows, dim, out);
}

/// As [`combine_rows_block`] but on an explicit ISA (parity tests).
pub fn combine_rows_block_with(
    isa: Isa,
    c: Combine,
    qs: &[f32],
    rows: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    if dim == 0 {
        // Every score of an empty row is the empty reduction.
        out.fill(combine_one_with(isa, c, &[], &[]));
        return;
    }
    let n = rows.len() / dim;
    debug_assert_eq!(out.len(), qs.len() / dim * n);
    if n == 0 {
        return;
    }
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => x86::combine_rows_block(c, qs, rows, dim, out),
        _ => {
            for (q, out) in qs.chunks_exact(dim).zip(out.chunks_exact_mut(n)) {
                combine_rows_with(isa, c, q, rows, dim, out);
            }
        }
    }
}

/// Score `q` against a single row on the active ISA.
#[inline]
pub fn combine_one(c: Combine, q: &[f32], e: &[f32]) -> f32 {
    combine_one_with(active(), c, q, e)
}

/// As [`combine_one`] but on an explicit ISA.
pub fn combine_one_with(isa: Isa, c: Combine, q: &[f32], e: &[f32]) -> f32 {
    debug_assert_eq!(q.len(), e.len());
    match isa {
        Isa::Scalar => scalar::combine_one(c, q, e),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => x86::combine_one(c, q, e),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::combine_one(c, q, e),
        #[allow(unreachable_patterns)]
        _ => scalar::combine_one(c, q, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_available_and_stable() {
        let a = active();
        assert!(is_available(a));
        assert_eq!(active(), a, "resolution is sticky");
        assert!(available().contains(&a));
    }

    #[test]
    fn force_clamps_to_host() {
        let prev = active();
        let eff = force(Isa::Avx2);
        if is_available(Isa::Avx2) {
            assert_eq!(eff, Isa::Avx2);
        } else {
            assert_eq!(eff, Isa::Scalar);
        }
        assert_eq!(active(), eff);
        force(prev);
    }

    #[test]
    fn isa_names_roundtrip() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Neon] {
            assert_eq!(Isa::from_code(isa.code()), isa);
            assert!(!isa.name().is_empty());
        }
    }

    #[test]
    fn every_available_isa_matches_scalar_on_a_smoke_vector() {
        let dim = 37; // odd: exercises the lane tail
        let q: Vec<f32> = (0..dim).map(|k| (k as f32) * 0.25 - 3.0).collect();
        let rows: Vec<f32> = (0..dim * 5).map(|k| ((k * 7 % 23) as f32) * 0.5 - 4.0).collect();
        for c in [Combine::Dot, Combine::NegL1, Combine::NegL2] {
            let mut want = vec![0.0f32; 5];
            scalar::combine_rows(c, &q, &rows, dim, &mut want);
            for isa in available() {
                let mut got = vec![0.0f32; 5];
                combine_rows_with(isa, c, &q, &rows, dim, &mut got);
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "{isa:?} {c:?} diverged from scalar");
            }
        }
    }
}
