//! AVX2 kernels (x86-64).
//!
//! Same lane order as [`super::scalar`]: each 256-bit accumulator *is* the
//! scalar path's `[f32; 8]` lane array, updated with `mul` + `add` in the
//! same per-chunk order (no FMA — a fused multiply-add rounds once where
//! the scalar reference rounds twice, which would change bits). Tails and
//! the final reduction reuse the scalar helpers verbatim, so the whole
//! computation is bit-identical to scalar by construction.
//!
//! `combine_rows` additionally register-blocks four rows at a time: the
//! query chunk is loaded once and feeds four independent accumulator
//! chains, which hides the `add` latency that a single chain would expose.
//! Blocking across rows cannot change results — each row's own chain keeps
//! the canonical order.
//!
//! `combine_rows_block` blocks two queries × four rows: eight chains per
//! pass, each row chunk loaded once for both queries, and the eight lane
//! arrays folded by one transposed SIMD reduction that runs the scalar
//! tree on all of them at once (lower-lane operand first, as `reduce`).

#![allow(unsafe_code)]

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use super::scalar::{lane_step, reduce, LANES};
use super::Combine;

/// One SIMD lane-update: `acc[j] op= f(q[j], e[j])` for the 8 lanes.
///
/// # Safety
/// The caller must ensure AVX2 is available on the host (every caller is
/// a `#[target_feature(enable = "avx2")]` fn reached via dispatch).
#[inline(always)]
pub(super) unsafe fn step_avx2(c: Combine, acc: __m256, qa: __m256, ea: __m256) -> __m256 {
    // SAFETY: AVX2 availability is the caller's contract (`# Safety`
    // above); these intrinsics are register-only and touch no memory.
    unsafe {
        match c {
            Combine::Dot => _mm256_add_ps(acc, _mm256_mul_ps(qa, ea)),
            Combine::NegL1 => {
                let d = _mm256_sub_ps(qa, ea);
                // Clear the sign bit — exactly `f32::abs` (NaN payloads kept).
                let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), d);
                _mm256_add_ps(acc, abs)
            }
            Combine::NegL2 => {
                let d = _mm256_sub_ps(qa, ea);
                _mm256_add_ps(acc, _mm256_mul_ps(d, d))
            }
        }
    }
}

/// Spill the SIMD accumulator to the scalar lane array, fold the row tail
/// in with the scalar lane update, and run the scalar reduction tree.
///
/// # Safety
/// The caller must ensure AVX2 is available, and `full <= q.len()` and
/// `full <= row.len()` so the tail slices are in bounds.
#[inline(always)]
unsafe fn finish(c: Combine, acc: __m256, q: &[f32], row: &[f32], full: usize) -> f32 {
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is a [f32; 8] on the stack — exactly the 32 bytes an
    // unaligned 256-bit store writes; AVX2 is the caller's contract.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    lane_step(c, &mut lanes, &q[full..], &row[full..]);
    reduce(lanes, c)
}

/// # Safety
/// The caller must ensure AVX2 is available and `q.len() == e.len()`.
#[target_feature(enable = "avx2")]
unsafe fn combine_one_avx2(c: Combine, q: &[f32], e: &[f32]) -> f32 {
    let full = q.len() / LANES * LANES;
    let qp = q.as_ptr();
    let ep = e.as_ptr();
    // SAFETY: `k + LANES <= full <= q.len() == e.len()` bounds every load;
    // AVX2 is enabled on this fn and asserted available by dispatch.
    unsafe {
        let mut acc = _mm256_setzero_ps();
        let mut k = 0;
        while k < full {
            acc = step_avx2(c, acc, _mm256_loadu_ps(qp.add(k)), _mm256_loadu_ps(ep.add(k)));
            k += LANES;
        }
        finish(c, acc, q, e, full)
    }
}

/// # Safety
/// The caller must ensure AVX2 is available, `q.len() == dim`, and
/// `rows.len() == out.len() * dim`.
#[target_feature(enable = "avx2")]
unsafe fn combine_rows_avx2(c: Combine, q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    let full = dim / LANES * LANES;
    let qp = q.as_ptr();
    let n = out.len();
    let mut i = 0;
    // Four-row register blocking: one query load feeds four chains.
    while i + 4 <= n {
        // SAFETY: rows `i..i+4` exist because `i + 4 <= n` and
        // `rows.len() == n * dim`; every load offset is `< dim` within its
        // row. AVX2 is enabled on this fn.
        unsafe {
            let r0 = rows.as_ptr().add(i * dim);
            let r1 = rows.as_ptr().add((i + 1) * dim);
            let r2 = rows.as_ptr().add((i + 2) * dim);
            let r3 = rows.as_ptr().add((i + 3) * dim);
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut k = 0;
            while k < full {
                let qa = _mm256_loadu_ps(qp.add(k));
                a0 = step_avx2(c, a0, qa, _mm256_loadu_ps(r0.add(k)));
                a1 = step_avx2(c, a1, qa, _mm256_loadu_ps(r1.add(k)));
                a2 = step_avx2(c, a2, qa, _mm256_loadu_ps(r2.add(k)));
                a3 = step_avx2(c, a3, qa, _mm256_loadu_ps(r3.add(k)));
                k += LANES;
            }
            out[i] = finish(c, a0, q, &rows[i * dim..(i + 1) * dim], full);
            out[i + 1] = finish(c, a1, q, &rows[(i + 1) * dim..(i + 2) * dim], full);
            out[i + 2] = finish(c, a2, q, &rows[(i + 2) * dim..(i + 3) * dim], full);
            out[i + 3] = finish(c, a3, q, &rows[(i + 3) * dim..(i + 4) * dim], full);
        }
        i += 4;
    }
    while i < n {
        // SAFETY: `i < n` keeps the row slice in bounds; slice lengths
        // match `combine_one_avx2`'s contract.
        out[i] = unsafe { combine_one_avx2(c, q, &rows[i * dim..(i + 1) * dim]) };
        i += 1;
    }
}

/// `[x.lo + x.hi | y.lo + y.hi]`: the reduction tree's first level,
/// `(0+4)(1+5)(2+6)(3+7)`, for two lane arrays at once.
///
/// # Safety
/// The caller must ensure AVX2 is available.
#[inline(always)]
unsafe fn add_halves(x: __m256, y: __m256) -> __m256 {
    // SAFETY: register-only AVX intrinsics; AVX2 is the caller's contract.
    unsafe { _mm256_add_ps(_mm256_permute2f128_ps(x, y, 0x20), _mm256_permute2f128_ps(x, y, 0x31)) }
}

/// `shuffle(x, y, LO) + shuffle(x, y, HI)`: one later level of the tree
/// within each 128-bit lane, for two registers at once.
///
/// # Safety
/// The caller must ensure AVX2 is available.
#[inline(always)]
unsafe fn shuffle_add<const LO: i32, const HI: i32>(x: __m256, y: __m256) -> __m256 {
    // SAFETY: register-only AVX intrinsics; AVX2 is the caller's contract.
    unsafe { _mm256_add_ps(_mm256_shuffle_ps::<LO>(x, y), _mm256_shuffle_ps::<HI>(x, y)) }
}

/// The eight lane arrays of a 2-query × 4-row block, `[row][query]`.
type Accs2x4 = [[__m256; 2]; 4];

/// [`reduce`] for eight lane arrays at once: `acc[r][j]` is query `j`'s
/// accumulator for row `r`, and the result holds query 0's four row
/// scores, then query 1's.
///
/// # Safety
/// The caller must ensure AVX2 is available.
#[inline(always)]
unsafe fn reduce_2x4(c: Combine, acc: &Accs2x4) -> __m256 {
    // SAFETY: register-only AVX/AVX2 intrinsics; AVX2 is the caller's
    // contract.
    unsafe {
        // Per query: [b(r0) | b(r1)] and [b(r2) | b(r3)], then
        // (b0+b2)(b1+b3) → lanes [d(r0) d(r2) | d(r1) d(r3)], 2 each.
        let [r0, r1, r2, r3] = acc;
        let q0 = shuffle_add::<0b01_00_01_00, 0b11_10_11_10>(
            add_halves(r0[0], r1[0]),
            add_halves(r2[0], r3[0]),
        );
        let q1 = shuffle_add::<0b01_00_01_00, 0b11_10_11_10>(
            add_halves(r0[1], r1[1]),
            add_halves(r2[1], r3[1]),
        );
        // d0+d1: lanes hold rows [0 2 | 1 3] of query 0, then of query 1.
        let s = shuffle_add::<0b10_00_10_00, 0b11_01_11_01>(q0, q1);
        let s = _mm256_permutevar8x32_ps(s, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
        match c {
            Combine::Dot => s,
            // `-s` flips the sign bit alone, NaN or not.
            Combine::NegL1 | Combine::NegL2 => _mm256_xor_ps(s, _mm256_set1_ps(-0.0)),
        }
    }
}

/// # Safety
/// The caller must ensure AVX2 is available, `dim > 0`, `qs.len()` and
/// `rows.len()` are multiples of `dim`, and
/// `out.len() == qs.len() / dim * rows.len() / dim`.
#[target_feature(enable = "avx2")]
unsafe fn combine_rows_block_avx2(
    c: Combine,
    qs: &[f32],
    rows: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    let full = dim / LANES * LANES;
    let n = rows.len() / dim;
    let mut pairs = qs.chunks_exact(2 * dim);
    let mut outs = out.chunks_exact_mut(2 * n);
    for (pair, out) in (&mut pairs).zip(&mut outs) {
        let (q0, q1) = pair.split_at(dim);
        let (o0, o1) = out.split_at_mut(n);
        let mut i = 0;
        while i + 4 <= n {
            let block = &rows[i * dim..(i + 4) * dim];
            // SAFETY: `block` is four whole rows and `q0`, `q1` are `dim`
            // long, so every load offset `k + LANES <= full <= dim` is in
            // bounds; the stores write four floats at `i + 4 <= n` into
            // `o0` and `o1`, which are `n` long. AVX2 is enabled on this fn.
            unsafe {
                let mut acc: Accs2x4 = [[_mm256_setzero_ps(); 2]; 4];
                let mut k = 0;
                while k < full {
                    let q0a = _mm256_loadu_ps(q0.as_ptr().add(k));
                    let q1a = _mm256_loadu_ps(q1.as_ptr().add(k));
                    for (r, [a0, a1]) in acc.iter_mut().enumerate() {
                        let ea = _mm256_loadu_ps(block.as_ptr().add(r * dim + k));
                        *a0 = step_avx2(c, *a0, q0a, ea);
                        *a1 = step_avx2(c, *a1, q1a, ea);
                    }
                    k += LANES;
                }
                if full < dim {
                    for (r, accs) in acc.iter_mut().enumerate() {
                        let row = &block[r * dim + full..(r + 1) * dim];
                        for (acc, q) in accs.iter_mut().zip([q0, q1]) {
                            let mut lanes = [0.0f32; LANES];
                            _mm256_storeu_ps(lanes.as_mut_ptr(), *acc);
                            lane_step(c, &mut lanes, &q[full..], row);
                            *acc = _mm256_loadu_ps(lanes.as_ptr());
                        }
                    }
                }
                let s = reduce_2x4(c, &acc);
                _mm_storeu_ps(o0.as_mut_ptr().add(i), _mm256_castps256_ps128(s));
                _mm_storeu_ps(o1.as_mut_ptr().add(i), _mm256_extractf128_ps(s, 1));
            }
            i += 4;
        }
        for i in i..n {
            let row = &rows[i * dim..(i + 1) * dim];
            // SAFETY: `row`, `q0` and `q1` are all `dim` long.
            unsafe {
                o0[i] = combine_one_avx2(c, q0, row);
                o1[i] = combine_one_avx2(c, q1, row);
            }
        }
    }
    // An odd query out is the single-query kernel itself.
    if !pairs.remainder().is_empty() {
        // SAFETY: the remainder is one `dim`-long query and its `n` outputs.
        unsafe { combine_rows_avx2(c, pairs.remainder(), rows, dim, outs.into_remainder()) };
    }
}

/// AVX2 single-row combine. Caller must have verified AVX2 is available
/// (dispatch in [`super::combine_one_with`] does).
pub fn combine_one(c: Combine, q: &[f32], e: &[f32]) -> f32 {
    debug_assert!(super::is_available(super::Isa::Avx2));
    // SAFETY: dispatch only routes here when AVX2 is detected; slices are
    // equal-length and only read within bounds.
    unsafe { combine_one_avx2(c, q, e) }
}

/// AVX2 row-block combine. Caller must have verified AVX2 is available.
pub fn combine_rows(c: Combine, q: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    debug_assert!(super::is_available(super::Isa::Avx2));
    debug_assert_eq!(rows.len(), out.len() * dim);
    // SAFETY: as above; row pointers stay within `rows` because
    // `rows.len() == out.len() * dim`.
    unsafe { combine_rows_avx2(c, q, rows, dim, out) }
}

/// AVX2 multi-query combine (see [`super::combine_rows_block`]). Caller
/// must have verified AVX2 is available.
pub fn combine_rows_block(c: Combine, qs: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    debug_assert!(super::is_available(super::Isa::Avx2));
    // Checked, not debug-checked: the raw loads below rely on every shape.
    assert!(
        dim > 0 && qs.len().is_multiple_of(dim) && rows.len().is_multiple_of(dim),
        "ragged block"
    );
    assert_eq!(out.len(), qs.len() / dim * (rows.len() / dim), "block output length");
    // SAFETY: AVX2 as above; the asserts are the fn's shape contract.
    unsafe { combine_rows_block_avx2(c, qs, rows, dim, out) }
}
