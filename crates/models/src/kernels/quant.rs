//! Quantized embedding tables: f16 and int8 (per-dimension affine) with
//! dequantize-free scoring kernels.
//!
//! The exact-f32 path stays the default everywhere; quantization is chosen
//! explicitly (snapshot precision header, `RegistryConfig`, or the admin
//! reload body) and its accuracy budget is measured and documented (see the
//! README "Scoring kernels" section and `tests/kernel_parity.rs`).
//!
//! * **f16** stores each weight as an IEEE half. f16 → f32 conversion is
//!   exact, so a scored row equals the scalar f32 kernel run on the
//!   converted values; the only error is the storage rounding
//!   (~0.05% relative per weight). Hardware conversion (`F16C`) is used
//!   under AVX2 when available.
//! * **int8** stores one byte per weight plus a per-dimension affine map
//!   `v ≈ offset_k + scale_k · code`. Kernels never materialise the
//!   dequantized row: for `Dot` the affine folds into a transformed query
//!   (`Σ q_k·v_k = Σ (q_k·s_k)·code_k + Σ q_k·o_k`), and for the distance
//!   ops into a shifted query (`q_k − v_k = (q_k − o_k) − s_k·code_k`), so
//!   the inner loop is a byte load, an exact u8→f32 convert, and the same
//!   mul/add lane update as the f32 kernels.
//!
//! Both quantized kernels use the canonical 8-lane order of
//! [`super::scalar`], so the scalar and AVX2 *quantized* paths are
//! bit-identical to each other (proptested) — only quantized-vs-f32
//! differs, and that difference is the documented budget.

#![allow(unsafe_code)]

use std::ops::Range;

use kg_core::AlignedVec;

use super::scalar::{lane_step, reduce, LANES};
use super::{Combine, Isa};

/// Storage precision of an embedding table on the serving path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Precision {
    /// Exact 32-bit floats — the default and the parity reference.
    #[default]
    F32,
    /// IEEE half precision (2 bytes/weight).
    F16,
    /// 8-bit codes with per-dimension scale/offset (1 byte/weight + 8
    /// bytes/dimension of affine parameters).
    Int8,
}

impl Precision {
    /// Stable lowercase name (wire format, env/config values, metrics).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Parse a precision name (`f32` | `f16` | `int8`).
    pub fn parse(s: &str) -> Option<Precision> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "f16" => Some(Precision::F16),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Whether this precision stores anything other than exact f32.
    pub fn is_quantized(self) -> bool {
        !matches!(self, Precision::F32)
    }

    /// Snapshot-header byte (format v2).
    pub fn to_byte(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::Int8 => 2,
        }
    }

    /// Inverse of [`Precision::to_byte`].
    pub fn from_byte(b: u8) -> Option<Precision> {
        match b {
            0 => Some(Precision::F32),
            1 => Some(Precision::F16),
            2 => Some(Precision::Int8),
            _ => None,
        }
    }
}

/// Exact IEEE f16 → f32 conversion (software; bit-equivalent to `F16C`
/// hardware conversion for every value `f32_to_f16` can produce).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x3FF) as u32;
    if exp == 0x1F {
        // Inf / NaN: payload shifts into the f32 mantissa.
        return f32::from_bits(sign | 0x7F80_0000 | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal half: value = man · 2⁻²⁴; normalise into f32.
        let p = 31 - man.leading_zeros(); // position of the leading 1
        let exp32 = p + 103; // (p − 24) + 127
        let man32 = (man << (23 - p)) & 0x007F_FFFF;
        return f32::from_bits(sign | (exp32 << 23) | man32);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// f32 → IEEE f16 with round-to-nearest-even (quantization-time only; the
/// scoring path never converts this direction).
pub fn f32_to_f16(f: f32) -> u16 {
    let x = f.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let exp = ((x >> 23) & 0xFF) as i32;
    let man = x & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf stays inf; NaN becomes the canonical quiet NaN so quantized
        // tables never hold signalling halves (keeps hardware and software
        // f16→f32 conversion bit-identical).
        return if man == 0 { sign | 0x7C00 } else { sign | 0x7E00 };
    }
    let e16 = exp - 112; // exp − 127 + 15
    if e16 >= 31 {
        return sign | 0x7C00; // overflow → ±inf
    }
    if e16 >= 1 {
        // Normal: RNE on the 13 dropped mantissa bits; a mantissa carry
        // rolls into the exponent arithmetically (up to inf, which is the
        // correct rounding of values just under 2¹⁶).
        let mut m = man >> 13;
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        return sign | (((e16 as u32) << 10) + m) as u16;
    }
    if exp == 0 {
        return sign; // f32 subnormal: far below half range → ±0
    }
    // Subnormal half: shift the full 24-bit significand down with RNE.
    let shift = 14 - e16; // ≥ 14
    if shift > 25 {
        return sign; // < half of the smallest subnormal → ±0
    }
    let m = (man | 0x0080_0000) as u64;
    let kept = m >> shift;
    let rem = m & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    let mut h = kept as u16;
    if rem > half || (rem == half && h & 1 == 1) {
        h += 1;
    }
    sign | h
}

enum Repr {
    F16(AlignedVec<u16>),
    Int8 { codes: AlignedVec<u8>, scale: AlignedVec<f32>, offset: AlignedVec<f32> },
}

/// A `count × dim` embedding table stored at reduced precision, scored by
/// dequantize-free kernels.
pub struct QuantizedTable {
    dim: usize,
    count: usize,
    repr: Repr,
}

impl QuantizedTable {
    /// Quantize a flat row-major f32 table. `precision` must be a
    /// quantized variant — the f32 path keeps using `EmbeddingTable`.
    pub fn from_rows(data: &[f32], dim: usize, precision: Precision) -> Self {
        assert!(dim > 0, "QuantizedTable requires dim > 0");
        assert!(data.len().is_multiple_of(dim), "data length must be a multiple of dim");
        assert!(precision.is_quantized(), "use EmbeddingTable for exact f32 storage");
        let count = data.len() / dim;
        let repr = match precision {
            Precision::F16 => Repr::F16(AlignedVec::from_fn(data.len(), |i| f32_to_f16(data[i]))),
            Precision::Int8 => {
                let mut lo = vec![f32::INFINITY; dim];
                let mut hi = vec![f32::NEG_INFINITY; dim];
                for row in data.chunks_exact(dim) {
                    for (k, &v) in row.iter().enumerate() {
                        if v.is_finite() {
                            lo[k] = lo[k].min(v);
                            hi[k] = hi[k].max(v);
                        }
                    }
                }
                let mut scale = AlignedVec::zeroed(dim);
                let mut offset = AlignedVec::zeroed(dim);
                for k in 0..dim {
                    if lo[k].is_finite() && hi[k] > lo[k] {
                        scale[k] = (hi[k] - lo[k]) / 255.0;
                        offset[k] = lo[k];
                    } else if lo[k].is_finite() {
                        offset[k] = lo[k]; // constant column: code 0 ⇒ value
                    }
                }
                let codes: AlignedVec<u8> = data
                    .chunks_exact(dim)
                    .flat_map(|row| {
                        row.iter().enumerate().map(|(k, &v)| {
                            if scale[k] > 0.0 && v.is_finite() {
                                (((v - offset[k]) / scale[k]).round()).clamp(0.0, 255.0) as u8
                            } else {
                                0
                            }
                        })
                    })
                    .collect();
                Repr::Int8 { codes, scale, offset }
            }
            Precision::F32 => unreachable!(),
        };
        QuantizedTable { dim, count, repr }
    }

    /// Row dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Which quantized precision this table stores.
    pub fn precision(&self) -> Precision {
        match self.repr {
            Repr::F16(_) => Precision::F16,
            Repr::Int8 { .. } => Precision::Int8,
        }
    }

    /// Bytes of table storage (codes + affine parameters).
    #[cfg(test)]
    pub fn bytes(&self) -> usize {
        match &self.repr {
            Repr::F16(h) => h.len() * 2,
            Repr::Int8 { codes, scale, offset } => codes.len() + (scale.len() + offset.len()) * 4,
        }
    }

    /// Reconstruct row `i` as f32 (RotatE's phase-distance path and the
    /// quantized model's query construction use this; the Combine kernels
    /// below never do).
    pub fn dequantize_row(&self, i: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        match &self.repr {
            Repr::F16(h) => {
                let row = &h[i * self.dim..(i + 1) * self.dim];
                for (o, &bits) in out.iter_mut().zip(row) {
                    *o = f16_to_f32(bits);
                }
            }
            Repr::Int8 { codes, scale, offset } => {
                let row = &codes[i * self.dim..(i + 1) * self.dim];
                for (k, (o, &code)) in out.iter_mut().zip(row).enumerate() {
                    *o = offset[k] + scale[k] * (code as f32);
                }
            }
        }
    }

    /// Score `q` against rows `rows` into `out` on the active ISA.
    pub fn combine_range(&self, c: Combine, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
        self.combine_range_with(super::active(), c, q, rows, out);
    }

    /// As [`QuantizedTable::combine_range`] on an explicit ISA. The
    /// quantized kernels have scalar and AVX2 implementations; any other
    /// ISA takes the scalar quant path (still bit-identical — the lane
    /// order is shared).
    pub fn combine_range_with(
        &self,
        isa: Isa,
        c: Combine,
        q: &[f32],
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(q.len(), self.dim);
        debug_assert_eq!(out.len(), rows.len());
        debug_assert!(rows.end <= self.count);
        let dim = self.dim;
        match &self.repr {
            Repr::F16(h) => {
                let flat = &h[rows.start * dim..rows.end * dim];
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                if isa == Isa::Avx2 && super::f16c_available() {
                    // SAFETY: AVX2+F16C verified; slice lengths checked.
                    unsafe { f16_rows_avx2(c, q, flat, dim, out) };
                    return;
                }
                let _ = isa;
                f16_rows_scalar(c, q, flat, dim, out);
            }
            Repr::Int8 { codes, scale, offset } => {
                let pre = Pre::new(c, q, scale, offset);
                let flat = &codes[rows.start * dim..rows.end * dim];
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                if isa == Isa::Avx2 {
                    // SAFETY: AVX2 verified by dispatch; lengths checked.
                    unsafe { int8_rows_avx2(c, &pre, scale, flat, dim, out) };
                    return;
                }
                let _ = isa;
                int8_rows_scalar(c, &pre, scale, flat, dim, out);
            }
        }
    }

    /// Score `q` against the single row `i` on the active ISA.
    pub fn combine_one(&self, c: Combine, q: &[f32], i: usize) -> f32 {
        let mut out = [0.0f32];
        self.combine_range(c, q, i..i + 1, &mut out);
        out[0]
    }
}

/// Per-query precomputation that folds the affine map out of the int8
/// inner loop. Computed once per range call, always in scalar (identical
/// for every ISA, so it never affects parity).
struct Pre {
    /// `Dot`: `q_k · s_k`; `NegL1`/`NegL2`: `q_k − o_k`.
    a: Vec<f32>,
    /// `Dot` only: `Σ q_k · o_k`, accumulated in the canonical lane order.
    bias: f32,
}

impl Pre {
    fn new(c: Combine, q: &[f32], scale: &[f32], offset: &[f32]) -> Pre {
        match c {
            Combine::Dot => Pre {
                a: q.iter().zip(scale.iter()).map(|(&qk, &sk)| qk * sk).collect(),
                bias: super::scalar::combine_one(Combine::Dot, q, offset),
            },
            Combine::NegL1 | Combine::NegL2 => Pre {
                a: q.iter().zip(offset.iter()).map(|(&qk, &ok)| qk - ok).collect(),
                bias: 0.0,
            },
        }
    }
}

/// One int8 lane update on lanes `0..n` of `acc` (the scalar reference
/// order; tails of the AVX2 path reuse it).
#[inline(always)]
fn int8_lane_step(c: Combine, acc: &mut [f32; LANES], a: &[f32], scale: &[f32], codes: &[u8]) {
    match c {
        Combine::Dot => {
            for j in 0..codes.len() {
                acc[j] += a[j] * (codes[j] as f32);
            }
        }
        Combine::NegL1 => {
            for j in 0..codes.len() {
                let t = a[j] - scale[j] * (codes[j] as f32);
                acc[j] += t.abs();
            }
        }
        Combine::NegL2 => {
            for j in 0..codes.len() {
                let t = a[j] - scale[j] * (codes[j] as f32);
                acc[j] += t * t;
            }
        }
    }
}

fn int8_one_scalar(c: Combine, pre: &Pre, scale: &[f32], codes: &[u8]) -> f32 {
    let dim = codes.len();
    let full = dim / LANES * LANES;
    let mut acc = [0.0f32; LANES];
    let mut k = 0;
    while k < full {
        int8_lane_step(
            c,
            &mut acc,
            &pre.a[k..k + LANES],
            &scale[k..k + LANES],
            &codes[k..k + LANES],
        );
        k += LANES;
    }
    int8_lane_step(c, &mut acc, &pre.a[full..], &scale[full..], &codes[full..]);
    let s = reduce(acc, c);
    if matches!(c, Combine::Dot) {
        s + pre.bias
    } else {
        s
    }
}

fn int8_rows_scalar(
    c: Combine,
    pre: &Pre,
    scale: &[f32],
    flat: &[u8],
    dim: usize,
    out: &mut [f32],
) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = int8_one_scalar(c, pre, scale, &flat[i * dim..(i + 1) * dim]);
    }
}

fn f16_one_scalar(c: Combine, q: &[f32], row: &[u16]) -> f32 {
    let dim = row.len();
    let full = dim / LANES * LANES;
    let mut acc = [0.0f32; LANES];
    let mut tmp = [0.0f32; LANES];
    let mut k = 0;
    while k < full {
        for (t, &bits) in tmp.iter_mut().zip(&row[k..k + LANES]) {
            *t = f16_to_f32(bits);
        }
        lane_step(c, &mut acc, &q[k..k + LANES], &tmp);
        k += LANES;
    }
    let tail = dim - full;
    for j in 0..tail {
        tmp[j] = f16_to_f32(row[full + j]);
    }
    lane_step(c, &mut acc, &q[full..], &tmp[..tail]);
    reduce(acc, c)
}

fn f16_rows_scalar(c: Combine, q: &[f32], flat: &[u16], dim: usize, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = f16_one_scalar(c, q, &flat[i * dim..(i + 1) * dim]);
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::super::scalar::{lane_step, reduce, LANES};
    use super::{int8_lane_step, Combine, Pre};

    /// # Safety
    /// AVX2 must be available and `codes` must point at ≥ 8 readable bytes.
    #[inline(always)]
    unsafe fn int8_step(
        c: Combine,
        acc: __m256,
        av: __m256,
        sv: __m256,
        codes: *const u8,
    ) -> __m256 {
        // SAFETY: the 64-bit load reads the 8 bytes the caller guarantees;
        // everything else is register-only. AVX2 is the caller's contract.
        unsafe {
            // 8 bytes → 8 exact f32 lanes (both conversions are exact, so
            // this equals the scalar `code as f32`).
            let cv =
                _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(codes.cast::<__m128i>())));
            match c {
                Combine::Dot => _mm256_add_ps(acc, _mm256_mul_ps(av, cv)),
                Combine::NegL1 => {
                    let t = _mm256_sub_ps(av, _mm256_mul_ps(sv, cv));
                    _mm256_add_ps(acc, _mm256_andnot_ps(_mm256_set1_ps(-0.0), t))
                }
                Combine::NegL2 => {
                    let t = _mm256_sub_ps(av, _mm256_mul_ps(sv, cv));
                    _mm256_add_ps(acc, _mm256_mul_ps(t, t))
                }
            }
        }
    }

    /// # Safety
    /// AVX2 must be available; `pre.a.len() == scale.len() == dim` and
    /// `flat.len() == out.len() * dim`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn int8_rows(
        c: Combine,
        pre: &Pre,
        scale: &[f32],
        flat: &[u8],
        dim: usize,
        out: &mut [f32],
    ) {
        let full = dim / LANES * LANES;
        for (i, o) in out.iter_mut().enumerate() {
            let row = &flat[i * dim..(i + 1) * dim];
            // SAFETY: `k + LANES <= full <= dim` bounds every load against
            // `pre.a`, `scale`, and `row` (all `dim` long); the store spills
            // into a stack [f32; 8]. AVX2 is enabled on this fn.
            unsafe {
                let mut acc = _mm256_setzero_ps();
                let mut k = 0;
                while k < full {
                    let av = _mm256_loadu_ps(pre.a.as_ptr().add(k));
                    let sv = _mm256_loadu_ps(scale.as_ptr().add(k));
                    acc = int8_step(c, acc, av, sv, row.as_ptr().add(k));
                    k += LANES;
                }
                let mut lanes = [0.0f32; LANES];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                int8_lane_step(c, &mut lanes, &pre.a[full..], &scale[full..], &row[full..]);
                let s = reduce(lanes, c);
                *o = if matches!(c, Combine::Dot) { s + pre.bias } else { s };
            }
        }
    }

    /// # Safety
    /// AVX2 and F16C must be available; `q.len() == dim` and
    /// `flat.len() == out.len() * dim`.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn f16_rows(
        c: Combine,
        q: &[f32],
        flat: &[u16],
        dim: usize,
        out: &mut [f32],
    ) {
        let full = dim / LANES * LANES;
        for (i, o) in out.iter_mut().enumerate() {
            let row = &flat[i * dim..(i + 1) * dim];
            // SAFETY: `k + LANES <= full <= dim` bounds every load against
            // `q` and `row` (both `dim` long); the store spills into a
            // stack [f32; 8]. AVX2+F16C are enabled on this fn.
            unsafe {
                let mut acc = _mm256_setzero_ps();
                let mut k = 0;
                while k < full {
                    let qa = _mm256_loadu_ps(q.as_ptr().add(k));
                    let ea =
                        _mm256_cvtph_ps(_mm_loadu_si128(row.as_ptr().add(k).cast::<__m128i>()));
                    acc = super::super::x86::step_avx2(c, acc, qa, ea);
                    k += LANES;
                }
                let mut lanes = [0.0f32; LANES];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                let tail = dim - full;
                let mut tmp = [0.0f32; LANES];
                for j in 0..tail {
                    tmp[j] = super::f16_to_f32(row[full + j]);
                }
                lane_step(c, &mut lanes, &q[full..], &tmp[..tail]);
                *o = reduce(lanes, c);
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use avx2::{f16_rows as f16_rows_avx2_impl, int8_rows as int8_rows_avx2_impl};

/// # Safety
/// Same contract as [`avx2::int8_rows`]: AVX2 available, matching lengths.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
unsafe fn int8_rows_avx2(
    c: Combine,
    pre: &Pre,
    scale: &[f32],
    flat: &[u8],
    dim: usize,
    out: &mut [f32],
) {
    // SAFETY: forwarded verbatim; the caller upholds the shared contract.
    unsafe { int8_rows_avx2_impl(c, pre, scale, flat, dim, out) }
}

/// # Safety
/// Same contract as [`avx2::f16_rows`]: AVX2+F16C available, matching
/// lengths.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
unsafe fn f16_rows_avx2(c: Combine, q: &[f32], flat: &[u16], dim: usize, out: &mut [f32]) {
    // SAFETY: forwarded verbatim; the caller upholds the shared contract.
    unsafe { f16_rows_avx2_impl(c, q, flat, dim, out) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_is_exact_for_representable_values() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 65504.0, -65504.0, 6.1035156e-5, 5.9604645e-8] {
            let back = f16_to_f32(f32_to_f16(v));
            assert_eq!(back.to_bits(), v.to_bits(), "{v} not preserved");
        }
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Overflow saturates to inf, tiny values flush to zero.
        assert_eq!(f16_to_f32(f32_to_f16(1e9)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(1e-9)), 0.0);
    }

    #[test]
    fn f16_rounding_is_nearest_even() {
        // 1.0 + 2⁻¹¹ is exactly halfway between 1.0 and the next half up
        // (1.0 + 2⁻¹⁰): ties-to-even keeps 1.0.
        let halfway = 1.0 + 2f32.powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(halfway)), 1.0);
        // Just above the tie rounds up.
        let above = 1.0 + 2f32.powi(-11) + 2f32.powi(-20);
        assert_eq!(f16_to_f32(f32_to_f16(above)), 1.0 + 2f32.powi(-10));
    }

    #[test]
    fn f16_error_is_bounded_by_half_ulp() {
        // Deterministic pseudo-random walk over a typical weight range.
        let mut x = 0x2545F491u32;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let v = ((x % 20001) as f32 / 10000.0 - 1.0) * 4.0; // [−4, 4]
            let back = f16_to_f32(f32_to_f16(v));
            let err = (back - v).abs();
            // half-ULP at magnitude |v|: 2^(exp−11)
            let ulp_half =
                if v == 0.0 { 0.0 } else { 2f32.powi(v.abs().log2().floor() as i32 - 11) };
            assert!(err <= ulp_half * 1.0001, "v={v} back={back} err={err}");
        }
    }

    #[test]
    fn int8_dequant_error_bounded_by_half_step() {
        let dim = 7;
        let data: Vec<f32> = (0..dim * 9).map(|k| ((k * 13 % 29) as f32) * 0.37 - 5.0).collect();
        let t = QuantizedTable::from_rows(&data, dim, Precision::Int8);
        let mut row = vec![0.0f32; dim];
        // Reconstruct the per-dimension step to bound the error.
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for r in data.chunks_exact(dim) {
            for (k, &v) in r.iter().enumerate() {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
        for (i, orig) in data.chunks_exact(dim).enumerate() {
            t.dequantize_row(i, &mut row);
            for k in 0..dim {
                let step = (hi[k] - lo[k]) / 255.0;
                assert!(
                    (row[k] - orig[k]).abs() <= step * 0.5 + 1e-6,
                    "row {i} dim {k}: {} vs {}",
                    row[k],
                    orig[k]
                );
            }
        }
    }

    #[test]
    fn constant_column_is_exact() {
        let data = [3.5f32, -1.0, 3.5, 2.0, 3.5, 5.0]; // dim 2, col 0 constant
        let t = QuantizedTable::from_rows(&data, 2, Precision::Int8);
        let mut row = [0.0f32; 2];
        for i in 0..3 {
            t.dequantize_row(i, &mut row);
            assert_eq!(row[0], 3.5, "constant column must be exact");
        }
    }

    #[test]
    fn quant_combine_matches_dequantized_scalar_kernel() {
        // The dequantize-free kernels must equal "dequantize the row, then
        // run the scalar f32 kernel" up to float re-association — for f16
        // they are bit-identical by construction; for int8 the folded
        // affine re-associates, so compare within a tight tolerance.
        let dim = 19;
        let count = 11;
        let data: Vec<f32> =
            (0..dim * count).map(|k| ((k * 17 % 41) as f32) * 0.11 - 2.0).collect();
        let q: Vec<f32> = (0..dim).map(|k| (k as f32) * 0.3 - 2.5).collect();
        for p in [Precision::F16, Precision::Int8] {
            let t = QuantizedTable::from_rows(&data, dim, p);
            let mut row = vec![0.0f32; dim];
            for c in [Combine::Dot, Combine::NegL1, Combine::NegL2] {
                let mut out = vec![0.0f32; count];
                t.combine_range_with(Isa::Scalar, c, &q, 0..count, &mut out);
                for (i, &got) in out.iter().enumerate() {
                    t.dequantize_row(i, &mut row);
                    let want = super::super::scalar::combine_one(c, &q, &row);
                    if p == Precision::F16 {
                        assert_eq!(got.to_bits(), want.to_bits(), "{p:?} {c:?} row {i}");
                    } else {
                        let tol = 1e-3 * (1.0 + want.abs());
                        assert!((got - want).abs() <= tol, "{p:?} {c:?} row {i}: {got} vs {want}");
                    }
                    if c == Combine::Dot {
                        // Against the exact f32 row the error stays inside
                        // the analytic bound Σ_k |q_k| · |dequant_k − f32_k|
                        // (with slack for accumulation order).
                        let orig = &data[i * dim..(i + 1) * dim];
                        let exact = super::super::scalar::combine_one(c, &q, orig);
                        let bound: f32 = q
                            .iter()
                            .zip(row.iter().zip(orig))
                            .map(|(qk, (d, x))| qk.abs() * (d - x).abs())
                            .sum();
                        let err = (got - exact).abs();
                        assert!(err <= bound * 1.5 + 1e-4, "{p:?} row {i}: {err} > bound {bound}");
                    }
                }
                // combine_one goes through the same kernels.
                assert_eq!(t.combine_one(c, &q, 3).to_bits(), out[3].to_bits());
            }
        }
    }

    #[test]
    fn scalar_and_simd_quant_paths_agree_bitwise() {
        let dim = 21; // odd tail
        let count = 13;
        let data: Vec<f32> =
            (0..dim * count).map(|k| ((k * 23 % 37) as f32) * 0.19 - 3.0).collect();
        let q: Vec<f32> = (0..dim).map(|k| (k as f32) * 0.07 - 0.5).collect();
        for p in [Precision::F16, Precision::Int8] {
            let t = QuantizedTable::from_rows(&data, dim, p);
            for c in [Combine::Dot, Combine::NegL1, Combine::NegL2] {
                let mut want = vec![0.0f32; count];
                t.combine_range_with(Isa::Scalar, c, &q, 0..count, &mut want);
                for isa in super::super::available() {
                    let mut got = vec![0.0f32; count];
                    t.combine_range_with(isa, c, &q, 0..count, &mut got);
                    let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(gb, wb, "{p:?} {c:?} on {isa:?}");
                }
            }
        }
    }

    #[test]
    fn precision_names_roundtrip() {
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            assert_eq!(Precision::parse(p.name()), Some(p));
            assert_eq!(Precision::from_byte(p.to_byte()), Some(p));
        }
        assert_eq!(Precision::parse("bf16"), None);
        assert_eq!(Precision::from_byte(9), None);
        assert!(!Precision::F32.is_quantized());
        assert!(Precision::Int8.is_quantized());
    }

    #[test]
    fn table_reports_shape_and_bytes() {
        let data = vec![0.5f32; 4 * 6];
        let h = QuantizedTable::from_rows(&data, 6, Precision::F16);
        assert_eq!((h.count(), h.dim()), (4, 6));
        assert_eq!(h.bytes(), 4 * 6 * 2);
        let i8t = QuantizedTable::from_rows(&data, 6, Precision::Int8);
        assert_eq!(i8t.bytes(), 4 * 6 + 2 * 6 * 4);
        assert_eq!(i8t.precision(), Precision::Int8);
    }
}
