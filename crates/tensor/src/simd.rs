//! Runtime-dispatched SSE2/AVX2 vector kernels, bit-pinned to scalar.
//!
//! Every kernel here is a *vectorization across independent output elements*
//! of a scalar loop that lives next to it in this file. The per-element
//! arithmetic — the fold order over the shared dimension, the exact
//! expression tree, one multiply and one add per step — is identical between
//! the scalar body and each SIMD body, so the results are bit-identical for
//! every input, and the scalar path stays the proptest oracle (the same
//! discipline as the fused kernels, see DESIGN.md "SIMD & packed weights").
//!
//! Two rules keep that promise honest:
//!
//! * **No FMA.** The host may support fused multiply-add, but a fused
//!   rounding differs from `mul` + `add`. Every kernel issues separate
//!   multiply and add instructions.
//! * **No reassociated reductions.** Serial folds whose order defines the
//!   result (softmax row maxima, exp-sums, log-sum-exp) stay scalar; SIMD
//!   lanes only ever hold *different* output elements, never partial sums of
//!   the same element.
//!
//! The active level is chosen once per process from
//! [`is_x86_feature_detected!`] and can be capped with
//! `VN_SIMD=scalar|sse2|avx2` (clamped to what the CPU supports), the one
//! way to pin a tier. Because all levels are bit-identical, the pin only
//! changes speed.

use std::sync::OnceLock;

/// Instruction-set tier a kernel runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Plain Rust loops (still auto-vectorized by LLVM at the baseline
    /// x86-64 target, but with no explicit intrinsics).
    Scalar = 0,
    /// 128-bit SSE2 kernels (baseline on x86-64).
    Sse2 = 1,
    /// 256-bit AVX2 kernels.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable name used in bench artifacts (`none`/`sse2`/`avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "none",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Widest level the running CPU supports.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if is_x86_feature_detected!("sse2") {
                return SimdLevel::Sse2;
            }
        }
        SimdLevel::Scalar
    })
}

/// The level every dispatching kernel uses: `VN_SIMD`, read once per
/// process and clamped to [`detected_level`].
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let detected = detected_level();
        let level = match std::env::var("VN_SIMD") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "scalar" | "none" | "off" | "0" => SimdLevel::Scalar,
                "sse2" | "sse" => SimdLevel::Sse2,
                "avx2" | "avx" => SimdLevel::Avx2,
                other => {
                    eprintln!("VN_SIMD: unknown level {other:?}, using detected");
                    detected
                }
            },
            Err(_) => detected,
        };
        level.min(detected)
    })
}

// ---------------------------------------------------------------------------
// axpy family: rows of the register-blocked matmul micro-kernel
// ---------------------------------------------------------------------------

/// Scalar body of the 4-row axpy: `r_i[j] += a_i * b[j]`.
#[allow(clippy::too_many_arguments)]
fn axpy4_scalar(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    a0: f32,
    a1: f32,
    a2: f32,
    a3: f32,
    b: &[f32],
) {
    for (j, &bv) in b.iter().enumerate() {
        r0[j] += a0 * bv;
        r1[j] += a1 * bv;
        r2[j] += a2 * bv;
        r3[j] += a3 * bv;
    }
}

/// Scalar single-row axpy: `out[j] += a * b[j]`.
fn axpy_scalar(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// Scalar body of the shared-rows update used by `matmul_transposed_a`:
/// `out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]` (left-associated).
#[allow(clippy::too_many_arguments)]
fn axpy4_shared_scalar(
    out: &mut [f32],
    a0: f32,
    a1: f32,
    a2: f32,
    a3: f32,
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    for j in 0..out.len() {
        out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsic bodies. Each follows its scalar twin above element by
    //! element: same fold order, separate mul/add (never FMA).
    use core::arch::x86_64::*;

    /// 4-row axpy, 128-bit lanes.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn axpy4_sse2(
        r0: &mut [f32],
        r1: &mut [f32],
        r2: &mut [f32],
        r3: &mut [f32],
        a0: f32,
        a1: f32,
        a2: f32,
        a3: f32,
        b: &[f32],
    ) {
        let m = b.len();
        let va0 = _mm_set1_ps(a0);
        let va1 = _mm_set1_ps(a1);
        let va2 = _mm_set1_ps(a2);
        let va3 = _mm_set1_ps(a3);
        let mut j = 0;
        while j + 4 <= m {
            let vb = _mm_loadu_ps(b.as_ptr().add(j));
            let p0 = r0.as_mut_ptr().add(j);
            let p1 = r1.as_mut_ptr().add(j);
            let p2 = r2.as_mut_ptr().add(j);
            let p3 = r3.as_mut_ptr().add(j);
            _mm_storeu_ps(p0, _mm_add_ps(_mm_loadu_ps(p0), _mm_mul_ps(va0, vb)));
            _mm_storeu_ps(p1, _mm_add_ps(_mm_loadu_ps(p1), _mm_mul_ps(va1, vb)));
            _mm_storeu_ps(p2, _mm_add_ps(_mm_loadu_ps(p2), _mm_mul_ps(va2, vb)));
            _mm_storeu_ps(p3, _mm_add_ps(_mm_loadu_ps(p3), _mm_mul_ps(va3, vb)));
            j += 4;
        }
        while j < m {
            let bv = b[j];
            r0[j] += a0 * bv;
            r1[j] += a1 * bv;
            r2[j] += a2 * bv;
            r3[j] += a3 * bv;
            j += 1;
        }
    }

    /// 4-row axpy, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn axpy4_avx2(
        r0: &mut [f32],
        r1: &mut [f32],
        r2: &mut [f32],
        r3: &mut [f32],
        a0: f32,
        a1: f32,
        a2: f32,
        a3: f32,
        b: &[f32],
    ) {
        let m = b.len();
        let va0 = _mm256_set1_ps(a0);
        let va1 = _mm256_set1_ps(a1);
        let va2 = _mm256_set1_ps(a2);
        let va3 = _mm256_set1_ps(a3);
        let mut j = 0;
        while j + 8 <= m {
            let vb = _mm256_loadu_ps(b.as_ptr().add(j));
            let p0 = r0.as_mut_ptr().add(j);
            let p1 = r1.as_mut_ptr().add(j);
            let p2 = r2.as_mut_ptr().add(j);
            let p3 = r3.as_mut_ptr().add(j);
            _mm256_storeu_ps(p0, _mm256_add_ps(_mm256_loadu_ps(p0), _mm256_mul_ps(va0, vb)));
            _mm256_storeu_ps(p1, _mm256_add_ps(_mm256_loadu_ps(p1), _mm256_mul_ps(va1, vb)));
            _mm256_storeu_ps(p2, _mm256_add_ps(_mm256_loadu_ps(p2), _mm256_mul_ps(va2, vb)));
            _mm256_storeu_ps(p3, _mm256_add_ps(_mm256_loadu_ps(p3), _mm256_mul_ps(va3, vb)));
            j += 8;
        }
        while j < m {
            let bv = b[j];
            r0[j] += a0 * bv;
            r1[j] += a1 * bv;
            r2[j] += a2 * bv;
            r3[j] += a3 * bv;
            j += 1;
        }
    }

    /// Single-row axpy, 128-bit lanes.
    pub unsafe fn axpy_sse2(out: &mut [f32], a: f32, b: &[f32]) {
        let m = out.len();
        let va = _mm_set1_ps(a);
        let mut j = 0;
        while j + 4 <= m {
            let p = out.as_mut_ptr().add(j);
            let vb = _mm_loadu_ps(b.as_ptr().add(j));
            _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), _mm_mul_ps(va, vb)));
            j += 4;
        }
        while j < m {
            out[j] += a * b[j];
            j += 1;
        }
    }

    /// Single-row axpy, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(out: &mut [f32], a: f32, b: &[f32]) {
        let m = out.len();
        let va = _mm256_set1_ps(a);
        let mut j = 0;
        while j + 8 <= m {
            let p = out.as_mut_ptr().add(j);
            let vb = _mm256_loadu_ps(b.as_ptr().add(j));
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), _mm256_mul_ps(va, vb)));
            j += 8;
        }
        while j < m {
            out[j] += a * b[j];
            j += 1;
        }
    }

    /// Shared-rows update, 128-bit lanes. The expression tree matches the
    /// scalar `out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]`:
    /// `out + ((((a0·b0) + (a1·b1)) + (a2·b2)) + (a3·b3))`.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn axpy4_shared_sse2(
        out: &mut [f32],
        a0: f32,
        a1: f32,
        a2: f32,
        a3: f32,
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let m = out.len();
        let va0 = _mm_set1_ps(a0);
        let va1 = _mm_set1_ps(a1);
        let va2 = _mm_set1_ps(a2);
        let va3 = _mm_set1_ps(a3);
        let mut j = 0;
        while j + 4 <= m {
            let t01 = _mm_add_ps(
                _mm_mul_ps(va0, _mm_loadu_ps(b0.as_ptr().add(j))),
                _mm_mul_ps(va1, _mm_loadu_ps(b1.as_ptr().add(j))),
            );
            let t012 = _mm_add_ps(t01, _mm_mul_ps(va2, _mm_loadu_ps(b2.as_ptr().add(j))));
            let t = _mm_add_ps(t012, _mm_mul_ps(va3, _mm_loadu_ps(b3.as_ptr().add(j))));
            let p = out.as_mut_ptr().add(j);
            _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), t));
            j += 4;
        }
        while j < m {
            out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            j += 1;
        }
    }

    /// Shared-rows update, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn axpy4_shared_avx2(
        out: &mut [f32],
        a0: f32,
        a1: f32,
        a2: f32,
        a3: f32,
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let m = out.len();
        let va0 = _mm256_set1_ps(a0);
        let va1 = _mm256_set1_ps(a1);
        let va2 = _mm256_set1_ps(a2);
        let va3 = _mm256_set1_ps(a3);
        let mut j = 0;
        while j + 8 <= m {
            let t01 = _mm256_add_ps(
                _mm256_mul_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(j))),
                _mm256_mul_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(j))),
            );
            let t012 =
                _mm256_add_ps(t01, _mm256_mul_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(j))));
            let t = _mm256_add_ps(t012, _mm256_mul_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(j))));
            let p = out.as_mut_ptr().add(j);
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), t));
            j += 8;
        }
        while j < m {
            out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            j += 1;
        }
    }

    /// Transposes four 4-lane rows into four 4-lane columns.
    #[inline(always)]
    unsafe fn transpose4(
        r0: __m128,
        r1: __m128,
        r2: __m128,
        r3: __m128,
    ) -> (__m128, __m128, __m128, __m128) {
        let t0 = _mm_unpacklo_ps(r0, r1);
        let t1 = _mm_unpacklo_ps(r2, r3);
        let t2 = _mm_unpackhi_ps(r0, r1);
        let t3 = _mm_unpackhi_ps(r2, r3);
        (
            _mm_movelh_ps(t0, t1),
            _mm_movehl_ps(t1, t0),
            _mm_movelh_ps(t2, t3),
            _mm_movehl_ps(t3, t2),
        )
    }

    /// Four dot products `x · y_t` with one serial ascending-`l` fold per
    /// lane: rows are loaded 4 elements at a time, transposed in registers,
    /// and each step adds `x[l] * y_t[l]` to lane `t` — exactly the scalar
    /// accumulator order of `dot_kernel`.
    pub unsafe fn dot4_sse2(x: &[f32], y0: &[f32], y1: &[f32], y2: &[f32], y3: &[f32]) -> [f32; 4] {
        let k = x.len();
        let mut acc = _mm_setzero_ps();
        let mut l = 0;
        while l + 4 <= k {
            let r0 = _mm_loadu_ps(y0.as_ptr().add(l));
            let r1 = _mm_loadu_ps(y1.as_ptr().add(l));
            let r2 = _mm_loadu_ps(y2.as_ptr().add(l));
            let r3 = _mm_loadu_ps(y3.as_ptr().add(l));
            let (c0, c1, c2, c3) = transpose4(r0, r1, r2, r3);
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(x[l]), c0));
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(x[l + 1]), c1));
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(x[l + 2]), c2));
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(x[l + 3]), c3));
            l += 4;
        }
        while l < k {
            let col = _mm_set_ps(y3[l], y2[l], y1[l], y0[l]);
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(x[l]), col));
            l += 1;
        }
        let mut out = [0.0f32; 4];
        _mm_storeu_ps(out.as_mut_ptr(), acc);
        out
    }

    /// Eight dot products at once: two in-register 4×4 transposes feed a
    /// 256-bit accumulator, one serial ascending-`l` fold per lane.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn dot8_avx2(
        x: &[f32],
        y0: &[f32],
        y1: &[f32],
        y2: &[f32],
        y3: &[f32],
        y4: &[f32],
        y5: &[f32],
        y6: &[f32],
        y7: &[f32],
    ) -> [f32; 8] {
        let k = x.len();
        let mut acc = _mm256_setzero_ps();
        let mut l = 0;
        while l + 4 <= k {
            let (lo0, lo1, lo2, lo3) = transpose4(
                _mm_loadu_ps(y0.as_ptr().add(l)),
                _mm_loadu_ps(y1.as_ptr().add(l)),
                _mm_loadu_ps(y2.as_ptr().add(l)),
                _mm_loadu_ps(y3.as_ptr().add(l)),
            );
            let (hi0, hi1, hi2, hi3) = transpose4(
                _mm_loadu_ps(y4.as_ptr().add(l)),
                _mm_loadu_ps(y5.as_ptr().add(l)),
                _mm_loadu_ps(y6.as_ptr().add(l)),
                _mm_loadu_ps(y7.as_ptr().add(l)),
            );
            let c0 = _mm256_set_m128(hi0, lo0);
            let c1 = _mm256_set_m128(hi1, lo1);
            let c2 = _mm256_set_m128(hi2, lo2);
            let c3 = _mm256_set_m128(hi3, lo3);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[l]), c0));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[l + 1]), c1));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[l + 2]), c2));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[l + 3]), c3));
            l += 4;
        }
        while l < k {
            let col = _mm256_set_ps(y7[l], y6[l], y5[l], y4[l], y3[l], y2[l], y1[l], y0[l]);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[l]), col));
            l += 1;
        }
        let mut out = [0.0f32; 8];
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
        out
    }

    /// `dst[j] += src[j]`, 128-bit lanes.
    pub unsafe fn add_assign_sse2(dst: &mut [f32], src: &[f32]) {
        let m = dst.len();
        let mut j = 0;
        while j + 4 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), _mm_loadu_ps(src.as_ptr().add(j))));
            j += 4;
        }
        while j < m {
            dst[j] += src[j];
            j += 1;
        }
    }

    /// `dst[j] += src[j]`, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_avx2(dst: &mut [f32], src: &[f32]) {
        let m = dst.len();
        let mut j = 0;
        while j + 8 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm256_storeu_ps(
                p,
                _mm256_add_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(src.as_ptr().add(j))),
            );
            j += 8;
        }
        while j < m {
            dst[j] += src[j];
            j += 1;
        }
    }

    /// `dst[j] *= k`, 128-bit lanes.
    pub unsafe fn scale_sse2(dst: &mut [f32], k: f32) {
        let m = dst.len();
        let vk = _mm_set1_ps(k);
        let mut j = 0;
        while j + 4 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm_storeu_ps(p, _mm_mul_ps(_mm_loadu_ps(p), vk));
            j += 4;
        }
        while j < m {
            dst[j] *= k;
            j += 1;
        }
    }

    /// `dst[j] *= k`, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_avx2(dst: &mut [f32], k: f32) {
        let m = dst.len();
        let vk = _mm256_set1_ps(k);
        let mut j = 0;
        while j + 8 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm256_storeu_ps(p, _mm256_mul_ps(_mm256_loadu_ps(p), vk));
            j += 8;
        }
        while j < m {
            dst[j] *= k;
            j += 1;
        }
    }

    /// `dst[j] /= d`, 128-bit lanes (true per-lane division, never a
    /// reciprocal multiply — the quotient must match scalar `/` bitwise).
    pub unsafe fn div_sse2(dst: &mut [f32], d: f32) {
        let m = dst.len();
        let vd = _mm_set1_ps(d);
        let mut j = 0;
        while j + 4 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm_storeu_ps(p, _mm_div_ps(_mm_loadu_ps(p), vd));
            j += 4;
        }
        while j < m {
            dst[j] /= d;
            j += 1;
        }
    }

    /// `dst[j] /= d`, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn div_avx2(dst: &mut [f32], d: f32) {
        let m = dst.len();
        let vd = _mm256_set1_ps(d);
        let mut j = 0;
        while j + 8 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm256_storeu_ps(p, _mm256_div_ps(_mm256_loadu_ps(p), vd));
            j += 8;
        }
        while j < m {
            dst[j] /= d;
            j += 1;
        }
    }

    /// `dst[j] = if dst[j] > 0.0 { dst[j] } else { 0.0 }`, 128-bit lanes.
    /// `maxps(x, +0.0)` returns its second source unless `x > +0.0`, so it
    /// matches that scalar expression bit-for-bit: NaN → +0.0 and −0.0 →
    /// +0.0 in both, which the unit tests below pin. (`f32::max(x, 0.0)`
    /// does not: it may keep −0.0, and does in debug builds.)
    pub unsafe fn relu_sse2(dst: &mut [f32]) {
        let m = dst.len();
        let zero = _mm_setzero_ps();
        let mut j = 0;
        while j + 4 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm_storeu_ps(p, _mm_max_ps(_mm_loadu_ps(p), zero));
            j += 4;
        }
        while j < m {
            dst[j] = super::relu_scalar(dst[j]);
            j += 1;
        }
    }

    /// `dst[j] = if dst[j] > 0.0 { dst[j] } else { 0.0 }`, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_avx2(dst: &mut [f32]) {
        let m = dst.len();
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= m {
            let p = dst.as_mut_ptr().add(j);
            _mm256_storeu_ps(p, _mm256_max_ps(_mm256_loadu_ps(p), zero));
            j += 8;
        }
        while j < m {
            dst[j] = super::relu_scalar(dst[j]);
            j += 1;
        }
    }

    /// `out[j] = a[j]*b[j] + c[j]*d[j]`, 128-bit lanes.
    pub unsafe fn mul2_add_sse2(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32], d: &[f32]) {
        let m = out.len();
        let mut j = 0;
        while j + 4 <= m {
            let t = _mm_add_ps(
                _mm_mul_ps(_mm_loadu_ps(a.as_ptr().add(j)), _mm_loadu_ps(b.as_ptr().add(j))),
                _mm_mul_ps(_mm_loadu_ps(c.as_ptr().add(j)), _mm_loadu_ps(d.as_ptr().add(j))),
            );
            _mm_storeu_ps(out.as_mut_ptr().add(j), t);
            j += 4;
        }
        while j < m {
            out[j] = a[j] * b[j] + c[j] * d[j];
            j += 1;
        }
    }

    /// `out[j] = a[j]*b[j] + c[j]*d[j]`, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul2_add_avx2(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32], d: &[f32]) {
        let m = out.len();
        let mut j = 0;
        while j + 8 <= m {
            let t = _mm256_add_ps(
                _mm256_mul_ps(
                    _mm256_loadu_ps(a.as_ptr().add(j)),
                    _mm256_loadu_ps(b.as_ptr().add(j)),
                ),
                _mm256_mul_ps(
                    _mm256_loadu_ps(c.as_ptr().add(j)),
                    _mm256_loadu_ps(d.as_ptr().add(j)),
                ),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(j), t);
            j += 8;
        }
        while j < m {
            out[j] = a[j] * b[j] + c[j] * d[j];
            j += 1;
        }
    }

    /// `out[j] = a[j]*b[j]`, 128-bit lanes.
    pub unsafe fn mul_sse2(out: &mut [f32], a: &[f32], b: &[f32]) {
        let m = out.len();
        let mut j = 0;
        while j + 4 <= m {
            let t =
                _mm_mul_ps(_mm_loadu_ps(a.as_ptr().add(j)), _mm_loadu_ps(b.as_ptr().add(j)));
            _mm_storeu_ps(out.as_mut_ptr().add(j), t);
            j += 4;
        }
        while j < m {
            out[j] = a[j] * b[j];
            j += 1;
        }
    }

    /// `out[j] = a[j]*b[j]`, 256-bit lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_avx2(out: &mut [f32], a: &[f32], b: &[f32]) {
        let m = out.len();
        let mut j = 0;
        while j + 8 <= m {
            let t = _mm256_mul_ps(
                _mm256_loadu_ps(a.as_ptr().add(j)),
                _mm256_loadu_ps(b.as_ptr().add(j)),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(j), t);
            j += 8;
        }
        while j < m {
            out[j] = a[j] * b[j];
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatchers. Each takes an explicit level so tests and benchmarks can pin
// an arm without touching process-global state; the plain names use the
// process-wide `level()`.
// ---------------------------------------------------------------------------

/// `r_i[j] += a_i * b[j]` for four rows, at an explicit level.
#[allow(clippy::too_many_arguments)]
pub fn axpy4_at(
    lvl: SimdLevel,
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    a0: f32,
    a1: f32,
    a2: f32,
    a3: f32,
    b: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::axpy4_avx2(r0, r1, r2, r3, a0, a1, a2, a3, b) },
        SimdLevel::Sse2 => return unsafe { x86::axpy4_sse2(r0, r1, r2, r3, a0, a1, a2, a3, b) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    axpy4_scalar(r0, r1, r2, r3, a0, a1, a2, a3, b);
}

/// `out[j] += a * b[j]`, at an explicit level.
pub fn axpy_at(lvl: SimdLevel, out: &mut [f32], a: f32, b: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::axpy_avx2(out, a, b) },
        SimdLevel::Sse2 => return unsafe { x86::axpy_sse2(out, a, b) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    axpy_scalar(out, a, b);
}

/// `out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]`, at an explicit
/// level.
#[allow(clippy::too_many_arguments)]
pub fn axpy4_shared_at(
    lvl: SimdLevel,
    out: &mut [f32],
    a0: f32,
    a1: f32,
    a2: f32,
    a3: f32,
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => {
            return unsafe { x86::axpy4_shared_avx2(out, a0, a1, a2, a3, b0, b1, b2, b3) }
        }
        SimdLevel::Sse2 => {
            return unsafe { x86::axpy4_shared_sse2(out, a0, a1, a2, a3, b0, b1, b2, b3) }
        }
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    axpy4_shared_scalar(out, a0, a1, a2, a3, b0, b1, b2, b3);
}

/// All `m` dot products of `x` (length `k`) against the rows of row-major
/// `b` (`m × k`), appended to `out` — the inner loop of the narrow-left
/// direct-dot kernel. Each output element is one serial ascending-`l` fold,
/// identical across levels; the levels differ only in how many independent
/// outputs they fold at once (1 / 4 / 8).
pub fn dot_rows_at(lvl: SimdLevel, x: &[f32], b: &[f32], k: usize, m: usize, out: &mut Vec<f32>) {
    let mut j = 0;
    #[cfg(target_arch = "x86_64")]
    {
        if lvl >= SimdLevel::Avx2 {
            while j + 8 <= m {
                let r = unsafe {
                    x86::dot8_avx2(
                        x,
                        &b[j * k..(j + 1) * k],
                        &b[(j + 1) * k..(j + 2) * k],
                        &b[(j + 2) * k..(j + 3) * k],
                        &b[(j + 3) * k..(j + 4) * k],
                        &b[(j + 4) * k..(j + 5) * k],
                        &b[(j + 5) * k..(j + 6) * k],
                        &b[(j + 6) * k..(j + 7) * k],
                        &b[(j + 7) * k..(j + 8) * k],
                    )
                };
                out.extend_from_slice(&r);
                j += 8;
            }
        }
        if lvl >= SimdLevel::Sse2 {
            while j + 4 <= m {
                let r = unsafe {
                    x86::dot4_sse2(
                        x,
                        &b[j * k..(j + 1) * k],
                        &b[(j + 1) * k..(j + 2) * k],
                        &b[(j + 2) * k..(j + 3) * k],
                        &b[(j + 3) * k..(j + 4) * k],
                    )
                };
                out.extend_from_slice(&r);
                j += 4;
            }
        }
    }
    let _ = lvl;
    // Scalar path (and the j-tail of the vector paths): the original
    // 4-column blocked fold of `dot_kernel`, then plain dots.
    let full_j = j + (m - j) / 4 * 4;
    while j < full_j {
        let y0 = &b[j * k..(j + 1) * k];
        let y1 = &b[(j + 1) * k..(j + 2) * k];
        let y2 = &b[(j + 2) * k..(j + 3) * k];
        let y3 = &b[(j + 3) * k..(j + 4) * k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for l in 0..k {
            let xv = x[l];
            s0 += xv * y0[l];
            s1 += xv * y1[l];
            s2 += xv * y2[l];
            s3 += xv * y3[l];
        }
        out.extend_from_slice(&[s0, s1, s2, s3]);
        j += 4;
    }
    while j < m {
        let y = &b[j * k..(j + 1) * k];
        let mut s = 0.0f32;
        for l in 0..k {
            s += x[l] * y[l];
        }
        out.push(s);
        j += 1;
    }
}

/// `dst[j] += src[j]`, at an explicit level.
pub fn add_assign_at(lvl: SimdLevel, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::add_assign_avx2(dst, src) },
        SimdLevel::Sse2 => return unsafe { x86::add_assign_sse2(dst, src) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    for (x, &s) in dst.iter_mut().zip(src) {
        *x += s;
    }
}

/// `dst[j] += src[j]` at the process-wide level.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    add_assign_at(level(), dst, src);
}

/// `dst[j] *= k`, at an explicit level.
pub fn scale_at(lvl: SimdLevel, dst: &mut [f32], k: f32) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::scale_avx2(dst, k) },
        SimdLevel::Sse2 => return unsafe { x86::scale_sse2(dst, k) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    for x in dst.iter_mut() {
        *x *= k;
    }
}

/// `dst[j] *= k` at the process-wide level.
pub fn scale(dst: &mut [f32], k: f32) {
    scale_at(level(), dst, k);
}

/// `dst[j] /= d`, at an explicit level.
pub fn div_at(lvl: SimdLevel, dst: &mut [f32], d: f32) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::div_avx2(dst, d) },
        SimdLevel::Sse2 => return unsafe { x86::div_sse2(dst, d) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    for x in dst.iter_mut() {
        *x /= d;
    }
}

/// `dst[j] /= d` at the process-wide level.
pub fn div(dst: &mut [f32], d: f32) {
    div_at(level(), dst, d);
}

/// The scalar ReLU every tier matches: `x` when `x > 0.0`, else `+0.0`
/// (so −0.0 and NaN both map to +0.0, as `maxps(x, +0.0)` does).
#[inline]
pub(crate) fn relu_scalar(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// `dst[j] = relu_scalar(dst[j])`, at an explicit level.
pub fn relu_at(lvl: SimdLevel, dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::relu_avx2(dst) },
        SimdLevel::Sse2 => return unsafe { x86::relu_sse2(dst) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    for x in dst.iter_mut() {
        *x = relu_scalar(*x);
    }
}

/// `dst[j] = relu_scalar(dst[j])` at the process-wide level.
pub fn relu(dst: &mut [f32]) {
    relu_at(level(), dst);
}

/// `out[j] = a[j]*b[j] + c[j]*d[j]`, at an explicit level (the LSTM cell
/// update `f ⊙ c_prev + i ⊙ g`).
pub fn mul2_add_at(lvl: SimdLevel, out: &mut [f32], a: &[f32], b: &[f32], c: &[f32], d: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::mul2_add_avx2(out, a, b, c, d) },
        SimdLevel::Sse2 => return unsafe { x86::mul2_add_sse2(out, a, b, c, d) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    for j in 0..out.len() {
        out[j] = a[j] * b[j] + c[j] * d[j];
    }
}

/// `out[j] = a[j]*b[j] + c[j]*d[j]` at the process-wide level.
pub fn mul2_add(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32], d: &[f32]) {
    mul2_add_at(level(), out, a, b, c, d);
}

/// `out[j] = a[j]*b[j]`, at an explicit level (the LSTM output gate
/// `o ⊙ tanh(c)`).
pub fn mul_at(lvl: SimdLevel, out: &mut [f32], a: &[f32], b: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    match lvl {
        SimdLevel::Avx2 => return unsafe { x86::mul_avx2(out, a, b) },
        SimdLevel::Sse2 => return unsafe { x86::mul_sse2(out, a, b) },
        SimdLevel::Scalar => {}
    }
    let _ = lvl;
    for j in 0..out.len() {
        out[j] = a[j] * b[j];
    }
}

/// `out[j] = a[j]*b[j]` at the process-wide level.
pub fn mul(out: &mut [f32], a: &[f32], b: &[f32]) {
    mul_at(level(), out, a, b);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| l <= detected_level())
            .collect()
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn relu_matches_scalar_on_special_values() {
        // −0.0 and NaN are exactly where `maxps` could diverge from a
        // scalar ReLU (`f32::max(x, 0.0)` keeps −0.0 in debug builds); pin
        // them bit-for-bit against the written-out comparison.
        let specials = [-0.0f32, 0.0, f32::NAN, -f32::NAN, 1.5, -1.5, f32::MIN_POSITIVE];
        for lvl in levels() {
            for pad in 0..9 {
                let mut base: Vec<f32> = specials.to_vec();
                base.extend(std::iter::repeat_n(-0.0, pad));
                let mut scalar = base.clone();
                for x in scalar.iter_mut() {
                    *x = if *x > 0.0 { *x } else { 0.0 };
                }
                let mut vec = base.clone();
                relu_at(lvl, &mut vec);
                for (a, b) in scalar.iter().zip(&vec) {
                    assert_eq!(a.to_bits(), b.to_bits(), "level {lvl:?}");
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_bit_identical_across_levels() {
        for len in [0usize, 1, 3, 4, 7, 8, 15, 16, 31, 64, 129] {
            let a = pseudo(len, 1);
            let b = pseudo(len, 2);
            let c = pseudo(len, 3);
            let d = pseudo(len, 4);
            for lvl in levels() {
                let mut s = a.clone();
                add_assign_at(SimdLevel::Scalar, &mut s, &b);
                let mut v = a.clone();
                add_assign_at(lvl, &mut v, &b);
                assert!(s.iter().zip(&v).all(|(x, y)| x.to_bits() == y.to_bits()));

                let mut s = a.clone();
                scale_at(SimdLevel::Scalar, &mut s, 0.3);
                let mut v = a.clone();
                scale_at(lvl, &mut v, 0.3);
                assert!(s.iter().zip(&v).all(|(x, y)| x.to_bits() == y.to_bits()));

                let mut s = a.clone();
                div_at(SimdLevel::Scalar, &mut s, 0.7);
                let mut v = a.clone();
                div_at(lvl, &mut v, 0.7);
                assert!(s.iter().zip(&v).all(|(x, y)| x.to_bits() == y.to_bits()));

                let mut s = vec![0.0; len];
                mul2_add_at(SimdLevel::Scalar, &mut s, &a, &b, &c, &d);
                let mut v = vec![0.0; len];
                mul2_add_at(lvl, &mut v, &a, &b, &c, &d);
                assert!(s.iter().zip(&v).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn dot_rows_bit_identical_across_levels() {
        for (k, m) in [(1usize, 1usize), (3, 5), (4, 8), (7, 9), (16, 20), (33, 13)] {
            let x = pseudo(k, 10);
            let b = pseudo(k * m, 11);
            let mut scalar = Vec::new();
            dot_rows_at(SimdLevel::Scalar, &x, &b, k, m, &mut scalar);
            for lvl in levels() {
                let mut v = Vec::new();
                dot_rows_at(lvl, &x, &b, k, m, &mut v);
                assert_eq!(scalar.len(), v.len());
                assert!(
                    scalar.iter().zip(&v).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "k={k} m={m} level {lvl:?}"
                );
            }
        }
    }
}
