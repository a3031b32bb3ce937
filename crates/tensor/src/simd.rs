//! Runtime-dispatched kernels: one loop per kernel, compiled for two tiers.
//!
//! Every elementwise and axpy kernel here is written once, as a plain loop
//! over *independent output elements*. That loop is the scalar tier and
//! the proptest oracle. The AVX2 tier is the same loop compiled a second
//! time inside a `#[target_feature(enable = "avx2")]` wrapper (the
//! `kernel!` macro), so the compiler vectorizes it with 256-bit lanes
//! instead of the x86-64 baseline's 128-bit ones. The results are
//! bit-identical at both tiers because Rust neither reassociates nor
//! contracts f32 arithmetic: each vector lane computes one output element
//! with exactly the multiplies and adds, in exactly the order, that the
//! loop spells out (the same discipline as the fused kernels, see DESIGN.md
//! "SIMD & packed weights").
//!
//! Two rules keep that promise honest:
//!
//! * **No FMA.** The host may support fused multiply-add, but a fused
//!   rounding differs from `mul` + `add`. The AVX2 tier enables `avx2`
//!   only, and Rust never fuses `a * b + c` on its own.
//! * **No reassociated reductions.** Serial folds whose order defines the
//!   result (softmax row maxima, exp-sums, log-sum-exp) stay scalar; vector
//!   lanes only ever hold *different* output elements, never partial sums
//!   of the same element.
//!
//! Intrinsics remain where the compiler cannot derive the access pattern
//! from the scalar fold: `dot8_avx2`, the narrow A·Bᵀ kernel, which reads
//! eight rows of B at once through an in-register transpose, and the packed
//! register tiles in [`crate::packed`].
//!
//! The active level is chosen once per process from
//! [`is_x86_feature_detected!`] and can be capped with
//! `VN_SIMD=scalar|avx2` (clamped to what the CPU supports), the one way to
//! pin a tier. Because both levels are bit-identical, the pin only changes
//! speed. AVX2 code runs only when the host has AVX2, whatever level a
//! caller passes.

use std::sync::OnceLock;

/// Instruction-set tier a kernel runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The kernels as compiled for the baseline target (on x86-64, plain
    /// loops auto-vectorized with 128-bit SSE2 lanes).
    Scalar = 0,
    /// The same loops compiled with AVX2 enabled, plus the intrinsic
    /// kernels.
    Avx2 = 1,
}

impl SimdLevel {
    /// Stable name used in bench artifacts (`none`/`avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "none",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Widest level the running CPU supports.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
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

/// True when `lvl` asks for AVX2 and the host has it: the one gate in
/// front of every AVX2 code path, so a level a caller passes can change
/// speed but never run an instruction the CPU lacks.
#[inline]
pub(crate) fn avx2_enabled(lvl: SimdLevel) -> bool {
    lvl == SimdLevel::Avx2 && detected_level() == SimdLevel::Avx2
}

/// Defines a kernel's `_at` dispatcher from the kernel's one body. The
/// body becomes an `#[inline(always)]` function, compiled once for the
/// baseline target and once more inside a `#[target_feature(enable =
/// "avx2")]` wrapper, so each copy is the whole loop, vectorized for its
/// tier; the dispatcher runs the AVX2 copy only when [`avx2_enabled`].
///
/// Each body asserts its operand lengths first, so a mismatch panics at
/// both tiers and the loop runs without bounds checks. Its operands are
/// separate `&mut`/`&` parameters, so the compiler knows they do not
/// overlap and vectorizes without a run-time alias check.
macro_rules! kernel {
    (
        $(#[$doc:meta])*
        pub fn $name:ident($lvl:ident: SimdLevel, $($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub fn $name($lvl: SimdLevel, $($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if avx2_enabled($lvl) {
                // SAFETY: `avx2_enabled` checked that the host supports
                // AVX2, the one feature `avx2` enables.
                return unsafe { avx2($($arg),*) };
            }
            let _ = $lvl;
            body($($arg),*)
        }
    };
}

// ---------------------------------------------------------------------------
// Dispatchers. Each takes an explicit level so tests and benchmarks can pin
// a tier without touching process-global state; the plain names use the
// process-wide `level()`.
// ---------------------------------------------------------------------------

kernel! {
    /// `r_i[j] += a_i * b[j]` for four rows, at an explicit level: a row
    /// block of the register-blocked matmul micro-kernel.
    ///
    /// # Panics
    /// Panics unless every row is as long as `b`.
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
        let n = b.len();
        assert!(
            r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n,
            "axpy4: rows of {}, {}, {} and {} against {n}",
            r0.len(),
            r1.len(),
            r2.len(),
            r3.len()
        );
        let rows = r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut()).zip(r3.iter_mut());
        for ((((o0, o1), o2), o3), &bv) in rows.zip(b) {
            *o0 += a0 * bv;
            *o1 += a1 * bv;
            *o2 += a2 * bv;
            *o3 += a3 * bv;
        }
    }
}

kernel! {
    /// `out[j] += a * b[j]`, at an explicit level.
    ///
    /// # Panics
    /// Panics if `out.len() != b.len()`.
    pub fn axpy_at(lvl: SimdLevel, out: &mut [f32], a: f32, b: &[f32]) {
        assert_eq!(out.len(), b.len(), "axpy: operand lengths differ");
        for (o, &bv) in out.iter_mut().zip(b) {
            *o += a * bv;
        }
    }
}

kernel! {
    /// `out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]`
    /// (left-associated), at an explicit level: the shared-rows update of
    /// `matmul_transposed_a`.
    ///
    /// # Panics
    /// Panics unless every `b_i` is as long as `out`.
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
        let n = out.len();
        assert!(
            b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n,
            "axpy4_shared: rows of {}, {}, {} and {} against {n}",
            b0.len(),
            b1.len(),
            b2.len(),
            b3.len()
        );
        for j in 0..n {
            out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
    }
}

/// All `m` dot products of `x` (length `k`) against the rows of row-major
/// `b` (`m × k`), appended to `out` — the inner loop of the narrow-left
/// direct-dot kernel. Each output element is one serial ascending-`l` fold,
/// identical at both levels; AVX2 folds eight independent outputs at once
/// through `dot8_avx2`, the scalar tier four.
///
/// # Panics
/// Panics unless `x.len() == k` and `b.len() == m * k`.
pub fn dot_rows_at(lvl: SimdLevel, x: &[f32], b: &[f32], k: usize, m: usize, out: &mut Vec<f32>) {
    assert!(
        x.len() == k && b.len() == m * k,
        "dot_rows: x of {} and b of {} against k = {k}, m = {m}",
        x.len(),
        b.len()
    );
    let mut j = 0;
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled(lvl) {
        while j + 8 <= m {
            // SAFETY: `avx2_enabled` checked that the host supports AVX2.
            let r = unsafe { x86::dot8_avx2(x, &b[j * k..(j + 8) * k]) };
            out.extend_from_slice(&r);
            j += 8;
        }
    }
    let _ = lvl;
    // Scalar path (and the j-tail of the AVX2 path): a 4-column blocked
    // fold, then plain dots.
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

kernel! {
    /// `dst[j] += src[j]`, at an explicit level.
    ///
    /// # Panics
    /// Panics if `dst.len() != src.len()`.
    pub fn add_assign_at(lvl: SimdLevel, dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "add_assign: operand lengths differ");
        for (x, &s) in dst.iter_mut().zip(src) {
            *x += s;
        }
    }
}

/// `dst[j] += src[j]` at the process-wide level.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    add_assign_at(level(), dst, src);
}

kernel! {
    /// `dst[j] *= k`, at an explicit level.
    pub fn scale_at(lvl: SimdLevel, dst: &mut [f32], k: f32) {
        for x in dst.iter_mut() {
            *x *= k;
        }
    }
}

/// `dst[j] *= k` at the process-wide level.
pub fn scale(dst: &mut [f32], k: f32) {
    scale_at(level(), dst, k);
}

kernel! {
    /// `dst[j] /= d`, at an explicit level: a true per-element division,
    /// which the compiler never turns into a reciprocal multiply.
    pub fn div_at(lvl: SimdLevel, dst: &mut [f32], d: f32) {
        for x in dst.iter_mut() {
            *x /= d;
        }
    }
}

/// `dst[j] /= d` at the process-wide level.
pub fn div(dst: &mut [f32], d: f32) {
    div_at(level(), dst, d);
}

/// The scalar ReLU: `x` when `x > 0.0`, else `+0.0`, so −0.0 and NaN both
/// map to +0.0. (`f32::max(x, 0.0)` does not: it may keep −0.0, and does
/// in debug builds.)
#[inline]
pub(crate) fn relu_scalar(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

kernel! {
    /// `dst[j] = relu_scalar(dst[j])`, at an explicit level.
    pub fn relu_at(lvl: SimdLevel, dst: &mut [f32]) {
        for x in dst.iter_mut() {
            *x = relu_scalar(*x);
        }
    }
}

/// `dst[j] = relu_scalar(dst[j])` at the process-wide level.
pub fn relu(dst: &mut [f32]) {
    relu_at(level(), dst);
}

kernel! {
    /// `out[j] = a[j]*b[j] + c[j]*d[j]`, at an explicit level (the LSTM
    /// cell update `f ⊙ c_prev + i ⊙ g`).
    ///
    /// # Panics
    /// Panics unless `a`, `b`, `c` and `d` are as long as `out`.
    pub fn mul2_add_at(
        lvl: SimdLevel,
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        c: &[f32],
        d: &[f32],
    ) {
        let n = out.len();
        assert!(
            a.len() == n && b.len() == n && c.len() == n && d.len() == n,
            "mul2_add: operands of {}, {}, {} and {} against {n}",
            a.len(),
            b.len(),
            c.len(),
            d.len()
        );
        for j in 0..n {
            out[j] = a[j] * b[j] + c[j] * d[j];
        }
    }
}

/// `out[j] = a[j]*b[j] + c[j]*d[j]` at the process-wide level.
pub fn mul2_add(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32], d: &[f32]) {
    mul2_add_at(level(), out, a, b, c, d);
}

kernel! {
    /// `out[j] = a[j]*b[j]`, at an explicit level (the LSTM output gate
    /// `o ⊙ tanh(c)`).
    ///
    /// # Panics
    /// Panics unless `a` and `b` are as long as `out`.
    pub fn mul_at(lvl: SimdLevel, out: &mut [f32], a: &[f32], b: &[f32]) {
        let n = out.len();
        assert!(
            a.len() == n && b.len() == n,
            "mul: operands of {} and {} against {n}",
            a.len(),
            b.len()
        );
        for j in 0..n {
            out[j] = a[j] * b[j];
        }
    }
}

/// `out[j] = a[j]*b[j]` at the process-wide level.
pub fn mul(out: &mut [f32], a: &[f32], b: &[f32]) {
    mul_at(level(), out, a, b);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The one intrinsic kernel of this module. It follows the scalar
    //! 4-column fold of `dot_rows_at` element by element: ascending `l`
    //! from +0.0, separate multiply and add (never FMA).
    use core::arch::x86_64::*;

    /// Transposes four 4-lane rows into four 4-lane columns.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose4(r0: __m128, r1: __m128, r2: __m128, r3: __m128) -> [__m128; 4] {
        let t0 = _mm_unpacklo_ps(r0, r1);
        let t1 = _mm_unpacklo_ps(r2, r3);
        let t2 = _mm_unpackhi_ps(r0, r1);
        let t3 = _mm_unpackhi_ps(r2, r3);
        [_mm_movelh_ps(t0, t1), _mm_movehl_ps(t1, t0), _mm_movelh_ps(t2, t3), _mm_movehl_ps(t3, t2)]
    }

    /// Eight dot products `x · y_t`, where `y_t` is row `t` of the
    /// row-major `8 × x.len()` block `rows`: two in-register 4×4 transposes
    /// feed a 256-bit accumulator, one serial ascending-`l` fold per lane.
    ///
    /// # Panics
    /// Panics unless `rows.len() == 8 * x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot8_avx2(x: &[f32], rows: &[f32]) -> [f32; 8] {
        let k = x.len();
        assert_eq!(rows.len(), 8 * k, "dot8_avx2: rows are not 8 x {k}");
        let y: [*const f32; 8] = std::array::from_fn(|t| rows.as_ptr().wrapping_add(t * k));
        let mut acc = _mm256_setzero_ps();
        let mut l = 0;
        while l + 4 <= k {
            // SAFETY: row `t` starts at `y[t]` and holds `k` floats
            // (`rows` is `8·k` long, asserted above), and `l + 4 <= k`, so
            // each load reads four floats inside its row. The loads are
            // unaligned.
            let r: [__m128; 8] = std::array::from_fn(|t| unsafe { _mm_loadu_ps(y[t].add(l)) });
            let lo = transpose4(r[0], r[1], r[2], r[3]);
            let hi = transpose4(r[4], r[5], r[6], r[7]);
            for ((&lo_s, &hi_s), &xv) in lo.iter().zip(&hi).zip(&x[l..l + 4]) {
                let col = _mm256_set_m128(hi_s, lo_s);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(xv), col));
            }
            l += 4;
        }
        while l < k {
            let y = |t: usize| rows[t * k + l];
            let col = _mm256_set_ps(y(7), y(6), y(5), y(4), y(3), y(2), y(1), y(0));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[l]), col));
            l += 1;
        }
        let mut out = [0.0f32; 8];
        // SAFETY: `out` holds the eight floats the unaligned store writes.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2]
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
        // −0.0 and NaN are exactly where a vectorized ReLU could diverge
        // from the scalar comparison (`f32::max(x, 0.0)` keeps −0.0 in
        // debug builds); pin them bit-for-bit against the written-out
        // comparison, at lengths that reach the vector loop and its tail.
        let specials = [-0.0f32, 0.0, f32::NAN, -f32::NAN, 1.5, -1.5, f32::MIN_POSITIVE];
        for lvl in levels() {
            for pad in (0..9).chain([33, 64]) {
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
        for (k, m) in [(0usize, 9usize), (1, 1), (3, 5), (4, 8), (7, 9), (16, 20), (33, 13)] {
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
