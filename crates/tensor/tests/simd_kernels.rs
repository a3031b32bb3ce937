//! Property tests: every SIMD kernel tier is **bit-identical** to the
//! scalar oracle, and the matrix products at every tier to
//! `Tensor::matmul_naive`.
//!
//! This is the load-bearing invariant of the vectorization work — the beam
//! search compares f32 log-probabilities for ties, so any rounding
//! difference between tiers would change predictions. Each kernel folds its
//! output elements in the same ascending order at every level (lanes span
//! *independent* outputs, never partial sums, and no FMA contraction), so
//! the contract here is `to_bits()` equality, not approximate closeness.
//!
//! Shapes are drawn from `1..` ranges on purpose: odd, non-lane-multiple
//! sizes exercise every tail path, and `n == 1` covers the single-row beam
//! step the decoder spends its time in.

use proptest::prelude::*;
use valuenet_tensor::simd::{self, SimdLevel};
use valuenet_tensor::{PackedMatrix, Tensor};

const DIM: std::ops::Range<usize> = 1..12;

/// The levels this host can actually run, scalar first.
fn levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= simd::detected_level())
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: bit divergence at {i}: {x} ({:#010x}) vs {y} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Deterministic pseudo-random buffer (SplitMix64 stream). Values include
/// negatives and magnitudes around zero so `relu`'s `max(x, 0.0)` branch and
/// signed rounding are both exercised.
fn pseudo_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u64 << 23) as f32 * 8.0 - 4.0
    };
    (0..n).map(|_| next()).collect()
}

fn pseudo_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_vec(rows, cols, pseudo_vec(rows * cols, seed))
}

/// True when `f` panics.
fn panics(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

/// Every `_at` dispatcher with two or more operands, and
/// `PackedMatrix::matmul_at`, panics on a short operand at every level the
/// host has, instead of reading or writing past its end.
#[test]
fn short_operands_panic_at_every_level() {
    let (long, short) = (vec![1.0f32; 16], vec![1.0f32; 2]);
    let packed = PackedMatrix::from_tensor(&pseudo_tensor(16, 9, 1));
    for lvl in levels() {
        let (l, s) = (|| long.clone(), || short.clone());
        let must_panic = |what: &str, case: &dyn Fn()| {
            assert!(panics(case), "{what} at {} must panic", lvl.name());
        };
        must_panic("transposed_a_add, short b", &|| {
            simd::transposed_a_add_at(lvl, &mut l(), &mut [0.0; 8], &[(&long[..4], &short, 2)], 2)
        });
        must_panic("transposed_a_add, short out", &|| {
            simd::transposed_a_add_at(lvl, &mut s(), &mut [0.0; 8], &[(&long[..4], &long, 2)], 2)
        });
        must_panic("add_assign, short src", &|| simd::add_assign_at(lvl, &mut l(), &short));
        must_panic("add_assign, short dst", &|| simd::add_assign_at(lvl, &mut s(), &long));
        must_panic("mul2_add, short d", &|| {
            simd::mul2_add_at(lvl, &mut l(), &long, &long, &long, &short)
        });
        must_panic("mul, short b", &|| simd::mul_at(lvl, &mut l(), &long, &short));
        must_panic("packed matmul, short activation rows", &|| {
            drop(packed.matmul_at(lvl, &pseudo_tensor(3, 2, 2)))
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Elementwise kernels (add_assign, scale, div, relu, mul, mul2_add)
    /// are bit-identical across tiers, including non-lane-multiple lengths.
    #[test]
    fn elementwise_kernels_bit_identical(len in 1usize..70, seed in 0u64..1000) {
        let a = pseudo_vec(len, seed);
        let b = pseudo_vec(len, seed ^ 0xA5A5);
        let c = pseudo_vec(len, seed ^ 0x5A5A);
        let d = pseudo_vec(len, seed ^ 0x0F0F);

        for lvl in levels() {
            let name = lvl.name();

            let mut want = a.clone();
            simd::add_assign_at(SimdLevel::Scalar, &mut want, &b);
            let mut got = a.clone();
            simd::add_assign_at(lvl, &mut got, &b);
            assert_bits_eq(&got, &want, &format!("add_assign {name}"));

            let mut want = a.clone();
            simd::scale_at(SimdLevel::Scalar, &mut want, 1.7);
            let mut got = a.clone();
            simd::scale_at(lvl, &mut got, 1.7);
            assert_bits_eq(&got, &want, &format!("scale {name}"));

            let mut want = a.clone();
            simd::div_at(SimdLevel::Scalar, &mut want, 3.1);
            let mut got = a.clone();
            simd::div_at(lvl, &mut got, 3.1);
            assert_bits_eq(&got, &want, &format!("div {name}"));

            let mut want = a.clone();
            simd::relu_at(SimdLevel::Scalar, &mut want);
            let mut got = a.clone();
            simd::relu_at(lvl, &mut got);
            assert_bits_eq(&got, &want, &format!("relu {name}"));

            let mut want = vec![0.0; len];
            simd::mul_at(SimdLevel::Scalar, &mut want, &a, &b);
            let mut got = vec![0.0; len];
            simd::mul_at(lvl, &mut got, &a, &b);
            assert_bits_eq(&got, &want, &format!("mul {name}"));

            let mut want = vec![0.0; len];
            simd::mul2_add_at(SimdLevel::Scalar, &mut want, &a, &b, &c, &d);
            let mut got = vec![0.0; len];
            simd::mul2_add_at(lvl, &mut got, &a, &b, &c, &d);
            assert_bits_eq(&got, &want, &format!("mul2_add {name}"));
        }
    }

    /// Backward's `Aᵀ·B` fold is bit-identical across tiers for one
    /// output row: a use with one shared row, then one with four (one
    /// group of the shared-rows fold).
    #[test]
    fn transposed_a_add_bit_identical(len in 1usize..70, seed in 0u64..1000) {
        let b = pseudo_vec(4 * len, seed);
        let acc = pseudo_vec(len, seed ^ 0x4444);
        let a = [0.7f32, -1.3, 2.6, -0.2];
        let uses = [(&a[..1], &b[..len], 1), (&a[..], &b[..], 4)];
        let mut row = vec![0.0; len];
        let mut want = acc.clone();
        simd::transposed_a_add_at(SimdLevel::Scalar, &mut want, &mut row, &uses, 1);
        for lvl in levels() {
            let mut got = acc.clone();
            simd::transposed_a_add_at(lvl, &mut got, &mut row, &uses, 1);
            assert_bits_eq(&got, &want, &format!("transposed_a_add {}", lvl.name()));
        }
    }

    /// Full matmuls on random rectangular shapes: `A·B` and `A·Bᵀ` on the
    /// packed tiles at every tier equal the oracle, and `Aᵀ·B` is
    /// bit-identical across tiers.
    #[test]
    fn matmul_bit_identical_across_levels((n, k, m) in (DIM, DIM, DIM), seed in 0u64..1000) {
        let a = pseudo_tensor(n, k, seed);
        let b = pseudo_tensor(k, m, seed ^ 0x9E37);
        let bt = pseudo_tensor(m, k, seed ^ 0x1357);
        let at = pseudo_tensor(k, n, seed ^ 0x2468);
        let packed = PackedMatrix::from_tensor(&b);
        let packed_t = PackedMatrix::pack_transposed(bt.as_slice(), m, k);
        let want = a.matmul_naive(&b);
        let want_tb = a.matmul_naive(&bt.transpose());
        let want_ta = at.matmul_transposed_a_with_level(&b, SimdLevel::Scalar);
        for lvl in levels() {
            let name = lvl.name();
            let got = packed.matmul_at(lvl, &a);
            assert_bits_eq(got.as_slice(), want.as_slice(), &format!("matmul {name}"));
            assert_bits_eq(
                packed_t.matmul_at(lvl, &a).as_slice(),
                want_tb.as_slice(),
                &format!("matmul_transposed_b {name}"),
            );
            assert_bits_eq(
                at.matmul_transposed_a_with_level(&b, lvl).as_slice(),
                want_ta.as_slice(),
                &format!("matmul_transposed_a {name}"),
            );
        }
    }

    /// The decoder's hot case — a single activation row against a wide
    /// operand, as `a·B` and as `a·Bᵀ` — equals the oracle at every tier
    /// for every width, including every lane-tail residue.
    #[test]
    fn beam_row_matmul_bit_identical((k, m) in (1usize..24, 1usize..40), seed in 0u64..1000) {
        let a = pseudo_tensor(1, k, seed);
        let b = pseudo_tensor(k, m, seed ^ 0xBEA4);
        let want = a.matmul_naive(&b);
        let bt = b.transpose();
        let arms = [
            ("matmul", PackedMatrix::from_tensor(&b)),
            ("matmul_transposed_b", PackedMatrix::pack_transposed(bt.as_slice(), m, k)),
        ];
        for (arm, packed) in &arms {
            for lvl in levels() {
                assert_bits_eq(
                    packed.matmul_at(lvl, &a).as_slice(),
                    want.as_slice(),
                    &format!("1x{k}x{m} {arm} {}", lvl.name()),
                );
            }
        }
    }
}
