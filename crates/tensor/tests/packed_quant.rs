//! Property tests for the pre-packed f32 layout.
//!
//! Packing is a pure layout change: `PackedMatrix::matmul` must be
//! **bit-identical** to the row-major blocked matmul at every SIMD tier —
//! for random shapes up to 13 rows (every row remainder after one and two
//! full 4-row AVX2 tiles), at the default model's products, and on ±0.0,
//! NaN, ±∞ and subnormal inputs.

use proptest::prelude::*;
use valuenet_tensor::packed::PackedMatrix;
use valuenet_tensor::simd::{self, SimdLevel};
use valuenet_tensor::Tensor;

fn levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= simd::detected_level())
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: bit divergence at {i}: {x} vs {y}");
    }
}

fn pseudo_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u64 << 23) as f32 * 8.0 - 4.0
    };
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

/// Batch sizes pin `n == 1` every third case — the beam-step shape.
fn batch(n: usize, seed: u64) -> usize {
    if seed.is_multiple_of(3) {
        1
    } else {
        n
    }
}

/// The default model's weight products (`n×k @ k×m`): the decoder's gate
/// products at one row and at beam 4, the pointer head, and the encoder's
/// feed-forward and item projections.
#[test]
fn packed_matmul_is_bit_identical_at_model_shapes() {
    let shapes =
        [(1, 112, 512), (4, 112, 512), (4, 128, 512), (4, 192, 46), (40, 64, 128), (20, 32, 128)];
    for (n, k, m) in shapes {
        let a = pseudo_tensor(n, k, (n * k) as u64);
        let w = pseudo_tensor(k, m, (k * m) as u64 ^ 0xBEEF);
        let want = a.matmul_with_level(&w, SimdLevel::Scalar);
        let packed = PackedMatrix::from_tensor(&w);
        for lvl in levels() {
            assert_bits_eq(
                packed.matmul_at(lvl, &a).as_slice(),
                want.as_slice(),
                &format!("packed {} ({n}x{k}x{m})", lvl.name()),
            );
        }
    }
}

/// ±0.0, NaN, ±∞ and subnormals through every tile shape. Every even row
/// holds only non-negative finite values and the columns in `NEG_ZERO` hold
/// only −0.0 weights, so those outputs fold −0.0 products alone: the sum
/// from +0.0 is +0.0, and a tile that seeded its accumulator with the first
/// product would return −0.0 there. Any NaN matches any NaN (the payload of
/// a NaN sum depends on operand order, which the IEEE result does not fix).
#[test]
fn packed_matmul_matches_scalar_on_special_values() {
    const NEG_ZERO: [usize; 3] = [3, 60, 114];
    let sub = f32::from_bits(1);
    let wild =
        [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, sub, -sub, 1.5, -2.25, 3e38, -3e38];
    let tame = [0.0, sub, f32::MIN_POSITIVE / 2.0, 1.5, 3e38, 1e-30, 0.75];
    // m = 115 is 15 panels (8 + 4 + 2 + 1 for a single row) with a 3-wide tail.
    let (k, m) = (11, 115);
    let w: Vec<f32> = (0..k * m)
        .map(|x| {
            if NEG_ZERO.contains(&(x % m)) {
                -0.0
            } else {
                wild[(x * 7 + x / m) % wild.len()]
            }
        })
        .collect();
    let w = Tensor::from_vec(k, m, w);
    let packed = PackedMatrix::from_tensor(&w);
    for n in 1..=9 {
        let a: Vec<f32> = (0..n * k)
            .map(|x| {
                if (x / k) % 2 == 0 {
                    tame[(x * 5) % tame.len()]
                } else {
                    wild[(x * 3 + 1) % wild.len()]
                }
            })
            .collect();
        let a = Tensor::from_vec(n, k, a);
        let want = a.matmul_with_level(&w, SimdLevel::Scalar);
        for i in (0..n).step_by(2) {
            for j in NEG_ZERO {
                assert_eq!(want.get(i, j).to_bits(), 0.0f32.to_bits(), "oracle ({i},{j})");
            }
        }
        for lvl in levels() {
            let got = packed.matmul_at(lvl, &a);
            for (idx, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "packed {} ({n}x{k}x{m}) at ({},{}): {x:?} vs {y:?}",
                    lvl.name(),
                    idx / m,
                    idx % m
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed f32 matmul ≡ blocked matmul, bit for bit, at every tier, for
    /// every panel-tail residue (`m % 8`) and every AVX2 row-tile shape.
    #[test]
    fn packed_matmul_is_bit_identical(
        (n, k, m) in (1usize..=13, 1usize..40, 1usize..40),
        seed in 0u64..1000,
    ) {
        let n = batch(n, seed);
        let a = pseudo_tensor(n, k, seed);
        let w = pseudo_tensor(k, m, seed ^ 0xFACE);
        let want = a.matmul_with_level(&w, SimdLevel::Scalar);
        let packed = PackedMatrix::from_tensor(&w);
        prop_assert_eq!(packed.rows(), k);
        prop_assert_eq!(packed.cols(), m);
        for lvl in levels() {
            assert_bits_eq(
                packed.matmul_at(lvl, &a).as_slice(),
                want.as_slice(),
                &format!("packed {} ({n}x{k}x{m})", lvl.name()),
            );
        }
    }
}
