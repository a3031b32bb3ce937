//! Property tests for the one product kernel, the packed f32 layout.
//!
//! Packing is a pure layout change: `PackedMatrix::matmul_at` must be
//! **bit-identical** to the oracle, `Tensor::matmul_naive`, at every SIMD
//! tier — for random shapes up to 13 rows (every row remainder after one
//! and two full 4-row AVX2 tiles), at the default model's weight and
//! activation products, through `Tensor::matmul` and
//! `Tensor::matmul_transposed_b`, and on ±0.0, NaN, ±∞ and subnormal
//! inputs.

use proptest::prelude::*;
use valuenet_tensor::packed::PackedMatrix;
use valuenet_tensor::simd::{self, SimdLevel};
use valuenet_tensor::Tensor;

fn levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
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
        let want = a.matmul_naive(&w);
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

/// `a·b` and `a·(bᵀ)ᵀ` through every path to the kernel — `Tensor::matmul`,
/// `Tensor::matmul_transposed_b`, and `PackedMatrix::pack` or
/// `pack_transposed` with `matmul_at` at each level — against the oracle.
fn check_products(a: &Tensor, b: &Tensor, what: &str) {
    let want = a.matmul_naive(b);
    let bt = b.transpose();
    let packed = PackedMatrix::from_tensor(b);
    let packed_t = PackedMatrix::pack_transposed(bt.as_slice(), bt.rows(), bt.cols());
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut arms = vec![("matmul".to_string(), a.matmul(b))];
    arms.push(("matmul_transposed_b".to_string(), a.matmul_transposed_b(&bt)));
    for lvl in levels() {
        arms.push((format!("pack {}", lvl.name()), packed.matmul_at(lvl, a)));
        arms.push((format!("pack_transposed {}", lvl.name()), packed_t.matmul_at(lvl, a)));
    }
    for (arm, got) in arms {
        assert_eq!(got.shape(), (n, m), "{what} {arm}");
        assert_bits_eq(got.as_slice(), want.as_slice(), &format!("{what} {arm} ({n}x{k}x{m})"));
    }
}

/// The activation products the model sends the kernel: the encoder's
/// self-attention scores `q·Kᵀ` (`n×16 · (n×16)ᵀ`) and `attn·V`
/// (`n×n · n×16`), and decoder steps of 1–4 rows scoring and attending
/// over 1, 10 or 60 item rows of width 64 or 128; then `k = 0` and
/// zero-row operands. Each shape runs as `A·B` and as `A·Bᵀ`.
#[test]
fn products_are_bit_identical_at_activation_shapes() {
    for n in [1, 7, 8, 9, 33, 61] {
        let (q, keys) = (pseudo_tensor(n, 16, n as u64), pseudo_tensor(n, 16, 100 + n as u64));
        check_products(&q, &keys.transpose(), "encoder q·Kᵀ");
        check_products(&pseudo_tensor(n, n, 200 + n as u64), &keys, "encoder attn·V");
    }
    for rows in 1..=4 {
        for items in [1, 10, 60] {
            for width in [64, 128] {
                let seed = (rows * 1000 + items * 10 + width) as u64;
                let h = pseudo_tensor(rows, width, seed);
                let item = pseudo_tensor(items, width, seed ^ 0xA11);
                check_products(&h, &item.transpose(), "decoder scores");
                let attn = pseudo_tensor(rows, items, seed ^ 0x5EED);
                check_products(&attn, &item, "decoder attn·items");
            }
        }
    }
    for (n, k, m) in [(3, 0, 5), (1, 0, 1), (0, 4, 6), (0, 0, 3), (2, 4, 0), (0, 3, 0)] {
        check_products(&pseudo_tensor(n, k, 7), &pseudo_tensor(k, m, 8), "empty");
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
        let want = a.matmul_naive(&w);
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

    /// Packed f32 matmul ≡ the oracle, bit for bit, at every tier, for
    /// every panel-tail residue (`m % 8`) and every AVX2 row-tile shape.
    #[test]
    fn packed_matmul_is_bit_identical(
        (n, k, m) in (1usize..=13, 1usize..40, 1usize..40),
        seed in 0u64..1000,
    ) {
        let n = batch(n, seed);
        let a = pseudo_tensor(n, k, seed);
        let w = pseudo_tensor(k, m, seed ^ 0xFACE);
        let want = a.matmul_naive(&w);
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
