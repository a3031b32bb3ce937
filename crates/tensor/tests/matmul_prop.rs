//! Property tests: the matrix products agree with the straightforward
//! reference kernel, `Tensor::matmul_naive`, across random rectangular
//! shapes — `matmul` and `matmul_transposed_b` bit for bit, since they fold
//! each output in the oracle's order on the packed register tiles — and the
//! tiled transpose is an involution.

use proptest::prelude::*;
use valuenet_tensor::Tensor;

const DIM: std::ops::Range<usize> = 1..33;

fn bits(t: &Tensor) -> ((usize, usize), Vec<u32>) {
    (t.shape(), t.as_slice().iter().map(|v| v.to_bits()).collect())
}

/// Asserts element-wise agreement within `1e-5` scaled by magnitude (the
/// `Aᵀ·B` fold sums shared rows in groups of four, so exact f32 equality
/// with the oracle is not its contract — only agreement to rounding).
fn check_close(fast: &Tensor, reference: &Tensor) {
    assert_eq!(fast.shape(), reference.shape());
    for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
        assert!(
            (x - y).abs() < 1e-5 * (1.0 + y.abs()),
            "kernel divergence: {x} vs {y} (diff {})",
            (x - y).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Register-blocked (packed) kernel ≡ naive kernel on random
    /// rectangular products.
    #[test]
    fn blocked_matmul_matches_naive(
        (n, k, m) in (DIM, DIM, DIM),
        seed in 0u64..1000,
    ) {
        let a = pseudo_tensor(n, k, seed);
        let b = pseudo_tensor(k, m, seed ^ 0x9E37);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&a.matmul_naive(&b)));
    }

    /// `matmul_transposed_b(x, y)` ≡ `x @ yᵀ` done the slow way.
    #[test]
    fn transposed_b_matches_materialised(
        (n, k, m) in (DIM, DIM, DIM),
        seed in 0u64..1000,
    ) {
        let x = pseudo_tensor(n, k, seed.wrapping_mul(3));
        let y = pseudo_tensor(m, k, seed.wrapping_mul(5) ^ 0xABCD);
        prop_assert_eq!(bits(&x.matmul_transposed_b(&y)), bits(&x.matmul_naive(&y.transpose())));
    }

    /// `matmul_transposed_a(x, y)` ≡ `xᵀ @ y` done the slow way.
    #[test]
    fn transposed_a_matches_materialised(
        (n, k, m) in (DIM, DIM, DIM),
        seed in 0u64..1000,
    ) {
        let x = pseudo_tensor(k, n, seed.wrapping_mul(7));
        let y = pseudo_tensor(k, m, seed.wrapping_mul(11) ^ 0x1234);
        check_close(&x.matmul_transposed_a(&y), &x.transpose().matmul_naive(&y));
    }

    /// The tiled transpose is an involution and moves every element to the
    /// mirrored coordinate.
    #[test]
    fn transpose_involution((n, m) in (1usize..40, 1usize..40), seed in 0u64..1000) {
        let t = pseudo_tensor(n, m, seed);
        let tt = t.transpose();
        prop_assert_eq!(tt.shape(), (m, n));
        for r in 0..n {
            for c in 0..m {
                prop_assert_eq!(t.get(r, c), tt.get(c, r));
            }
        }
        prop_assert_eq!(&tt.transpose(), &t);
    }
}

/// Deterministic pseudo-random tensor (SplitMix64 stream) so shape and seed
/// fully determine contents.
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
