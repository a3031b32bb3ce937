//! Deterministic fuzz harness for the packed inference matmul kernel.
//!
//! Each case derives a matrix shape and contents from its seed (the same
//! SplitMix64 discipline as [`crate::fuzz`]) and checks that the packed
//! kernel is **bit-identical** to the scalar blocked matmul at every SIMD
//! level the host supports.
//!
//! Shapes (`n×k @ k×m`):
//!
//! * every third case pins `n = 1`, the decoder's first beam step and
//!   greedy shape; otherwise `n` is drawn from `1..=13`, which reaches every
//!   AVX2 row tile (4, 3, 2 and 1 rows) after one and after two full 4-row
//!   tiles;
//! * every fourth case draws the default model's widths, `k` from
//!   {112, 128, 192} and `m` from {46, 64, 128, 512};
//! * the rest draw `k` in `1..=40` and `m` in `1..=70`: odd,
//!   non-lane-multiple sizes that exercise every panel-tail path.

use valuenet_tensor::packed::PackedMatrix;
use valuenet_tensor::simd::{detected_level, SimdLevel};
use valuenet_tensor::Tensor;

/// Outcome of a [`run_kernel_fuzz`] sweep.
pub struct KernelFuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Human-readable description of each failing case, with its seed.
    pub failures: Vec<(u64, String)>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn pseudo_data(state: &mut u64, n: usize) -> Vec<f32> {
    (0..n).map(|_| (splitmix(state) >> 40) as f32 / 8388608.0 * 4.0 - 2.0).collect()
}

fn levels() -> Vec<SimdLevel> {
    let top = detected_level();
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect()
}

/// Runs one seeded case; `None` on success, a failure description otherwise.
pub fn run_kernel_case(seed: u64) -> Option<String> {
    let mut s = seed;
    let n = if seed.is_multiple_of(3) { 1 } else { (splitmix(&mut s) % 13 + 1) as usize };
    let (k, m) = if seed.is_multiple_of(4) {
        let k = [112, 128, 192][(splitmix(&mut s) % 3) as usize];
        (k, [46, 64, 128, 512][(splitmix(&mut s) % 4) as usize])
    } else {
        ((splitmix(&mut s) % 40 + 1) as usize, (splitmix(&mut s) % 70 + 1) as usize)
    };
    let a = Tensor::from_vec(n, k, pseudo_data(&mut s, n * k));
    let w = Tensor::from_vec(k, m, pseudo_data(&mut s, k * m));

    let oracle = a.matmul_with_level(&w, SimdLevel::Scalar);
    let packed = PackedMatrix::from_tensor(&w);
    for lvl in levels() {
        let got = packed.matmul_at(lvl, &a);
        if got.as_slice().iter().zip(oracle.as_slice()).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return Some(format!(
                "packed f32 matmul diverges from scalar oracle at {} ({n}x{k} @ {k}x{m})",
                lvl.name()
            ));
        }
    }

    None
}

static KERNEL_AGREE: valuenet_obs::Counter = valuenet_obs::Counter::new("fuzz.kernel.agree");
static KERNEL_DIVERGE: valuenet_obs::Counter =
    valuenet_obs::Counter::new("fuzz.kernel.divergence");

/// Runs `cases` seeded kernel cases derived from `seed`.
pub fn run_kernel_fuzz(cases: usize, seed: u64) -> KernelFuzzReport {
    let _span = valuenet_obs::span("fuzz.kernel");
    let mut failures = Vec::new();
    for i in 0..cases {
        let case_seed = crate::case_seed(seed, i as u64);
        if let Some(desc) = run_kernel_case(case_seed) {
            KERNEL_DIVERGE.add(1);
            failures.push((case_seed, desc));
        } else {
            KERNEL_AGREE.add(1);
        }
    }
    KernelFuzzReport { cases, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_fuzz_smoke_is_clean() {
        let report = run_kernel_fuzz(64, 42);
        assert_eq!(report.cases, 64);
        assert!(
            report.failures.is_empty(),
            "kernel fuzz failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn cases_are_deterministic() {
        // Same seed, same verdicts (all passing here, but the derived shapes
        // must at least be stable across runs for --replay-style debugging).
        for i in 0..8 {
            let seed = crate::case_seed(7, i);
            assert_eq!(run_kernel_case(seed).is_none(), run_kernel_case(seed).is_none());
        }
    }
}
