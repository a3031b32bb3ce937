//! Deterministic fuzz harness for the packed and int8-quantized matmul
//! kernels.
//!
//! Each case derives a matrix shape and contents from its seed (the same
//! SplitMix64 discipline as [`crate::fuzz`]) and checks three invariants:
//!
//! 1. the packed f32 kernel is **bit-identical** to the scalar blocked
//!    matmul at every SIMD level the host supports;
//! 2. the quantized kernel is **bit-identical across SIMD levels** (the AVX2
//!    int8 path must match its scalar reference exactly);
//! 3. the quantized result stays within the analytic error budget
//!    `0.5 · scale · Σ|a_l|` per output element (each weight is off by at
//!    most half a quantization step).
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

use valuenet_tensor::packed::{PackedMatrix, QuantizedMatrix};
use valuenet_tensor::simd::{detected_level, SimdLevel};
use valuenet_tensor::Tensor;

/// Outcome of a [`run_quant_fuzz`] sweep.
pub struct QuantFuzzReport {
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
pub fn run_quant_case(seed: u64) -> Option<String> {
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

    let quant = QuantizedMatrix::quantize(w.as_slice(), k, m, None);
    let q_ref = quant.matmul_at(SimdLevel::Scalar, &a);
    for lvl in levels() {
        let got = quant.matmul_at(lvl, &a);
        if got.as_slice().iter().zip(q_ref.as_slice()).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return Some(format!(
                "quantized matmul not bit-identical across levels at {} ({n}x{k} @ {k}x{m})",
                lvl.name()
            ));
        }
    }

    let scale = quant.scale();
    for i in 0..n {
        let budget: f32 =
            a.row(i).iter().map(|v| v.abs()).sum::<f32>() * 0.5 * scale * 1.01 + 1e-5;
        for j in 0..m {
            let err = (q_ref.get(i, j) - oracle.get(i, j)).abs();
            if err > budget {
                return Some(format!(
                    "quantized error {err} exceeds budget {budget} at ({i},{j}) \
                     ({n}x{k} @ {k}x{m}, scale {scale})"
                ));
            }
        }
    }
    None
}

static QUANT_AGREE: valuenet_obs::Counter = valuenet_obs::Counter::new("fuzz.quant.agree");
static QUANT_DIVERGE: valuenet_obs::Counter = valuenet_obs::Counter::new("fuzz.quant.divergence");

/// Runs `cases` seeded quantization cases derived from `seed`.
pub fn run_quant_fuzz(cases: usize, seed: u64) -> QuantFuzzReport {
    let _span = valuenet_obs::span("fuzz.quant");
    let mut failures = Vec::new();
    for i in 0..cases {
        let case_seed = crate::case_seed(seed, i as u64);
        if let Some(desc) = run_quant_case(case_seed) {
            QUANT_DIVERGE.add(1);
            failures.push((case_seed, desc));
        } else {
            QUANT_AGREE.add(1);
        }
    }
    QuantFuzzReport { cases, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_fuzz_smoke_is_clean() {
        let report = run_quant_fuzz(64, 42);
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
            assert_eq!(run_quant_case(seed).is_none(), run_quant_case(seed).is_none());
        }
    }
}
