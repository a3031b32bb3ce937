//! Deterministic fuzz harness for the matmul kernels.
//!
//! Each case derives matrix shapes and contents from its seed (the same
//! SplitMix64 discipline as [`crate::fuzz`]) and checks three kernel
//! families **bit for bit** at every SIMD level the host supports:
//!
//! * **packed**: the packed inference matmul against the scalar blocked
//!   matmul;
//! * **tape**: `Tensor::{matmul, matmul_transposed_b,
//!   matmul_transposed_a}_with_level` against the same product at the
//!   scalar level, and `matmul` and the narrow `matmul_transposed_b` also
//!   against `matmul_naive`, whose fold order they share;
//! * **fold**: backward's fold of a weight's uses into one sum
//!   (`Tensor::add_matmul_transposed_a_with_level`): 1–6 uses of 1–9 rows
//!   each, at the model's widths (`n` from {64, 112, 128, 192}, `m` from
//!   {46, 48, 64, 128, 512}), added into a zeroed buffer, against each use
//!   built by `matmul_transposed_a` at the scalar level and summed in
//!   order, the first one cloned;
//! * **transposed panels**: backward's input gradient `dz·Wᵀ` on panels
//!   packed from a row-major `W` (`PackedMatrix::pack_transposed`), 1–9
//!   rows of `dz` at the model's widths (shared dimension from
//!   {46, 48, 64, 128, 512}, output from {32, 64, 112, 128, 192}), against
//!   `matmul_transposed_b_with_level(.., Scalar)`. Every other case seeds
//!   ±0.0, NaN, ±∞ and subnormal entries into `W` and `dz`; any NaN then
//!   matches any NaN, since a NaN's payload depends on operand order.
//!
//! Shapes of the packed and tape families (`n×k @ k×m`):
//!
//! * every third case pins `n = 1`, the decoder's first beam step and
//!   greedy shape; otherwise `n` is drawn from `1..=13`, which reaches every
//!   AVX2 row tile (4, 3, 2 and 1 rows) after one and after two full 4-row
//!   tiles;
//! * every fourth case draws the default model's widths, `k` from
//!   {112, 128, 192, 512} and `m` from {46, 64, 112, 128, 512}, which run
//!   the compiler-vectorized main loops of the tape kernels at full width;
//! * the rest draw `k` in `1..=40` and `m` in `1..=70`: odd,
//!   non-lane-multiple sizes that exercise every tail path, about half of
//!   them 32 columns or wider.

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
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect()
}

/// True when two results differ in any bit.
fn diverges(got: &Tensor, want: &Tensor) -> bool {
    got.as_slice().iter().zip(want.as_slice()).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// Runs one seeded case; `None` on success, a failure description otherwise.
pub fn run_kernel_case(seed: u64) -> Option<String> {
    let mut s = seed;
    let n = if seed.is_multiple_of(3) { 1 } else { (splitmix(&mut s) % 13 + 1) as usize };
    let (k, m) = if seed.is_multiple_of(4) {
        let k = [112, 128, 192, 512][(splitmix(&mut s) % 4) as usize];
        (k, [46, 64, 112, 128, 512][(splitmix(&mut s) % 5) as usize])
    } else {
        ((splitmix(&mut s) % 40 + 1) as usize, (splitmix(&mut s) % 70 + 1) as usize)
    };
    let a = Tensor::from_vec(n, k, pseudo_data(&mut s, n * k));
    let w = Tensor::from_vec(k, m, pseudo_data(&mut s, k * m));
    let shape = format!("{n}x{k} @ {k}x{m}");

    let oracle = a.matmul_with_level(&w, SimdLevel::Scalar);
    let packed = PackedMatrix::from_tensor(&w);
    for lvl in levels() {
        if diverges(&packed.matmul_at(lvl, &a), &oracle) {
            return Some(format!(
                "packed f32 matmul diverges from scalar oracle at {} ({shape})",
                lvl.name()
            ));
        }
    }

    // `a @ w` three ways: directly, as `a @ (wᵀ)ᵀ` and as `(aᵀ)ᵀ @ w`.
    let naive = a.matmul_naive(&w);
    let (wt, at) = (w.transpose(), a.transpose());
    let scalar_ta = at.matmul_transposed_a_with_level(&w, SimdLevel::Scalar);
    for lvl in levels() {
        let tb = a.matmul_transposed_b_with_level(&wt, lvl);
        let ta = at.matmul_transposed_a_with_level(&w, lvl);
        let checks = [
            ("matmul", a.matmul_with_level(&w, lvl), &naive, "matmul_naive"),
            ("matmul_transposed_b", tb, &naive, "matmul_naive"),
            ("matmul_transposed_a", ta, &scalar_ta, "scalar"),
        ];
        for (kernel, got, want, oracle) in checks {
            if diverges(&got, want) {
                return Some(format!(
                    "tape {kernel} diverges from the {oracle} oracle at {} ({shape})",
                    lvl.name()
                ));
            }
        }
    }

    if let Some(fail) = fold_case(&mut s) {
        return Some(fail);
    }
    transposed_case(&mut s, seed.is_multiple_of(2))
}

/// The fold family: several uses of one weight, each `aᵀ · dz` with its
/// own row count, added into one buffer, against building each use at the
/// scalar level and adding them in order with the first one cloned.
fn fold_case(s: &mut u64) -> Option<String> {
    let n = [64, 112, 128, 192][(splitmix(s) % 4) as usize];
    let m = [46, 48, 64, 128, 512][(splitmix(s) % 5) as usize];
    let uses: Vec<(Tensor, Tensor)> = (0..splitmix(s) % 6 + 1)
        .map(|_| {
            let k = (splitmix(s) % 9 + 1) as usize;
            (Tensor::from_vec(k, n, pseudo_data(s, k * n)), Tensor::from_vec(k, m, pseudo_data(s, k * m)))
        })
        .collect();
    let mut want: Option<Tensor> = None;
    for (a, dz) in &uses {
        let built = a.matmul_transposed_a_with_level(dz, SimdLevel::Scalar);
        match &mut want {
            Some(sum) => sum.add_assign(&built),
            None => want = Some(built),
        }
    }
    let want = want.expect("at least one use");
    let refs: Vec<(&Tensor, &Tensor)> = uses.iter().map(|(a, dz)| (a, dz)).collect();
    let rows: Vec<usize> = uses.iter().map(|(a, _)| a.rows()).collect();
    for lvl in levels() {
        let mut got = Tensor::zeros(n, m);
        got.add_matmul_transposed_a_with_level(&refs, lvl);
        if diverges(&got, &want) {
            return Some(format!(
                "fold of {} uses ({rows:?} rows, {n}x{m}) diverges from the built-and-summed uses at {}",
                uses.len(),
                lvl.name()
            ));
        }
    }
    None
}

/// The transposed-panels family: `dz @ Wᵀ` on the panels of `Wᵀ` packed
/// from `W`'s rows, against the narrow A·Bᵀ kernel at the scalar level.
/// With `special`, `W` and `dz` also hold ±0.0, NaN, ±∞ and subnormals.
fn transposed_case(s: &mut u64, special: bool) -> Option<String> {
    const SPECIAL: [f32; 8] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::from_bits(1),
    ];
    let k = [46, 48, 64, 128, 512][(splitmix(s) % 5) as usize];
    let out = [32, 64, 112, 128, 192][(splitmix(s) % 5) as usize];
    let n = (splitmix(s) % 9 + 1) as usize;
    let mut data = |len: usize| {
        let mut d = pseudo_data(s, len);
        if special {
            for v in &mut d {
                let r = splitmix(s);
                if r.is_multiple_of(16) {
                    *v = SPECIAL[(r >> 8) as usize % SPECIAL.len()];
                }
            }
        }
        d
    };
    // `W` is `out×k` row-major (the weight of a `k`-wide product), `dz` is
    // `n×k`, and `dz @ Wᵀ` is `n×out`.
    let w = Tensor::from_vec(out, k, data(out * k));
    let dz = Tensor::from_vec(n, k, data(n * k));
    let want = dz.matmul_transposed_b_with_level(&w, SimdLevel::Scalar);
    let panels = PackedMatrix::pack_transposed(w.as_slice(), out, k);
    for lvl in levels() {
        let got = panels.matmul_at(lvl, &dz);
        let same = got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()));
        if !same {
            return Some(format!(
                "transposed panels diverge from the scalar narrow dot at {} ({n}x{k} @ ({out}x{k})ᵀ{})",
                lvl.name(),
                if special { ", special values" } else { "" }
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
