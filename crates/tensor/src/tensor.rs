//! A dense, row-major, two-dimensional `f32` matrix.

use crate::simd::{self, SimdLevel};
use std::fmt;

// Kernel accounting for the production matmul paths (see `DESIGN.md`,
// "Observability"): multiply-adds count as 2 FLOPs, bytes are the three
// operand matrices read/written once. The `tensor.matmul.gflops` line in the
// summary sink is derived as flops / nanos.
static MATMUL_CALLS: valuenet_obs::Counter = valuenet_obs::Counter::new("tensor.matmul.calls");
static MATMUL_FLOPS: valuenet_obs::Counter = valuenet_obs::Counter::new("tensor.matmul.flops");
static MATMUL_BYTES: valuenet_obs::Counter = valuenet_obs::Counter::new("tensor.matmul.bytes");
static MATMUL_NANOS: valuenet_obs::Counter = valuenet_obs::Counter::new("tensor.matmul.nanos");

/// Records one `n×k @ k×m` kernel invocation that started at `start_ns`.
/// Callers only reach this when observability is enabled.
#[cold]
pub(crate) fn record_matmul(n: usize, k: usize, m: usize, start_ns: u64) {
    MATMUL_CALLS.add(1);
    MATMUL_FLOPS.add(2 * (n as u64) * (k as u64) * (m as u64));
    MATMUL_BYTES.add(4 * ((n * k) as u64 + (k * m) as u64 + (n * m) as u64));
    MATMUL_NANOS.add(valuenet_obs::now_ns().saturating_sub(start_ns));
}

/// A dense row-major matrix of `f32` values.
///
/// All autodiff operations in [`crate::Graph`] produce and consume `Tensor`s.
/// Shape errors are programming errors and panic with a descriptive message.
///
/// Buffers come from and return to the thread-local [`crate::pool`]: every
/// constructor draws its backing `Vec` via [`crate::pool::take`] and `Drop`
/// files it back with [`crate::pool::give`], so forward and gradient buffers
/// are recycled across samples without any call-site cooperation. A buffer
/// can only re-enter circulation after its tensor is dropped, so live
/// tensors never alias.
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = crate::pool::take(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor { data, rows: self.rows, cols: self.cols }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        crate::pool::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// A `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut data = crate::pool::take(rows * cols);
        data.resize(rows * cols, 0.0);
        Tensor { data, rows, cols }
    }

    /// A `rows × cols` tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        let mut data = crate::pool::take(rows * cols);
        data.resize(rows * cols, v);
        Tensor { data, rows, cols }
    }

    /// A `1 × 1` tensor holding a single scalar.
    pub fn scalar(v: f32) -> Self {
        let mut data = crate::pool::take(1);
        data.push(v);
        Tensor { data, rows: 1, cols: 1 }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: buffer of {} elements cannot be {rows}x{cols}",
            data.len()
        );
        Tensor { data, rows, cols }
    }

    /// Builds a tensor from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Tensor::from_rows: no rows");
        let cols = rows[0].len();
        let mut data = crate::pool::take(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Tensor::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Tensor { data, rows: rows.len(), cols }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(v: &[f32]) -> Self {
        let mut data = crate::pool::take(v.len());
        data.extend_from_slice(v);
        Tensor { data, rows: 1, cols: v.len() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a `1 × 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 × 1`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on {}x{} tensor", self.rows, self.cols);
        self.data[0]
    }

    /// Matrix product `self @ other` via the register-blocked, cache-tiled
    /// kernel ([`block_kernel`]): four output rows are produced per pass so
    /// every loaded `other` value feeds four multiply-adds, and columns are
    /// tiled so the active output block stays L1-resident. See
    /// [`Tensor::matmul_naive`] for the reference kernel.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let lvl = simd::level();
        if !valuenet_obs::enabled() {
            return block_kernel(&self.data, &other.data, self.rows, self.cols, other.cols, lvl);
        }
        let start = valuenet_obs::now_ns();
        let out = block_kernel(&self.data, &other.data, self.rows, self.cols, other.cols, lvl);
        record_matmul(self.rows, self.cols, other.cols, start);
        out
    }

    /// [`Tensor::matmul`] pinned to an explicit SIMD level. All levels are
    /// bit-identical; tests and benchmarks use this to compare arms without
    /// touching the process-wide level.
    #[doc(hidden)]
    pub fn matmul_with_level(&self, other: &Tensor, lvl: SimdLevel) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        block_kernel(&self.data, &other.data, self.rows, self.cols, other.cols, lvl)
    }

    /// Reference matrix product (the original straightforward i-k-j kernel).
    ///
    /// Kept as the oracle for equivalence tests and as the baseline in the
    /// matmul benchmarks; production code paths use [`Tensor::matmul`].
    pub fn matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        for i in 0..n {
            let out_row = &mut out.data[i * m..(i + 1) * m];
            for p in 0..k {
                let a = self.data[i * k + p];
                let b_row = &other.data[p * m..(p + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ otherᵀ`. Shapes: `n×k @ (m×k)ᵀ → n×m`.
    ///
    /// Two regimes, chosen by the left operand's height. Wide (`n >= 8`):
    /// pack `otherᵀ` once through the tiled [`Tensor::transpose`] and run the
    /// blocked kernel on the panel — the `k·m`-copy pack amortises over `n`
    /// reuses. Narrow (`n < 8`, the shape of every backward `dz @ wᵀ` and of
    /// beam-step attention scores): the pack would cost as much memory
    /// traffic as the multiply itself, so compute row dots directly via
    /// [`dot_kernel`] instead. Both regimes fold each output element over
    /// the shared dimension in ascending order, one add per step, so the
    /// choice never changes a bit of the result.
    pub fn matmul_transposed_b(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed_b: {}x{} @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let lvl = simd::level();
        let start = valuenet_obs::enabled().then(valuenet_obs::now_ns);
        let out = if self.rows < 8 {
            dot_kernel(&self.data, &other.data, self.rows, self.cols, other.rows, lvl)
        } else {
            let packed = other.transpose();
            block_kernel(&self.data, &packed.data, self.rows, self.cols, other.rows, lvl)
        };
        if let Some(s) = start {
            record_matmul(self.rows, self.cols, other.rows, s);
        }
        out
    }

    /// [`Tensor::matmul_transposed_b`] pinned to an explicit SIMD level,
    /// forcing the narrow-left direct-dot kernel. Bit-identical at every
    /// level; used by tests and benchmarks.
    #[doc(hidden)]
    pub fn matmul_transposed_b_with_level(&self, other: &Tensor, lvl: SimdLevel) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed_b: {}x{} @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        dot_kernel(&self.data, &other.data, self.rows, self.cols, other.rows, lvl)
    }

    /// `selfᵀ @ other` without materialising the transpose.
    ///
    /// Computed as a sum of rank-1 updates, four shared rows per pass: for
    /// rows `p..p+4`, `out[i] += Σ self[p][i] · other.row(p)`, so all reads
    /// and writes are contiguous and each output row is traversed once per
    /// four input rows. Shapes: `(k×n)ᵀ @ k×m → n×m`.
    pub fn matmul_transposed_a(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transposed_a: ({}x{})ᵀ @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let start = valuenet_obs::enabled().then(valuenet_obs::now_ns);
        let out = transposed_a_kernel(&self.data, &other.data, self.rows, self.cols, other.cols, simd::level());
        if let Some(s) = start {
            record_matmul(self.cols, self.rows, other.cols, s);
        }
        out
    }

    /// [`Tensor::matmul_transposed_a`] pinned to an explicit SIMD level.
    /// Bit-identical at every level; used by tests and benchmarks.
    #[doc(hidden)]
    pub fn matmul_transposed_a_with_level(&self, other: &Tensor, lvl: SimdLevel) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transposed_a: ({}x{})ᵀ @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        transposed_a_kernel(&self.data, &other.data, self.rows, self.cols, other.cols, lvl)
    }

    /// Transposed copy, tiled so the destination is written contiguously.
    ///
    /// The inner loop walks one output row left to right while the source
    /// column stays inside a 32×32 tile, keeping both sides' cache lines
    /// resident instead of striding across the whole source per element.
    pub fn transpose(&self) -> Tensor {
        const TILE: usize = 32;
        let mut out = Tensor::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            let r_end = (rb + TILE).min(self.rows);
            for cb in (0..self.cols).step_by(TILE) {
                let c_end = (cb + TILE).min(self.cols);
                for c in cb..c_end {
                    let out_row = &mut out.data[c * self.rows + rb..c * self.rows + r_end];
                    for (o, r) in out_row.iter_mut().zip(rb..r_end) {
                        *o = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = crate::pool::take(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor { data, rows: self.rows, cols: self.cols }
    }

    /// Element-wise binary zip with another tensor of identical shape.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip: shape mismatch");
        let mut data = crate::pool::take(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor { data, rows: self.rows, cols: self.cols }
    }

    /// In-place element-wise accumulation `self += other`, through
    /// [`simd::add_assign`] at the process-wide level.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        simd::add_assign(&mut self.data, &other.data);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element in a `1 × n` or `n × 1` vector.
    pub fn argmax(&self) -> usize {
        assert!(self.rows == 1 || self.cols == 1, "argmax expects a vector");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Narrow-case kernel for [`Tensor::matmul_transposed_b`]: `n×k @ (m×k)ᵀ`
/// as plain row dots, no transpose pack. Four output columns are produced
/// per pass — four independent accumulator chains over four contiguous `b`
/// rows — so the loop has instruction-level parallelism even though each
/// individual dot is a serial f32 fold. Each output element is a strict
/// ascending fold over the shared dimension, exactly like the blocked
/// kernel's per-element accumulation, so the two paths agree bitwise.
#[inline(never)]
fn dot_kernel(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, lvl: SimdLevel) -> Tensor {
    let mut data = crate::pool::take(n * m);
    for i in 0..n {
        let x = &a[i * k..(i + 1) * k];
        simd::dot_rows_at(lvl, x, b, k, m, &mut data);
    }
    Tensor { data, rows: n, cols: m }
}

/// The kernel behind [`Tensor::matmul_transposed_a`]: `selfᵀ @ other` as a
/// sum of rank-1 updates, four shared rows per pass. `a` is `k×n`, `b` is
/// `k×m`, result is `n×m`.
#[inline(never)]
fn transposed_a_kernel(a: &[f32], b: &[f32], k: usize, n: usize, m: usize, lvl: SimdLevel) -> Tensor {
    let mut out = Tensor::zeros(n, m);
    let full_p = k - k % 4;
    for p in (0..full_p).step_by(4) {
        let b0 = &b[p * m..(p + 1) * m];
        let b1 = &b[(p + 1) * m..(p + 2) * m];
        let b2 = &b[(p + 2) * m..(p + 3) * m];
        let b3 = &b[(p + 3) * m..(p + 4) * m];
        for i in 0..n {
            let a0 = a[p * n + i];
            let a1 = a[(p + 1) * n + i];
            let a2 = a[(p + 2) * n + i];
            let a3 = a[(p + 3) * n + i];
            let out_row = &mut out.data[i * m..(i + 1) * m];
            simd::axpy4_shared_at(lvl, out_row, a0, a1, a2, a3, b0, b1, b2, b3);
        }
    }
    for p in full_p..k {
        let b_row = &b[p * m..(p + 1) * m];
        for i in 0..n {
            let av = a[p * n + i];
            let out_row = &mut out.data[i * m..(i + 1) * m];
            simd::axpy_at(lvl, out_row, av, b_row);
        }
    }
    out
}

/// The shared inner kernel behind [`Tensor::matmul`] and
/// [`Tensor::matmul_transposed_b`]: a standard `n×k @ k×m` row-major product.
///
/// Two levels of blocking over the naive i-k-j loop:
///
/// * **Register blocking over rows** — four output rows are computed per
///   pass, so each `b` element loaded in the vectorisable inner axpy feeds
///   four multiply-adds instead of one, quartering the B-panel traffic that
///   dominates the naive kernel at sizes past L1.
/// * **Cache tiling over columns** — the column window is capped so the four
///   active output rows plus the current `b` row stay L1-resident while `p`
///   sweeps the full depth.
///
/// The inner loop keeps the naive kernel's contiguous multiply-accumulate
/// shape (independent lanes, no reduction chain), which the compiler
/// auto-vectorises at the baseline target.
///
/// `inline(never)`: call overhead is nothing next to the 2·n·k·m-FLOP body,
/// and one out-of-line copy keeps every `matmul` entry point (instrumented
/// or not) on the same code, free of per-caller layout/alignment skew.
#[inline(never)]
fn block_kernel(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, lvl: SimdLevel) -> Tensor {
    const MR: usize = 4; // output rows per register block
    const JC: usize = 512; // column tile: MR rows × 512 cols × 4 B = 8 KiB
    let mut out = Tensor::zeros(n, m);
    let full_i = n - n % MR;
    for jb in (0..m).step_by(JC) {
        let jw = JC.min(m - jb);
        for i in (0..full_i).step_by(MR) {
            // Four disjoint output-row windows for this column tile.
            let block = &mut out.data[i * m..(i + MR) * m];
            let (r0, rest) = block.split_at_mut(m);
            let (r1, rest) = rest.split_at_mut(m);
            let (r2, r3) = rest.split_at_mut(m);
            let r0 = &mut r0[jb..jb + jw];
            let r1 = &mut r1[jb..jb + jw];
            let r2 = &mut r2[jb..jb + jw];
            let r3 = &mut r3[jb..jb + jw];
            for p in 0..k {
                let a0 = a[i * k + p];
                let a1 = a[(i + 1) * k + p];
                let a2 = a[(i + 2) * k + p];
                let a3 = a[(i + 3) * k + p];
                let b_row = &b[p * m + jb..p * m + jb + jw];
                simd::axpy4_at(lvl, r0, r1, r2, r3, a0, a1, a2, a3, b_row);
            }
        }
        // Row remainder: plain single-row axpy over the same column tile.
        for i in full_i..n {
            let out_row = &mut out.data[i * m + jb..i * m + jb + jw];
            for p in 0..k {
                let av = a[i * k + p];
                let b_row = &b[p * m + jb..p * m + jb + jw];
                simd::axpy_at(lvl, out_row, av, b_row);
            }
        }
    }
    out
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let cols = self.cols.min(8);
            let vals: Vec<String> =
                self.row(r)[..cols].iter().map(|v| format!("{v:.4}")).collect();
            let ell = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", vals.join(", "), ell)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_and_get() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        Tensor::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        assert_eq!(a.matmul(&b).scalar_value(), 3.0);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn blocked_matches_naive_on_awkward_shapes() {
        // Shapes straddling the 2×4 block edges and the dot4 tail.
        for &(n, k, m) in &[(1, 1, 1), (2, 4, 4), (3, 5, 7), (8, 3, 2), (5, 9, 6), (7, 17, 13)] {
            let a = Tensor::from_vec(
                n,
                k,
                (0..n * k).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect(),
            );
            let b = Tensor::from_vec(
                k,
                m,
                (0..k * m).map(|i| ((i * 5 + 1) % 13) as f32 - 6.0).collect(),
            );
            let fast = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert_eq!(fast.shape(), naive.shape());
            for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert!((x - y).abs() < 1e-4, "{n}x{k}x{m}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn transposed_kernels_match_explicit_transpose() {
        let a = Tensor::from_vec(3, 5, (0..15).map(|i| i as f32 * 0.5 - 3.0).collect());
        let b = Tensor::from_vec(4, 5, (0..20).map(|i| (i as f32).cos()).collect());
        let direct = a.matmul_transposed_b(&b);
        let reference = a.matmul_naive(&b.transpose());
        for (x, y) in direct.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32).sin()).collect());
        let direct = a.matmul_transposed_a(&c); // (3x5)ᵀ @ 3x4 = 5x4
        let reference = a.transpose().matmul_naive(&c);
        assert_eq!(direct.shape(), (5, 4));
        for (x, y) in direct.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn argmax_row_and_col() {
        assert_eq!(Tensor::row_vector(&[0.1, 3.0, -1.0]).argmax(), 1);
        let col = Tensor::from_vec(3, 1, vec![5.0, 1.0, 2.0]);
        assert_eq!(col.argmax(), 0);
    }

    #[test]
    fn map_zip_sum() {
        let a = Tensor::row_vector(&[1.0, -2.0]);
        assert_eq!(a.map(f32::abs).sum(), 3.0);
        let b = Tensor::row_vector(&[3.0, 4.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).as_slice(), &[3.0, -8.0]);
    }
}
