//! A dense, row-major, two-dimensional `f32` matrix.

use crate::simd::{self, SimdLevel};
use crate::PackedMatrix;
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

    /// Matrix product `self @ other`: packs `other` into column panels
    /// ([`PackedMatrix::pack`]) and runs the register tiles
    /// ([`PackedMatrix::matmul_at`]), the one product kernel. Counted in
    /// `tensor.matmul.*` with its packing. [`Tensor::matmul_naive`] is its
    /// oracle, bit for bit.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.packed_product(|| PackedMatrix::pack(&other.data, other.rows, other.cols))
    }

    /// Reference matrix product: the straightforward i-k-j loop, each
    /// output folded from +0.0 over the shared dimension in ascending
    /// order. The oracle that [`Tensor::matmul`] and
    /// [`Tensor::matmul_transposed_b`] are tested against; production code
    /// uses those.
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

    /// `self @ otherᵀ`. Shapes: `n×k @ (m×k)ᵀ → n×m`. Packs `otherᵀ`
    /// straight from `other`'s rows ([`PackedMatrix::pack_transposed`], no
    /// transposed copy) and runs the register tiles, so it is bit-identical
    /// to `self.matmul(&other.transpose())`. Counted like
    /// [`Tensor::matmul`].
    pub fn matmul_transposed_b(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed_b: {}x{} @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        self.packed_product(|| PackedMatrix::pack_transposed(&other.data, other.rows, other.cols))
    }

    /// `self @ b` for the panels `pack` builds, at the process-wide level;
    /// the packing and the product count as one `tensor.matmul.*` call.
    fn packed_product(&self, pack: impl FnOnce() -> PackedMatrix) -> Tensor {
        let start = valuenet_obs::enabled().then(valuenet_obs::now_ns);
        let b = pack();
        let out = b.matmul_at(simd::level(), self);
        if let Some(s) = start {
            record_matmul(self.rows, self.cols, b.cols(), s);
        }
        out
    }

    /// `selfᵀ @ other` without materialising the transpose: the fold of
    /// [`Tensor::add_matmul_transposed_a`] into zeros. Shapes:
    /// `(k×n)ᵀ @ k×m → n×m`.
    pub fn matmul_transposed_a(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        out.add_matmul_transposed_a(&[(self, other)]);
        out
    }

    /// [`Tensor::matmul_transposed_a`] pinned to an explicit SIMD level.
    /// Bit-identical at every level; used by tests and benchmarks.
    #[doc(hidden)]
    pub fn matmul_transposed_a_with_level(&self, other: &Tensor, lvl: SimdLevel) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        out.add_matmul_transposed_a_with_level(&[(self, other)], lvl);
        out
    }

    /// `self += Σ aᵀ @ b` over `uses`, each `a` of `k×n` and `b` of `k×m`
    /// (`k` may differ between uses) and `self` of `n×m`: how backward
    /// folds the uses of a weight into the weight's gradient sum. The
    /// result is bit-identical to `self.add_assign(&a.matmul_transposed_a(b))`
    /// for each use in order, and no product is built (see
    /// [`simd::transposed_a_add_at`]).
    pub fn add_matmul_transposed_a(&mut self, uses: &[(&Tensor, &Tensor)]) {
        let start = valuenet_obs::enabled().then(valuenet_obs::now_ns);
        self.add_matmul_transposed_a_with_level(uses, simd::level());
        if let Some(s) = start {
            let k: usize = uses.iter().map(|(a, _)| a.rows).sum();
            record_matmul(self.rows, k, self.cols, s);
        }
    }

    /// [`Tensor::add_matmul_transposed_a`] pinned to an explicit SIMD
    /// level. Bit-identical at every level; used by tests and the kernel
    /// fuzz.
    #[doc(hidden)]
    pub fn add_matmul_transposed_a_with_level(&mut self, uses: &[(&Tensor, &Tensor)], lvl: SimdLevel) {
        for (a, b) in uses {
            assert!(
                a.rows == b.rows && self.shape() == (a.cols, b.cols),
                "matmul_transposed_a: {}x{} += ({}x{})ᵀ @ {}x{}",
                self.rows,
                self.cols,
                a.rows,
                a.cols,
                b.rows,
                b.cols
            );
        }
        let raw: Vec<(&[f32], &[f32], usize)> =
            uses.iter().map(|(a, b)| (a.as_slice(), b.as_slice(), a.rows)).collect();
        let mut row = crate::pool::take(self.cols);
        row.resize(self.cols, 0.0);
        simd::transposed_a_add_at(lvl, &mut self.data, &mut row, &raw, self.rows);
        crate::pool::give(row);
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

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
        // The packed product against the oracle, bit for bit, on shapes
        // straddling the 4-row tiles and the 8-lane panels, with `k = 0`
        // and zero-row operands.
        let shapes = [(1, 1, 1), (2, 4, 4), (3, 5, 7), (8, 3, 2), (5, 9, 6), (7, 17, 13)];
        for &(n, k, m) in shapes.iter().chain(&[(3, 0, 5), (0, 4, 6), (2, 4, 0)]) {
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
            assert_eq!(fast.shape(), (n, m));
            assert_eq!(bits(&fast), bits(&naive), "{n}x{k}x{m}");
        }
    }

    #[test]
    fn transposed_kernels_match_explicit_transpose() {
        let a = Tensor::from_vec(3, 5, (0..15).map(|i| i as f32 * 0.5 - 3.0).collect());
        let b = Tensor::from_vec(4, 5, (0..20).map(|i| (i as f32).cos()).collect());
        assert_eq!(bits(&a.matmul_transposed_b(&b)), bits(&a.matmul_naive(&b.transpose())));

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
