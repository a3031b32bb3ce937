//! Packed matrices: the right operand of every matrix product.
//!
//! [`PackedMatrix`] stores a `k×m` right operand in panel-major order: the
//! columns are split into panels of [`NR`] = 8, and each panel holds its `k`
//! rows contiguously (`k × NR` values, zero-padded in the last panel). The
//! panel width matches the AVX2 register width, and a panel is read top to
//! bottom with unit-stride loads. The buffer is 32-byte aligned, so no
//! panel-row load straddles two cache lines. The allocator alone guarantees
//! 16 bytes, and where a buffer lands depends on which thread packed it
//! first, so the tiles' speed would otherwise vary from one process to the
//! next.
//!
//! **One product kernel.** [`PackedMatrix::matmul_at`] is the only
//! production kernel for `A·B` and `A·Bᵀ`. A weight's panels are packed once
//! and cached by the parameter store (`ParamStore` in `valuenet-nn`);
//! [`Tensor::matmul`] and [`Tensor::matmul_transposed_b`] pack an
//! activation operand per call. [`PackedMatrix::pack`] lays out `B` for
//! `A·B`. [`PackedMatrix::pack_transposed`] lays out `Bᵀ` straight from
//! `B`'s rows, with no transposed copy, for `A·Bᵀ`: backward's input
//! gradient `dz·Wᵀ`, attention scores `q·Kᵀ` and pointer scores. A weight
//! write packs the new values into the same layout
//! ([`PackedMatrix::repack`]). [`Tensor::matmul_naive`] is the oracle.
//!
//! **Register tiles (AVX2).** The AVX2 product computes a tile of `R`
//! activation rows × `P` panels at once, one 8-lane accumulator per
//! (row, panel) pair. Each step `l` loads one row of every panel in the
//! tile and broadcasts `a[i][l]` once per row, so each load and each
//! broadcast feeds several multiply-adds, and `R·P` independent add chains
//! hide the add latency. The shape depends on the rows left:
//!
//! | rows left | tile  | accumulators |
//! |-----------|-------|--------------|
//! | ≥ 4       | 4 × 2 | 8            |
//! | 3         | 3 × 2 | 6            |
//! | 2         | 2 × 4 | 8            |
//! | 1         | 1 × 8 | 8            |
//!
//! Panels left over after the last full tile of a row block go through
//! narrower tiles with the same row count (widths 4, 2, 1). The 1 × 8 tile
//! needs 8 accumulators plus its 8 panel rows; each row is used once, so the
//! loads fold into the multiplies and the tile fits in 16 ymm registers.
//! A single row runs 1 × 8, not 1 × 2: two chains are too few to hide the
//! add latency (DESIGN.md §12 has the measurements), and one row is the
//! first beam step, greedy decoding and every `item_in` and `init_h`
//! product. The tiles are intrinsics, because the compiler does not derive
//! a register tile from a loop nest.
//!
//! **Scalar tier.** The scalar tier folds one panel at a time
//! (`panel_dot`), reading the panel as rows of `NR` lanes, so the compiler
//! vectorizes the fold with the baseline target's 128-bit lanes.
//!
//! **Bit-identity.** Each output element is the same strict ascending fold
//! over the shared dimension as [`Tensor::matmul_naive`] — one multiply and
//! one add per step, starting from +0.0 — so the product is bit-identical
//! to the oracle at both tiers for every input. A tile only changes which
//! independent outputs are in flight together, never the order of one
//! output's fold. The zero padding never reaches the output: padded lanes
//! accumulate `a·0` into columns that are simply not copied out.

use crate::simd::{self, SimdLevel};
use crate::tensor::record_matmul;
use crate::Tensor;

/// Panel width of the packed layout (AVX2 register width in f32 lanes).
pub const NR: usize = 8;

/// One row of a panel: [`NR`] lanes, aligned to their own 32-byte size.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct PanelRow([f32; NR]);

const _: () = assert!(std::mem::size_of::<PanelRow>() == NR * std::mem::size_of::<f32>());

/// A `k×m` right operand re-laid-out into column panels of [`NR`].
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    k: usize,
    m: usize,
    /// Whether the panels hold the transpose of the row-major source they
    /// are packed from ([`PackedMatrix::pack_transposed`]).
    transposed: bool,
    /// `ceil(m/NR)` panels, each `k` rows of `NR` values.
    panels: Vec<PanelRow>,
}

impl PackedMatrix {
    /// Packs a row-major `k×m` buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != k * m`.
    pub fn pack(data: &[f32], k: usize, m: usize) -> Self {
        Self::packed(data, k, m, false)
    }

    /// Packs the transpose of a row-major `rows×cols` buffer `W`: the
    /// panels of `Wᵀ` (`k = cols`, `m = rows`), read straight from `W`'s
    /// rows. `dz @ Wᵀ` on them is what `dz.matmul_transposed_b(W)` runs.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn pack_transposed(data: &[f32], rows: usize, cols: usize) -> Self {
        Self::packed(data, cols, rows, true)
    }

    fn packed(data: &[f32], k: usize, m: usize, transposed: bool) -> Self {
        let panels = Vec::with_capacity(k * m.div_ceil(NR));
        let mut packed = PackedMatrix { k, m, transposed, panels };
        packed.repack(data);
        packed
    }

    /// Packs a new row-major source of the same shape into these panels,
    /// the way they were first packed (as `W` or as `Wᵀ`), in place. A full
    /// panel's rows are built in registers and each written once; only a
    /// partial last panel is zeroed, so its padding lanes hold zeros.
    ///
    /// # Panics
    /// Panics if `data` is not `k·m` long.
    pub fn repack(&mut self, data: &[f32]) {
        let (k, m) = (self.k, self.m);
        assert_eq!(data.len(), k * m, "PackedMatrix::repack: buffer is not {k}x{m}");
        self.panels.clear();
        for j0 in (0..m).step_by(NR) {
            let w = NR.min(m - j0);
            // Column `j0 + q` of `Wᵀ` is row `j0 + q` of `W`.
            let col = |q: usize| &data[(j0 + q) * k..(j0 + q + 1) * k];
            match (self.transposed, w == NR) {
                (true, true) => {
                    let [c0, c1, c2, c3, c4, c5, c6, c7]: [&[f32]; NR] = std::array::from_fn(col);
                    self.panels.extend((0..k).map(|l| {
                        PanelRow([c0[l], c1[l], c2[l], c3[l], c4[l], c5[l], c6[l], c7[l]])
                    }));
                }
                (true, false) => {
                    let start = self.panels.len();
                    self.panels.resize(start + k, PanelRow::default());
                    for q in 0..w {
                        for (row, &v) in self.panels[start..].iter_mut().zip(col(q)) {
                            row.0[q] = v;
                        }
                    }
                }
                (false, true) => {
                    let full = |r: &[f32]| PanelRow(r[j0..j0 + NR].try_into().unwrap());
                    self.panels.extend(data.chunks_exact(m).map(full))
                }
                (false, false) => self.panels.extend(data.chunks_exact(m).map(|r| {
                    let mut row = [0.0; NR];
                    row[..w].copy_from_slice(&r[j0..j0 + w]);
                    PanelRow(row)
                })),
            }
        }
    }

    /// A new packing of `data` in this matrix's shape and layout, for a
    /// write that must leave these panels as they are.
    pub fn repacked(&self, data: &[f32]) -> Self {
        Self::packed(data, self.k, self.m, self.transposed)
    }

    /// Packs a tensor (rows = `k`, cols = `m`).
    pub fn from_tensor(t: &Tensor) -> Self {
        Self::pack(t.as_slice(), t.rows(), t.cols())
    }

    /// Shared dimension (`k`, the operand's row count).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Output dimension (`m`, the operand's column count).
    pub fn cols(&self) -> usize {
        self.m
    }

    /// The panel buffer as `ceil(m/NR)·k·NR` values, 32-byte aligned.
    pub(crate) fn panels(&self) -> &[f32] {
        let len = self.panels.len() * NR;
        // SAFETY: `PanelRow` is `repr(C)` over `[f32; NR]` with no padding
        // (its size is asserted above), so the rows are `len` contiguous,
        // initialised f32s, borrowed for the lifetime of `&self`.
        unsafe { std::slice::from_raw_parts(self.panels.as_ptr().cast::<f32>(), len) }
    }

    /// `a @ self` at the process-wide SIMD level, counted in the
    /// `tensor.matmul.*` kernel metrics like [`Tensor::matmul`].
    pub fn matmul(&self, a: &Tensor) -> Tensor {
        let start = valuenet_obs::enabled().then(valuenet_obs::now_ns);
        let out = self.matmul_at(simd::level(), a);
        if let Some(s) = start {
            record_matmul(a.rows(), self.k, self.m, s);
        }
        out
    }

    /// `a @ self` at an explicit SIMD level, uncounted: the one product
    /// kernel. Bit-identical to [`Tensor::matmul_naive`] at every level.
    pub fn matmul_at(&self, lvl: SimdLevel, a: &Tensor) -> Tensor {
        assert_eq!(
            a.cols(),
            self.k,
            "PackedMatrix::matmul: {}x{} @ {}x{}",
            a.rows(),
            a.cols(),
            self.k,
            self.m
        );
        let (n, k, m) = (a.rows(), self.k, self.m);
        let mut data = crate::pool::take(n * m);
        data.resize(n * m, 0.0);
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_enabled(lvl) {
            // SAFETY: `avx2_enabled` checked that the host supports AVX2.
            unsafe { x86::matmul_f32_avx2(a.as_slice(), self.panels(), n, k, m, &mut data) };
            return Tensor::from_vec(n, m, data);
        }
        let _ = lvl;
        let (pc, panels) = (m.div_ceil(NR), self.panels());
        for i in 0..n {
            let ar = a.row(i);
            let out_row = &mut data[i * m..(i + 1) * m];
            for p in 0..pc {
                let j0 = p * NR;
                let w = NR.min(m - j0);
                let acc = panel_dot(ar, &panels[p * k * NR..(p + 1) * k * NR]);
                out_row[j0..j0 + w].copy_from_slice(&acc[..w]);
            }
        }
        Tensor::from_vec(n, m, data)
    }
}

/// Bitwise: two packings are equal when they have the same shape and
/// layout and every panel value has the same bits.
impl PartialEq for PackedMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.k, self.m, self.transposed) == (other.k, other.m, other.transposed)
            && self.panels().iter().zip(other.panels()).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One `1×k @ k×NR` panel product: `acc[j] = Σ_l a[l] · panel[l][j]`, strict
/// ascending fold from +0.0, one mul + one add per step. The panel is read
/// as `k` rows of exactly `NR` lanes, so the fold over a row has a length
/// the compiler can see and vectorizes.
fn panel_dot(a: &[f32], panel: &[f32]) -> [f32; NR] {
    let (rows, _) = panel.as_chunks::<NR>();
    let mut acc = [0.0f32; NR];
    for (&av, row) in a.iter().zip(rows) {
        for (acc_j, &w) in acc.iter_mut().zip(row) {
            *acc_j += av * w;
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::NR;
    use core::arch::x86_64::*;

    /// `out = a @ W` for an `n×k` activation `a` and the panel buffer of a
    /// `k×m` [`super::PackedMatrix`], as register tiles whose shape depends
    /// on the rows left (see the module docs).
    ///
    /// # Panics
    /// Panics unless `a.len() == n·k`, `panels.len() == ceil(m/NR)·k·NR`
    /// and `out.len() == n·m` (checked by each tile).
    #[target_feature(enable = "avx2")]
    pub fn matmul_f32_avx2(
        a: &[f32],
        panels: &[f32],
        n: usize,
        k: usize,
        m: usize,
        out: &mut [f32],
    ) {
        assert!(
            a.len() == n * k && out.len() == n * m,
            "matmul_f32_avx2: buffers do not match {n}x{k} @ {k}x{m}"
        );
        let mut i = 0;
        while i < n {
            let rows = (n - i).min(4);
            match rows {
                1 => row_block::<1, 8>(a, panels, k, m, i, out),
                2 => row_block::<2, 4>(a, panels, k, m, i, out),
                3 => row_block::<3, 2>(a, panels, k, m, i, out),
                _ => row_block::<4, 2>(a, panels, k, m, i, out),
            }
            i += rows;
        }
    }

    /// Rows `i0..i0+R` against every panel: full `R × P` tiles, then the
    /// leftover panels (fewer than `P`) as `R × 4`, `R × 2` and `R × 1`
    /// tiles.
    #[target_feature(enable = "avx2")]
    fn row_block<const R: usize, const P: usize>(
        a: &[f32],
        panels: &[f32],
        k: usize,
        m: usize,
        i0: usize,
        out: &mut [f32],
    ) {
        let pc = m.div_ceil(NR);
        let mut p = 0;
        while p + P <= pc {
            tile::<R, P>(a, panels, k, m, i0, p, out);
            p += P;
        }
        if P > 4 && pc - p >= 4 {
            tile::<R, 4>(a, panels, k, m, i0, p, out);
            p += 4;
        }
        if P > 2 && pc - p >= 2 {
            tile::<R, 2>(a, panels, k, m, i0, p, out);
            p += 2;
        }
        if pc - p == 1 {
            tile::<R, 1>(a, panels, k, m, i0, p, out);
            p += 1;
        }
        debug_assert_eq!(p, pc);
    }

    /// One `R × P` register tile: rows `i0..i0+R` of the `·×k` activation
    /// `a` against panels `p0..p0+P` of the `k×m` panel buffer,
    /// `acc[r][q] = acc[r][q] + broadcast(a[i0+r][l]) · panel_row(p0+q, l)`
    /// for ascending `l` from `+0.0`, separate multiply and add, then the
    /// live columns stored into the `·×m` output.
    ///
    /// # Panics
    /// Panics unless rows `i0..i0+R` lie inside `a` and `out`, the panel
    /// buffer is `ceil(m/NR)·k·NR` long and `p0 + P <= ceil(m/NR)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tile<const R: usize, const P: usize>(
        a: &[f32],
        panels: &[f32],
        k: usize,
        m: usize,
        i0: usize,
        p0: usize,
        out: &mut [f32],
    ) {
        let pc = m.div_ceil(NR);
        assert!(
            (i0 + R) * k <= a.len() && (i0 + R) * m <= out.len(),
            "tile rows out of bounds"
        );
        assert!(panels.len() == pc * k * NR && p0 + P <= pc, "tile panels out of bounds");
        // SAFETY: by the assertions above, rows `i0..i0+R` lie inside `a`
        // and `out`, and panels `p0..p0+P` inside the panel buffer, each
        // of which has a live column (`j0 = (p0+q)·NR < m`). So every `ap`
        // read (`r·k + l < R·k`), every `wp` load
        // (`q·k·NR + l·NR + NR ≤ P·k·NR`) and every store (`width ≤ m - j0`
        // columns of row `i0 + r`) stays in bounds. Loads and stores are
        // unaligned (`loadu`/`storeu`).
        unsafe {
            let ap = a.as_ptr().add(i0 * k);
            let wp = panels.as_ptr().add(p0 * k * NR);
            let mut acc = [[_mm256_setzero_ps(); P]; R];
            for l in 0..k {
                let mut w = [_mm256_setzero_ps(); P];
                for (q, wq) in w.iter_mut().enumerate() {
                    *wq = _mm256_loadu_ps(wp.add(q * k * NR + l * NR));
                }
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(r * k + l));
                    for (acc_rq, &wq) in acc_r.iter_mut().zip(&w) {
                        *acc_rq = _mm256_add_ps(*acc_rq, _mm256_mul_ps(av, wq));
                    }
                }
            }
            let dst = out.as_mut_ptr().add(i0 * m);
            for (r, acc_r) in acc.iter().enumerate() {
                for (q, &acc_rq) in acc_r.iter().enumerate() {
                    let j0 = (p0 + q) * NR;
                    let width = NR.min(m - j0);
                    if width == NR {
                        _mm256_storeu_ps(dst.add(r * m + j0), acc_rq);
                    } else {
                        let mut lanes = [0.0f32; NR];
                        _mm256_storeu_ps(lanes.as_mut_ptr(), acc_rq);
                        core::ptr::copy_nonoverlapping(lanes.as_ptr(), dst.add(r * m + j0), width);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::detected_level;

    fn pseudo_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| l <= detected_level())
            .collect()
    }

    #[test]
    fn panel_buffer_is_32_byte_aligned_and_row_major_in_each_panel() {
        for &(k, m) in &[(1, 1), (3, 5), (7, 8), (13, 17), (112, 46)] {
            let w = pseudo_tensor(k, m, 5 + k as u64);
            let packed = PackedMatrix::from_tensor(&w);
            let panels = packed.panels();
            assert_eq!(panels.as_ptr() as usize % 32, 0, "{k}x{m}");
            assert_eq!(panels.len(), m.div_ceil(NR) * k * NR);
            for l in 0..k {
                for j in 0..m.div_ceil(NR) * NR {
                    let got = panels[(j / NR) * k * NR + l * NR + j % NR];
                    let want = if j < m { w.as_slice()[l * m + j] } else { 0.0 };
                    assert_eq!(got.to_bits(), want.to_bits(), "{k}x{m} at ({l}, {j})");
                }
            }
        }
    }

    #[test]
    fn transposed_panels_match_matmul_transposed_b() {
        // `Wᵀ`'s panels, read from `W`'s rows, against the oracle on the
        // materialised transpose, at each level and through
        // `matmul_transposed_b`. Widths 46 and 112 leave a partial last
        // panel; 1..=9 rows reach every tile shape and remainder.
        for &(rows, cols) in &[(1, 1), (46, 13), (112, 46), (17, 112), (64, 64)] {
            let w = pseudo_tensor(rows, cols, 41 + rows as u64);
            let wt = PackedMatrix::pack_transposed(w.as_slice(), rows, cols);
            assert_eq!((wt.rows(), wt.cols()), (cols, rows));
            let bits = |p: &PackedMatrix| -> Vec<u32> { p.panels().iter().map(|v| v.to_bits()).collect() };
            let want = PackedMatrix::from_tensor(&w.transpose());
            assert_eq!(bits(&wt), bits(&want), "{rows}x{cols}: Wᵀ's panels");
            for n in 1..=9 {
                let dz = pseudo_tensor(n, cols, 7 * n as u64);
                let want = dz.matmul_naive(&w.transpose());
                let mut arms: Vec<_> = levels()
                    .into_iter()
                    .map(|lvl| (format!("{lvl:?}"), wt.matmul_at(lvl, &dz)))
                    .collect();
                arms.push(("matmul_transposed_b".into(), dz.matmul_transposed_b(&w)));
                for (arm, got) in arms {
                    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                        let what = format!("{n}x{cols} @ ({rows}x{cols})ᵀ, {arm}");
                        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_matmul_bit_identical_to_the_oracle() {
        for &(n, k, m) in &[(1, 1, 1), (1, 7, 5), (3, 8, 8), (4, 13, 17), (9, 5, 24), (2, 64, 33)]
        {
            let a = pseudo_tensor(n, k, 3 + n as u64);
            let w = pseudo_tensor(k, m, 17 + m as u64);
            let expect = a.matmul_naive(&w);
            let packed = PackedMatrix::from_tensor(&w);
            for lvl in levels() {
                let got = packed.matmul_at(lvl, &a);
                assert_eq!(got.shape(), expect.shape());
                for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{n}x{k}x{m} at {lvl:?}");
                }
            }
        }
    }
}
