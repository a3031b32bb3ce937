//! Named parameter storage shared by all layers.
//!
//! Besides the raw `f32` buffers, the store owns the *inference cache*: each
//! weight matrix can be packed once into the blocked layout of
//! [`PackedMatrix`] so that inference-time matmuls skip both the tape copy
//! that [`ParamStore::var`] makes and the column-gather of the unpacked
//! kernel. The cache is built lazily under a shared reference (so
//! concurrent evaluation threads can fill it) and invalidated whenever the
//! optimiser writes to a parameter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use valuenet_tensor::{
    apply_activation, pool, simd, Activation, Gradients, Graph, PackedMatrix, Tensor, Var,
};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index, used as the autodiff parameter id.
    pub fn index(self) -> usize {
        self.0
    }
}

struct ParamEntry {
    name: String,
    group: usize,
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Source of [`WriteStamp`]s, shared by every store in the process.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Names one state of a store's weights: drawn fresh from a process-wide
/// counter when the store is created and on every write, so no two states
/// of any two stores share a stamp. A tape keys its parameter value leaves
/// by it (see [`Graph::param_view`]).
struct WriteStamp(u64);

impl Default for WriteStamp {
    fn default() -> Self {
        WriteStamp(NEXT_STAMP.fetch_add(1, Ordering::Relaxed))
    }
}

/// Holds every trainable tensor of a model, each tagged with a name and an
/// optimiser *group* (the paper trains encoder / decoder / connection
/// parameters with different learning rates).
#[derive(Default)]
pub struct ParamStore {
    params: Vec<ParamEntry>,
    /// Lazily built packed forms, indexed like `params`.
    packed: RwLock<Vec<Option<Arc<PackedMatrix>>>>,
    /// Renewed by every write, so a tape never reuses a value leaf loaded
    /// before the write or from another store.
    stamp: WriteStamp,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor under `name` in optimiser group `group`.
    pub fn add(&mut self, name: impl Into<String>, group: usize, t: Tensor) -> ParamId {
        let (rows, cols) = t.shape();
        self.params.push(ParamEntry {
            name: name.into(),
            group,
            rows,
            cols,
            data: t.as_slice().to_vec(),
        });
        self.stamp = WriteStamp::default();
        ParamId(self.params.len() - 1)
    }

    /// Registers a parameter from raw parts (checkpoint restore).
    /// `data.len()` must equal `rows * cols`.
    pub(crate) fn add_raw(
        &mut self,
        name: String,
        group: usize,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> ParamId {
        debug_assert_eq!(data.len(), rows * cols, "ParamStore::add_raw: bad shape for {name}");
        self.params.push(ParamEntry { name, group, rows, cols, data });
        self.stamp = WriteStamp::default();
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.data.len()).sum()
    }

    /// The current value of a parameter.
    pub fn get(&self, id: ParamId) -> Tensor {
        let p = &self.params[id.0];
        Tensor::from_vec(p.rows, p.cols, p.data.clone())
    }

    /// The raw weight buffer of a parameter, without copying.
    pub fn data(&self, id: ParamId) -> &[f32] {
        &self.params[id.0].data
    }

    /// The optimiser group of a parameter.
    pub fn group(&self, id: ParamId) -> usize {
        self.params[id.0].group
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Shape of a parameter without copying its data.
    pub fn shape(&self, id: ParamId) -> (usize, usize) {
        let p = &self.params[id.0];
        (p.rows, p.cols)
    }

    /// Overwrites a parameter value (used by the optimiser).
    pub fn set(&mut self, id: ParamId, t: &Tensor) {
        let p = &mut self.params[id.0];
        assert_eq!((p.rows, p.cols), t.shape(), "ParamStore::set: shape mismatch for {}", p.name);
        p.data.copy_from_slice(t.as_slice());
        self.invalidate(id);
    }

    /// Applies `f` to the raw weight buffer of a parameter.
    pub fn update_in_place(&mut self, id: ParamId, f: impl FnOnce(&mut [f32])) {
        f(&mut self.params[id.0].data);
        self.invalidate(id);
    }

    /// Drops the cached packed form and renews the write stamp after a
    /// weight update.
    fn invalidate(&mut self, id: ParamId) {
        self.stamp = WriteStamp::default();
        let cache = self.packed.get_mut().unwrap();
        if let Some(slot) = cache.get_mut(id.0) {
            *slot = None;
        }
    }

    /// The packed form of a parameter, building and caching it on first
    /// use. Callable under a shared reference so concurrent inference
    /// threads share one packing.
    pub fn packed_param(&self, id: ParamId) -> Arc<PackedMatrix> {
        {
            let cache = self.packed.read().unwrap();
            if let Some(Some(p)) = cache.get(id.0) {
                return Arc::clone(p);
            }
        }
        let e = &self.params[id.0];
        let built = Arc::new(PackedMatrix::pack(&e.data, e.rows, e.cols));
        let mut cache = self.packed.write().unwrap();
        if cache.len() < self.params.len() {
            cache.resize(self.params.len(), None);
        }
        match &mut cache[id.0] {
            Some(p) => Arc::clone(p),
            slot @ None => {
                *slot = Some(Arc::clone(&built));
                built
            }
        }
    }

    /// Inference-path dense layer: `act(x W + b)` computed off-tape with the
    /// packed weights. Bit-identical to the fused
    /// [`Graph::matmul_bias_act`] training node.
    pub fn forward_linear(
        &self,
        g: &mut Graph,
        x: Var,
        w: ParamId,
        b: Option<ParamId>,
        act: Activation,
    ) -> Var {
        let out = {
            let xt = g.value(x);
            let mut out = self.packed_param(w).matmul(xt);
            if let Some(b) = b {
                let bias = self.data(b);
                let lvl = simd::level();
                for r in 0..out.rows() {
                    simd::add_assign_at(lvl, out.row_mut(r), bias);
                }
            }
            apply_activation(&mut out, act);
            out
        };
        g.input(out)
    }

    /// Inference-path LSTM pre-activation: `x Wx + h Wh + b` with packed
    /// weights, summed in the same order as the tape path (`(zx + zh) + b`),
    /// so the result is bit-identical.
    pub fn lstm_preact(
        &self,
        g: &Graph,
        x: Var,
        h: Var,
        wx: ParamId,
        wh: ParamId,
        b: ParamId,
    ) -> Tensor {
        let mut z = self.packed_param(wx).matmul(g.value(x));
        let zh = self.packed_param(wh).matmul(g.value(h));
        let lvl = simd::level();
        simd::add_assign_at(lvl, z.as_mut_slice(), zh.as_slice());
        let bias = self.data(b);
        for r in 0..z.rows() {
            simd::add_assign_at(lvl, z.row_mut(r), bias);
        }
        z
    }

    /// Inference-path embedding lookup: copies the requested rows straight
    /// out of the store, skipping the tape's full-table parameter clone.
    pub fn gather_rows(&self, g: &mut Graph, table: ParamId, ids: &[usize]) -> Var {
        let t = {
            let e = &self.params[table.0];
            let mut data = Vec::with_capacity(ids.len() * e.cols);
            for &i in ids {
                data.extend_from_slice(&e.data[i * e.cols..(i + 1) * e.cols]);
            }
            Tensor::from_vec(ids.len(), e.cols, data)
        };
        g.input(t)
    }

    /// Registers one use of the parameter on the autodiff graph so
    /// gradients flow back to it. The value enters the tape once per tape
    /// and store state: the first use copies it, through the buffer pool,
    /// into a value leaf that every later use reads, while each use gets a
    /// gradient node of its own (see [`Graph::param_view`]).
    pub fn var(&self, g: &mut Graph, id: ParamId) -> Var {
        g.param_view(id.0, self.stamp.0, || {
            let p = &self.params[id.0];
            let mut data = pool::take(p.data.len());
            data.extend_from_slice(&p.data);
            Tensor::from_vec(p.rows, p.cols, data)
        })
    }

    /// The gradient of each parameter that received one, in parameter
    /// order. [`Graph::backward`] has already summed each parameter's uses,
    /// so this only hands the sums over under their [`ParamId`]s.
    pub fn collect_grads(&self, grads: &Gradients) -> Vec<(ParamId, Tensor)> {
        grads
            .param_grads()
            .map(|(pid, g)| {
                assert!(pid < self.params.len(), "collect_grads: parameter {pid} is not in this store");
                (ParamId(pid), g.clone())
            })
            .collect()
    }

    /// Iterator over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_set_round_trip() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", 0, Tensor::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(ps.get(id).as_slice(), &[1.0, 2.0]);
        ps.set(id, &Tensor::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(ps.get(id).as_slice(), &[3.0, 4.0]);
        assert_eq!(ps.name(id), "w");
        assert_eq!(ps.group(id), 0);
        assert_eq!(ps.num_weights(), 2);
    }

    #[test]
    fn grads_flow_through_store() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", 0, Tensor::scalar(2.0));
        let mut g = Graph::new();
        let w = ps.var(&mut g, id);
        let y = g.mul(w, w);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let collected = ps.collect_grads(&grads);
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].1.scalar_value(), 4.0); // d(w^2)/dw = 2w
    }

    #[test]
    fn packed_cache_matches_matmul_and_invalidates() {
        let mut ps = ParamStore::new();
        let w = Tensor::from_vec(3, 5, (0..15).map(|i| i as f32 * 0.25 - 1.0).collect());
        let id = ps.add("w", 0, w.clone());
        let x = Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.25, 3.0, -0.75]);
        let want = x.matmul(&w);
        let got = ps.packed_param(id).matmul(&x);
        assert_eq!(want.as_slice(), got.as_slice());
        // Same Arc on the second lookup.
        assert!(Arc::ptr_eq(&ps.packed_param(id), &ps.packed_param(id)));
        // A weight update drops the cached packing.
        let w2 = Tensor::from_vec(3, 5, vec![1.0; 15]);
        ps.set(id, &w2);
        let got2 = ps.packed_param(id).matmul(&x);
        assert_eq!(x.matmul(&w2).as_slice(), got2.as_slice());
    }

    #[test]
    fn forward_linear_matches_tape_path_bitwise() {
        let mut ps = ParamStore::new();
        let wid =
            ps.add("l.w", 0, Tensor::from_vec(4, 3, (0..12).map(|i| (i as f32).sin()).collect()));
        let bid = ps.add("l.b", 0, Tensor::from_vec(1, 3, vec![0.1, -0.2, 0.3]));
        let xs = Tensor::from_vec(2, 4, (0..8).map(|i| (i as f32 * 0.7).cos()).collect());

        let mut g = Graph::new();
        let x = g.input(xs.clone());
        let w = ps.var(&mut g, wid);
        let b = ps.var(&mut g, bid);
        let tape = g.matmul_bias_act(x, w, Some(b), Activation::Relu);
        let want: Vec<u32> = g.value(tape).as_slice().iter().map(|v| v.to_bits()).collect();

        let mut g2 = Graph::new();
        let x2 = g2.input(xs);
        let fast = ps.forward_linear(&mut g2, x2, wid, Some(bid), Activation::Relu);
        let got: Vec<u32> = g2.value(fast).as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got);
    }
}
