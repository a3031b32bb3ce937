//! Named parameter storage shared by all layers.
//!
//! Besides the raw `f32` buffers, the store owns each weight matrix's
//! packed panels ([`PackedMatrix`]), which every tape multiplies by
//! through [`ParamStore::weight`]: `W`'s panels for the forward `x·W`,
//! packed the first time any tape uses the weight, and `Wᵀ`'s for
//! backward's `dz·Wᵀ`, packed the first time a training tape does. No tape
//! copies a weight. Both are built under a shared reference (so concurrent
//! threads can fill them), and a write repacks the ones that exist,
//! copy-on-write: panels a tape still holds are never changed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use valuenet_tensor::{pool, Gradients, Graph, PackedMatrix, Tensor, Var};

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
/// by it (see [`Graph::param_view`] and [`Graph::param_panels`]).
struct WriteStamp(u64);

impl Default for WriteStamp {
    fn default() -> Self {
        WriteStamp(NEXT_STAMP.fetch_add(1, Ordering::Relaxed))
    }
}

/// The packed panels of one weight that some tape has asked for.
#[derive(Default, Clone)]
struct Panels {
    /// `W`'s, for `x·W`.
    w: Option<Arc<PackedMatrix>>,
    /// `Wᵀ`'s, for backward's `dz·Wᵀ`.
    wt: Option<Arc<PackedMatrix>>,
}

/// Holds every trainable tensor of a model, each tagged with a name and an
/// optimiser *group* (the paper trains encoder / decoder / connection
/// parameters with different learning rates).
#[derive(Default)]
pub struct ParamStore {
    params: Vec<ParamEntry>,
    /// Packed panels, indexed like `params`.
    packed: RwLock<Vec<Panels>>,
    /// Renewed by every write, so a tape never reuses a value leaf or
    /// panel leaf loaded before the write or from another store.
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
        self.written(id);
    }

    /// Applies `f` to the raw weight buffer of a parameter.
    pub fn update_in_place(&mut self, id: ParamId, f: impl FnOnce(&mut [f32])) {
        f(&mut self.params[id.0].data);
        self.written(id);
    }

    /// Renews the write stamp after a weight update and repacks the
    /// parameter's panels that exist: in place when no tape holds them,
    /// into new panels otherwise, so a tape keeps the ones it was given.
    fn written(&mut self, id: ParamId) {
        self.stamp = WriteStamp::default();
        let data = &self.params[id.0].data;
        let Some(slot) = self.packed.get_mut().unwrap().get_mut(id.0) else { return };
        for panels in [&mut slot.w, &mut slot.wt].into_iter().flatten() {
            match Arc::get_mut(panels) {
                Some(p) => p.repack(data),
                None => *panels = Arc::new(panels.repacked(data)),
            }
        }
    }

    /// `W`'s packed panels, packed and cached on first use. Callable under
    /// a shared reference so concurrent threads share one packing.
    pub fn packed_param(&self, id: ParamId) -> Arc<PackedMatrix> {
        self.panels(id, false)
    }

    /// `Wᵀ`'s packed panels (see [`PackedMatrix::pack_transposed`]),
    /// packed and cached the first time a training tape uses the weight.
    pub fn packed_transposed(&self, id: ParamId) -> Arc<PackedMatrix> {
        self.panels(id, true)
    }

    fn panels(&self, id: ParamId, transposed: bool) -> Arc<PackedMatrix> {
        let cached = |p: &Panels| if transposed { p.wt.clone() } else { p.w.clone() };
        if let Some(built) = self.packed.read().unwrap().get(id.0).and_then(cached) {
            return built;
        }
        let e = &self.params[id.0];
        let built = Arc::new(if transposed {
            PackedMatrix::pack_transposed(&e.data, e.rows, e.cols)
        } else {
            PackedMatrix::pack(&e.data, e.rows, e.cols)
        });
        let mut cache = self.packed.write().unwrap();
        if cache.len() < self.params.len() {
            cache.resize(self.params.len(), Panels::default());
        }
        let slot = &mut cache[id.0];
        let slot = if transposed { &mut slot.wt } else { &mut slot.w };
        Arc::clone(slot.get_or_insert(built))
    }

    /// One use of the weight matrix `id` as the right operand of
    /// [`Graph::matmul`] or [`Graph::matmul_bias_act`]. Every tape gets a
    /// view of the packed panels ([`Graph::param_panels`]): `W`'s, and
    /// `Wᵀ`'s too unless it is an inference tape. A tape set to dense
    /// weights ([`Graph::set_dense_weights`]) gets a dense view
    /// ([`ParamStore::var`]) instead. Both give bit-identical values and
    /// gradients.
    pub fn weight(&self, g: &mut Graph, id: ParamId) -> Var {
        if g.dense_weights() {
            return self.var(g, id);
        }
        let training = !g.inference_mode();
        g.param_panels(id.0, self.stamp.0, || {
            (self.packed_param(id), training.then(|| self.packed_transposed(id)))
        })
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
    /// gradients flow back to it: how biases, gains and embedding tables
    /// enter a tape (weight matrices go through [`ParamStore::weight`]).
    /// The value enters the tape once per tape and store state: the first
    /// use copies it, through the buffer pool, into a value leaf that every
    /// later use reads, while each use on a training tape gets a gradient
    /// node of its own (see [`Graph::param_view`]).
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
    fn a_write_repacks_the_cached_panels() {
        let mut ps = ParamStore::new();
        let w = Tensor::from_vec(3, 5, (0..15).map(|i| i as f32 * 0.25 - 1.0).collect());
        let id = ps.add("w", 0, w.clone());
        let x = Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.25, 3.0, -0.75]);
        let dz = Tensor::from_vec(2, 5, (0..10).map(|i| (i as f32).sin()).collect());
        assert_eq!(bits(&ps.packed_param(id).matmul(&x)), bits(&x.matmul(&w)));
        assert_eq!(bits(&ps.packed_transposed(id).matmul(&dz)), bits(&dz.matmul_transposed_b(&w)));
        // The same Arc on the second lookup.
        assert!(Arc::ptr_eq(&ps.packed_param(id), &ps.packed_param(id)));
        assert!(Arc::ptr_eq(&ps.packed_transposed(id), &ps.packed_transposed(id)));

        // `set` while a tape holds the panels: the held ones keep the old
        // weights and the cache holds a fresh pack of the new ones.
        let (held, held_t) = (ps.packed_param(id), ps.packed_transposed(id));
        let w2 = Tensor::from_vec(3, 5, (0..15).map(|i| (i as f32 * 0.7).cos()).collect());
        ps.set(id, &w2);
        let fresh = |ps: &ParamStore| {
            let e = ps.get(id);
            (PackedMatrix::from_tensor(&e), PackedMatrix::pack_transposed(e.as_slice(), 3, 5))
        };
        let cached =
            |ps: &ParamStore| ((*ps.packed_param(id)).clone(), (*ps.packed_transposed(id)).clone());
        assert_eq!(cached(&ps), fresh(&ps), "the cache holds a fresh pack of the new weights");
        assert_eq!(bits(&held.matmul(&x)), bits(&x.matmul(&w)), "held W panels keep the old weights");
        assert_eq!(bits(&held_t.matmul(&dz)), bits(&dz.matmul_transposed_b(&w)), "and so do held Wᵀ panels");
        assert!(!Arc::ptr_eq(&held, &ps.packed_param(id)));
        drop((held, held_t));

        // `update_in_place` with no holder repacks the panels in place.
        let before = Arc::as_ptr(&ps.packed_param(id));
        ps.update_in_place(id, |d| d.iter_mut().for_each(|v| *v = -*v * 1.5));
        assert_eq!(cached(&ps), fresh(&ps), "the cache holds a fresh pack of the new weights");
        assert_eq!(Arc::as_ptr(&ps.packed_param(id)), before, "repacked where it was");
        assert_eq!(bits(&ps.packed_param(id).matmul(&x)), bits(&x.matmul(&ps.get(id))));
    }

    #[test]
    fn an_inference_tape_builds_no_transposed_panels() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", 0, Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new();
        g.set_inference(true);
        let x = g.input(Tensor::from_vec(1, 2, vec![0.5, -1.0]));
        let w = ps.weight(&mut g, id);
        g.matmul(x, w);
        ps.set(id, &Tensor::from_vec(2, 2, vec![0.5; 4]));
        let cache = ps.packed.read().unwrap();
        assert!(cache[id.0].w.is_some() && cache[id.0].wt.is_none(), "only W panels, repacked");
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }
}
