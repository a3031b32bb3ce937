//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation of a forward pass as a node. Calling
//! [`Graph::backward`] walks the tape in reverse creation order (which is a
//! valid reverse topological order, because operands must exist before the
//! operation that consumes them), handing each node's gradient to its
//! operands and dropping it once they have their share. It returns
//! [`Gradients`]: one sum per parameter id. A parameter's uses are not
//! built into dense gradients one by one: a matmul weight keeps its
//! upstream rows and a gather table its gathered rows, and after the sweep
//! each parameter's uses are folded into one buffer in tape order,
//! bit-identical to building and adding them. A weight matrix enters the
//! tape as a view of its packed panels ([`Graph::param_panels`]), not as a
//! copy: the forward `x·W` and backward's `dz·Wᵀ` both run on the panels.
//!
//! Every op builds its output in a single pass into a buffer drawn from the
//! thread-local pool ([`crate::pool`]) — nothing clones its input just to
//! overwrite it. The hottest op compositions are recorded as fused
//! single-node ops ([`Graph::matmul_bias_act`], [`Graph::attn_softmax`],
//! [`Graph::log_softmax_nll`], [`Graph::lstm_gates`]); each is bit-identical
//! in values and gradients to the equivalent chain of unfused ops (pinned by
//! proptest in `tests/fused_kernels.rs`, which records those chains by hand).

use crate::{PackedMatrix, Tensor};
use std::sync::Arc;

// Invocation counts for the fused kernels; the FLOP/byte accounting itself
// is inherited from the `tensor.matmul.*` counters because the fused paths
// run the same instrumented matmul kernels internally.
static FUSED_MATMUL_BIAS_ACT: valuenet_obs::Counter =
    valuenet_obs::Counter::new("tensor.fused.matmul_bias_act");
static FUSED_ATTN_SOFTMAX: valuenet_obs::Counter =
    valuenet_obs::Counter::new("tensor.fused.attn_softmax");
static FUSED_LOG_SOFTMAX_NLL: valuenet_obs::Counter =
    valuenet_obs::Counter::new("tensor.fused.log_softmax_nll");
static FUSED_LSTM_GATES: valuenet_obs::Counter =
    valuenet_obs::Counter::new("tensor.fused.lstm_gates");

/// Activation fused into [`Graph::matmul_bias_act`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity — just the (bias-shifted) matmul.
    None,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
}

/// Handle to a node in a [`Graph`].
///
/// A handle names two nodes: the one its gradient flows to and the one
/// that holds its value. They are the same node everywhere except at a
/// parameter view on a training tape ([`Graph::param_view`],
/// [`Graph::param_panels`]), whose value is the parameter's one value
/// leaf or panel leaf on the tape and whose gradient goes to a use node of
/// its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    grad: u32,
    val: u32,
}

/// Marks a parameter with no value leaf on the tape yet.
const NO_LEAF: u32 = u32::MAX;

/// The recorded operation of a node. Operands are stored as [`Var`]s.
enum Op {
    /// Constant input, trainable parameter, or one of a parameter view's
    /// two nodes: the value leaf and a use node (see [`Graph::param_view`]).
    Leaf,
    /// A weight's packed panels, the value side of a weight view (see
    /// [`Graph::param_panels`]): `W`'s for `x @ W` and, on a training
    /// tape, `Wᵀ`'s for backward's `dz @ Wᵀ`. Its node holds no value.
    Panels { w: Arc<PackedMatrix>, wt: Option<Arc<PackedMatrix>> },
    Add(Var, Var),
    /// `[n,d] + [1,d]` — broadcast the single row over all rows.
    AddBroadcastRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `[n,d] * [1,d]` element-wise with row broadcast.
    MulBroadcastRow(Var, Var),
    Scale(Var, f32),
    Matmul(Var, Var),
    MatmulTransposedB(Var, Var),
    Transpose(Var),
    Tanh(Var),
    Sigmoid(Var),
    Relu(Var),
    SoftmaxRows(Var),
    LogSoftmaxRows(Var),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    SliceCols(Var, usize, usize),
    SliceRows(Var, usize, usize),
    SumAll(Var),
    MeanAll(Var),
    /// Select rows of an embedding table; gradient is a scatter-add.
    Gather(Var, Vec<usize>),
    /// Mean negative log likelihood: operand holds per-row log-probabilities,
    /// the vector holds one target class per row.
    NllLoss(Var, Vec<usize>),
    /// Element-wise multiply by a fixed mask (inverted-dropout scaling baked in).
    Dropout(Var, Vec<f32>),
    /// Per-row layer normalisation (no affine; compose gain/bias separately).
    LayerNormRows(Var, f32),
    /// Fused `act(a @ w + bias)` with optional row-broadcast bias.
    MatmulBiasAct(Var, Var, Option<Var>, Activation),
    /// Fused attention weights `softmax_rows(scale·(q @ keysᵀ) + mask)`.
    AttnSoftmax { q: Var, keys: Var, scale: f32, mask: Option<Var> },
    /// Fused `nll_loss(log_softmax_rows(x), targets)`; the per-row
    /// log-sum-exp is cached so backward never materialises the
    /// `rows × classes` log-probability matrix.
    LogSoftmaxNll { x: Var, targets: Vec<usize>, lse: Vec<f32> },
    /// Fused LSTM cell update `c = σ(z_f)·c_prev + σ(z_i)·tanh(z_g)` over
    /// gate pre-activations `z = [i|f|g|o]` of shape `[B, 4h]`. Gate values
    /// are recomputed in backward (deterministic, so bit-identical to the
    /// cached intermediates of the unfused chain).
    LstmCellGate { z: Var, c_prev: Var },
    /// Fused LSTM output gate `h = σ(z_o) · tanh(c)`.
    LstmOutGate { z: Var, c: Var },
}

struct Node {
    value: Tensor,
    op: Op,
    needs_grad: bool,
    param_id: Option<usize>,
}

/// Gradients produced by [`Graph::backward`]: one sum per parameter id
/// that received a gradient, its uses folded in tape order.
pub struct Gradients {
    /// `(param_id, gradient)`, ascending by id.
    params: Vec<(usize, Tensor)>,
}

impl Gradients {
    /// Gradient for the parameter registered under `param_id`: the sum of
    /// every [`Graph::param`] or [`Graph::param_view`] use of that id, in
    /// tape order. `None` when no use reached the loss.
    pub fn for_param(&self, param_id: usize) -> Option<&Tensor> {
        let i = self.params.binary_search_by_key(&param_id, |&(pid, _)| pid).ok()?;
        Some(&self.params[i].1)
    }

    /// Iterates over `(param_id, gradient)` for every parameter that
    /// received a gradient, ascending by id (each id once).
    pub fn param_grads(&self) -> impl Iterator<Item = (usize, &Tensor)> {
        self.params.iter().map(|(pid, g)| (*pid, g))
    }
}

/// A gradient contribution held during the reverse sweep. A node's
/// contribution to an operand is kept in the cheapest form that still
/// gives the operand's exact gradient; a parameter use's is only folded
/// into the parameter's sum after the sweep.
enum Share {
    /// A dense gradient.
    Dense(Tensor),
    /// `value(a)ᵀ · dz`, not yet built: the weight operand of a `Matmul`
    /// or `MatmulBiasAct`, whose left operand `a` stays on the tape.
    Product { a: Var, dz: Tensor },
    /// The upstream rows of the `Gather` node `node`, not yet scattered
    /// into a table.
    Rows { node: usize, rows: Tensor },
}

/// A parameter's running gradient sum while backward folds its uses in
/// tape order.
#[derive(Default)]
struct ParamSum {
    grad: Option<Tensor>,
    /// Set when the first use wrote a dense gradient, which may hold −0.0.
    /// Sums that start from zero never do.
    signed_zeros: bool,
    /// Matmul-weight uses not yet added. Consecutive ones are added
    /// together, in one pass over the sum.
    products: Vec<(Var, Tensor)>,
}

impl ParamSum {
    /// Adds the next use's share.
    fn add(&mut self, g: &Graph, share: Share) {
        match share {
            Share::Product { a, dz } => self.products.push((a, dz)),
            Share::Dense(t) => {
                self.add_products(g);
                match &mut self.grad {
                    Some(sum) => sum.add_assign(&t),
                    None => {
                        self.grad = Some(t);
                        self.signed_zeros = true;
                    }
                }
            }
            Share::Rows { node, rows } => {
                self.add_products(g);
                let (table, indices) = g.gather_operands(node);
                let (r, c) = g.value(table).shape();
                let sum = self.grad.get_or_insert_with(|| Tensor::zeros(r, c));
                if self.signed_zeros {
                    // The rows this use leaves alone would each gain the
                    // +0.0 of a zeroed table, which turns −0.0 into +0.0
                    // and leaves every other value as it is.
                    sum.as_mut_slice().iter_mut().for_each(|x| *x += 0.0);
                    self.signed_zeros = false;
                }
                add_rows(sum, indices, &rows);
            }
        }
    }

    /// Adds the pending matmul-weight uses, in order.
    fn add_products(&mut self, g: &Graph) {
        if self.products.is_empty() {
            return;
        }
        let uses: Vec<(&Tensor, &Tensor)> =
            self.products.iter().map(|(a, dz)| (g.value(*a), dz)).collect();
        let (n, m) = (uses[0].0.cols(), uses[0].1.cols());
        self.grad.get_or_insert_with(|| Tensor::zeros(n, m)).add_matmul_transposed_a(&uses);
        drop(uses);
        self.products.clear();
    }

    /// The parameter's gradient, once every use has been added.
    fn finish(mut self, g: &Graph) -> Tensor {
        self.add_products(g);
        self.grad.expect("a parameter with a use has a gradient")
    }
}

/// Adds a gather's upstream `rows` into `table`, touching only the
/// gathered rows. The rows of an index repeated within `indices` are
/// summed from zero in row order first and then added once, so the result
/// is bit-identical to adding the gather's dense, zero-started scatter
/// (and, into zeros, is that scatter).
fn add_rows(table: &mut Tensor, indices: &[usize], rows: &Tensor) {
    let mut sum = crate::pool::take(table.cols());
    for (r, &idx) in indices.iter().enumerate() {
        if indices[..r].contains(&idx) {
            continue;
        }
        sum.clear();
        sum.resize(table.cols(), 0.0);
        for (r2, &j) in indices.iter().enumerate().skip(r) {
            if j == idx {
                crate::simd::add_assign(&mut sum, rows.row(r2));
            }
        }
        crate::simd::add_assign(table.row_mut(idx), &sum);
    }
    crate::pool::give(sum);
}

/// An autodiff tape. See the crate-level documentation for an example.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    inference: bool,
    dense_weights: bool,
    /// Value leaf of each parameter loaded by [`Graph::param_view`], indexed
    /// by parameter id (`NO_LEAF` when not loaded). Valid for the store
    /// write stamp `leaf_stamp`; [`Graph::reset`] clears it.
    leaves: Vec<u32>,
    /// Panel leaf of each weight loaded by [`Graph::param_panels`], kept
    /// like `leaves`.
    panel_leaves: Vec<u32>,
    leaf_stamp: u64,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks this tape as inference-only: no backward pass will run on it.
    /// Its parameter views then record no use nodes, so nothing on it
    /// needs a gradient, and the store hands it each weight's `W` panels
    /// alone, never the `Wᵀ` panels only backward reads. Layers run the
    /// same ops on it as on a training tape, except that embedding lookups
    /// copy their rows straight from the store.
    pub fn set_inference(&mut self, on: bool) {
        self.inference = on;
    }

    /// True when this tape was marked inference-only.
    pub fn inference_mode(&self) -> bool {
        self.inference
    }

    /// Makes the store hand this tape its weights as dense value leaves
    /// ([`Graph::param_view`]) instead of packed panels. The serving
    /// engine's degraded retry runs on such a tape, and it is the
    /// reference the packed path is tested against.
    pub fn set_dense_weights(&mut self, on: bool) {
        self.dense_weights = on;
    }

    /// True when this tape takes its weights as dense value leaves.
    pub fn dense_weights(&self) -> bool {
        self.dense_weights
    }

    /// Clears the tape for reuse, keeping the node vector's capacity.
    ///
    /// Dropping the recorded nodes files every forward buffer back into the
    /// thread-local pool — this call is the per-sample recycle point for a
    /// long-lived graph (see `trainer.rs`).
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.leaves.clear();
        self.panel_leaves.clear();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.val as usize].value
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool, param_id: Option<usize>) -> Var {
        let i = u32::try_from(self.nodes.len()).expect("Graph: tape exceeds u32::MAX nodes");
        self.nodes.push(Node { value, op, needs_grad, param_id });
        Var { grad: i, val: i }
    }

    fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.grad as usize].needs_grad
    }

    fn any_needs_grad(&self, vars: &[Var]) -> bool {
        vars.iter().any(|v| self.needs_grad(*v))
    }

    /// Registers a constant input (no gradient flows into it).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false, None)
    }

    /// Registers a trainable parameter identified by `param_id`, taking `t`
    /// as this use's own copy of its value. This use's gradient joins the
    /// id's sum in [`Gradients::for_param`]. Training goes through
    /// [`Graph::param_view`], which loads each parameter once per tape;
    /// this copy per use is its reference.
    pub fn param(&mut self, t: Tensor, param_id: usize) -> Var {
        self.push(t, Op::Leaf, true, Some(param_id))
    }

    /// Registers one use of the trainable parameter `param_id`, whose store
    /// is at write stamp `stamp`.
    ///
    /// The parameter's value enters the tape once: the first use since
    /// [`Graph::reset`] (or since the stamp changed) calls `load` and
    /// records the result as a value leaf that needs no gradient and
    /// carries no parameter id. On a training tape every use, that one
    /// included, gets a node of its own that carries `param_id`, holds no
    /// value and receives this use's share of the gradient, which backward
    /// folds into the id's one sum in tape order. The returned handle reads
    /// the leaf and sends its gradient to the use node, so forward values
    /// and the sums of [`Gradients::for_param`] are bit-identical to a
    /// [`Graph::param`] copy per use. On an inference tape the handle is
    /// the leaf alone.
    ///
    /// `stamp` must change whenever the values behind a parameter id may
    /// differ (a weight write, or another store): a tape whose stamp
    /// differs forgets every leaf it holds, so a later use never reads a
    /// stale or foreign value. A use recorded before the change keeps the
    /// leaf it was given.
    pub fn param_view(
        &mut self,
        param_id: usize,
        stamp: u64,
        load: impl FnOnce() -> Tensor,
    ) -> Var {
        let val = self.leaf(param_id, stamp, false, |g| g.push(load(), Op::Leaf, false, None).val);
        self.param_use(param_id, val)
    }

    /// Registers one use of the weight `param_id` as the right operand of
    /// [`Graph::matmul`] or [`Graph::matmul_bias_act`], on its packed
    /// panels instead of a dense value: the forward `x @ W` runs on `W`'s
    /// panels and backward's `dz @ Wᵀ` on `Wᵀ`'s, each bit-identical to the
    /// dense kernel it replaces.
    ///
    /// `load` returns the panels: `W`'s, and `Wᵀ`'s unless this is an
    /// inference tape (backward panics on a use without them). They enter
    /// the tape once per stamp, as a panel leaf that holds the `Arc`s and
    /// no value, and each use gets a use node exactly as in
    /// [`Graph::param_view`], with the same stamp rule: a use recorded
    /// before a write keeps the panels it was given. The handle is an
    /// operand of those two ops only; [`Graph::value`] of it is empty.
    pub fn param_panels(
        &mut self,
        param_id: usize,
        stamp: u64,
        load: impl FnOnce() -> (Arc<PackedMatrix>, Option<Arc<PackedMatrix>>),
    ) -> Var {
        let val = self.leaf(param_id, stamp, true, |g| {
            let (w, wt) = load();
            let no_value = Tensor::from_vec(0, 0, Vec::new());
            g.push(no_value, Op::Panels { w, wt }, false, None).val
        });
        self.param_use(param_id, val)
    }

    /// The value leaf (or, with `panels`, the panel leaf) of `param_id` at
    /// `stamp`, recorded by `load` on first use.
    fn leaf(
        &mut self,
        param_id: usize,
        stamp: u64,
        panels: bool,
        load: impl FnOnce(&mut Self) -> u32,
    ) -> u32 {
        if self.leaf_stamp != stamp {
            self.leaves.clear();
            self.panel_leaves.clear();
            self.leaf_stamp = stamp;
        }
        let slots = if panels { &mut self.panel_leaves } else { &mut self.leaves };
        if param_id >= slots.len() {
            slots.resize(param_id + 1, NO_LEAF);
        }
        if slots[param_id] != NO_LEAF {
            return slots[param_id];
        }
        let val = load(self);
        let slots = if panels { &mut self.panel_leaves } else { &mut self.leaves };
        slots[param_id] = val;
        val
    }

    /// A use of the parameter leaf `val`: a use node of its own on a
    /// training tape, the leaf itself on an inference tape.
    fn param_use(&mut self, param_id: usize, val: u32) -> Var {
        if self.inference {
            return Var { grad: val, val };
        }
        let no_value = Tensor::from_vec(0, 0, Vec::new());
        let grad = self.push(no_value, Op::Leaf, true, Some(param_id)).grad;
        Var { grad, val }
    }

    /// `value(a) @ w`, on `w`'s panels when it is a weight view.
    fn weight_product(&self, a: Var, w: Var) -> Tensor {
        match &self.nodes[w.val as usize].op {
            Op::Panels { w: panels, .. } => panels.matmul(self.value(a)),
            _ => self.value(a).matmul(self.value(w)),
        }
    }

    /// `dz @ value(w)ᵀ`, the input gradient of a product by `w`, on `w`'s
    /// `Wᵀ` panels when it is a weight view.
    fn input_grad(&self, dz: &Tensor, w: Var) -> Tensor {
        match &self.nodes[w.val as usize].op {
            Op::Panels { wt: Some(wt), .. } => wt.matmul(dz),
            Op::Panels { wt: None, .. } => {
                panic!("backward through a weight view that has no Wᵀ panels (an inference tape's)")
            }
            _ => dz.matmul_transposed_b(self.value(w)),
        }
    }

    /// Element-wise sum of two same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, Op::Add(a, b), ng, None)
    }

    /// `[n,d] + [1,d]`: adds row-vector `b` to every row of `a`.
    pub fn add_broadcast_row(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(tb.rows(), 1, "add_broadcast_row: rhs must be a row vector");
        assert_eq!(ta.cols(), tb.cols(), "add_broadcast_row: column mismatch");
        let mut data = crate::pool::take(ta.len());
        for r in 0..ta.rows() {
            data.extend(ta.row(r).iter().zip(tb.row(0)).map(|(&x, &y)| x + y));
        }
        let out = Tensor::from_vec(ta.rows(), ta.cols(), data);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(out, Op::AddBroadcastRow(a, b), ng, None)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, Op::Sub(a, b), ng, None)
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, Op::Mul(a, b), ng, None)
    }

    /// `[n,d] * [1,d]` element-wise with row broadcast (e.g. layer-norm gain).
    pub fn mul_broadcast_row(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(tb.rows(), 1, "mul_broadcast_row: rhs must be a row vector");
        assert_eq!(ta.cols(), tb.cols(), "mul_broadcast_row: column mismatch");
        let mut data = crate::pool::take(ta.len());
        for r in 0..ta.rows() {
            data.extend(ta.row(r).iter().zip(tb.row(0)).map(|(&x, &y)| x * y));
        }
        let out = Tensor::from_vec(ta.rows(), ta.cols(), data);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(out, Op::MulBroadcastRow(a, b), ng, None)
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let v = self.value(a).map(|x| x * k);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, Op::Scale(a, k), ng, None)
    }

    /// Matrix product. `b` may be a weight view on packed panels
    /// ([`Graph::param_panels`]).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.weight_product(a, b);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, Op::Matmul(a, b), ng, None)
    }

    /// `A·Bᵀ` without materialising a transpose node. Bit-identical to
    /// `transpose` followed by `matmul` (every kernel involved folds each
    /// output element over the shared dimension in the same ascending
    /// order), but the tape holds one node instead of two, and for narrow
    /// left operands the kernel reads `B`'s rows directly instead of
    /// packing a transposed copy — the pattern of per-step pointer scores
    /// against a fixed item matrix.
    pub fn matmul_transposed_b(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul_transposed_b(self.value(b));
        let ng = self.any_needs_grad(&[a, b]);
        self.push(v, Op::MatmulTransposedB(a, b), ng, None)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        let ng = self.any_needs_grad(&[a]);
        self.push(v, Op::Transpose(a), ng, None)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, Op::Tanh(a), ng, None)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.any_needs_grad(&[a]);
        self.push(v, Op::Sigmoid(a), ng, None)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(crate::simd::relu_scalar);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, Op::Relu(a), ng, None)
    }

    /// Numerically stable softmax applied independently to each row.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let mut data = crate::pool::take(t.len());
        for r in 0..t.rows() {
            let src = t.row(r);
            let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let start = data.len();
            let mut sum = 0.0;
            for &x in src {
                let e = (x - max).exp();
                sum += e;
                data.push(e);
            }
            for x in &mut data[start..] {
                *x /= sum;
            }
        }
        let out = Tensor::from_vec(t.rows(), t.cols(), data);
        let ng = self.any_needs_grad(&[a]);
        self.push(out, Op::SoftmaxRows(a), ng, None)
    }

    /// Numerically stable log-softmax applied independently to each row.
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let mut data = crate::pool::take(t.len());
        for r in 0..t.rows() {
            let src = t.row(r);
            let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + src.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
            data.extend(src.iter().map(|&x| x - lse));
        }
        let out = Tensor::from_vec(t.rows(), t.cols(), data);
        let ng = self.any_needs_grad(&[a]);
        self.push(out, Op::LogSoftmaxRows(a), ng, None)
    }

    /// Horizontal concatenation: all operands share the row count.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no operands");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        for &p in parts {
            assert_eq!(self.value(p).rows(), rows, "concat_cols: row mismatch");
        }
        let mut data = crate::pool::take(rows * total);
        for r in 0..rows {
            for &p in parts {
                data.extend_from_slice(self.value(p).row(r));
            }
        }
        let out = Tensor::from_vec(rows, total, data);
        let ng = self.any_needs_grad(parts);
        self.push(out, Op::ConcatCols(parts.to_vec()), ng, None)
    }

    /// Vertical concatenation: all operands share the column count.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows: no operands");
        let cols = self.value(parts[0]).cols();
        let total: usize = parts.iter().map(|&p| self.value(p).rows()).sum();
        let mut data = crate::pool::take(total * cols);
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.cols(), cols, "concat_rows: column mismatch");
            data.extend_from_slice(t.as_slice());
        }
        let out = Tensor::from_vec(total, cols, data);
        let ng = self.any_needs_grad(parts);
        self.push(out, Op::ConcatRows(parts.to_vec()), ng, None)
    }

    /// Columns `c0..c1` of `a`.
    pub fn slice_cols(&mut self, a: Var, c0: usize, c1: usize) -> Var {
        let t = self.value(a);
        assert!(c0 < c1 && c1 <= t.cols(), "slice_cols: bad range {c0}..{c1}");
        let mut data = crate::pool::take(t.rows() * (c1 - c0));
        for r in 0..t.rows() {
            data.extend_from_slice(&t.row(r)[c0..c1]);
        }
        let out = Tensor::from_vec(t.rows(), c1 - c0, data);
        let ng = self.any_needs_grad(&[a]);
        self.push(out, Op::SliceCols(a, c0, c1), ng, None)
    }

    /// Rows `r0..r1` of `a`.
    pub fn slice_rows(&mut self, a: Var, r0: usize, r1: usize) -> Var {
        let t = self.value(a);
        assert!(r0 < r1 && r1 <= t.rows(), "slice_rows: bad range {r0}..{r1}");
        let mut data = crate::pool::take((r1 - r0) * t.cols());
        data.extend_from_slice(&t.as_slice()[r0 * t.cols()..r1 * t.cols()]);
        let out = Tensor::from_vec(r1 - r0, t.cols(), data);
        let ng = self.any_needs_grad(&[a]);
        self.push(out, Op::SliceRows(a, r0, r1), ng, None)
    }

    /// Sum of all elements, as a `1 × 1` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        let ng = self.any_needs_grad(&[a]);
        self.push(v, Op::SumAll(a), ng, None)
    }

    /// Mean of all elements, as a `1 × 1` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let v = Tensor::scalar(t.sum() / t.len() as f32);
        let ng = self.any_needs_grad(&[a]);
        self.push(v, Op::MeanAll(a), ng, None)
    }

    /// Gathers rows `indices` from `table` (embedding lookup).
    pub fn gather_rows(&mut self, table: Var, indices: &[usize]) -> Var {
        let t = self.value(table);
        let mut data = crate::pool::take(indices.len() * t.cols());
        for &idx in indices {
            assert!(idx < t.rows(), "gather_rows: index {idx} out of {} rows", t.rows());
            data.extend_from_slice(t.row(idx));
        }
        let out = Tensor::from_vec(indices.len(), t.cols(), data);
        let ng = self.any_needs_grad(&[table]);
        self.push(out, Op::Gather(table, indices.to_vec()), ng, None)
    }

    /// Mean negative log-likelihood over rows of `log_probs` with one target
    /// class per row. Returns a `1 × 1` loss tensor.
    pub fn nll_loss(&mut self, log_probs: Var, targets: &[usize]) -> Var {
        let t = self.value(log_probs);
        assert_eq!(t.rows(), targets.len(), "nll_loss: {} rows vs {} targets", t.rows(), targets.len());
        let mut loss = 0.0;
        for (r, &c) in targets.iter().enumerate() {
            assert!(c < t.cols(), "nll_loss: target {c} out of {} classes", t.cols());
            loss -= t.get(r, c);
        }
        let v = Tensor::scalar(loss / targets.len() as f32);
        let ng = self.any_needs_grad(&[log_probs]);
        self.push(v, Op::NllLoss(log_probs, targets.to_vec()), ng, None)
    }

    /// Inverted dropout with keep probability `1 - p`. The mask is sampled by
    /// the caller so the graph stays deterministic; entries must be either
    /// `0.0` or `1 / (1 - p)`.
    pub fn dropout(&mut self, a: Var, mask: Vec<f32>) -> Var {
        let t = self.value(a);
        assert_eq!(mask.len(), t.len(), "dropout: mask length mismatch");
        let mut data = crate::pool::take(t.len());
        data.extend(t.as_slice().iter().zip(&mask).map(|(&x, &m)| x * m));
        let out = Tensor::from_vec(t.rows(), t.cols(), data);
        let ng = self.any_needs_grad(&[a]);
        self.push(out, Op::Dropout(a, mask), ng, None)
    }

    /// Per-row layer normalisation (zero mean, unit variance, no affine).
    pub fn layer_norm_rows(&mut self, a: Var, eps: f32) -> Var {
        let t = self.value(a);
        let mut data = crate::pool::take(t.len());
        for r in 0..t.rows() {
            let src = t.row(r);
            let n = src.len() as f32;
            let mean = src.iter().sum::<f32>() / n;
            let var = src.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
            let inv = 1.0 / (var + eps).sqrt();
            data.extend(src.iter().map(|&x| (x - mean) * inv));
        }
        let out = Tensor::from_vec(t.rows(), t.cols(), data);
        let ng = self.any_needs_grad(&[a]);
        self.push(out, Op::LayerNormRows(a, eps), ng, None)
    }

    /// Fused `act(a @ w + bias)` — one node instead of the three-node
    /// matmul / add_broadcast_row / activation chain, so the bias-shifted
    /// pre-activation never materialises. Bit-identical in values and
    /// gradients to the unfused composition. `w` may be a weight view on
    /// packed panels ([`Graph::param_panels`]).
    pub fn matmul_bias_act(&mut self, a: Var, w: Var, bias: Option<Var>, act: Activation) -> Var {
        FUSED_MATMUL_BIAS_ACT.add(1);
        let mut out = self.weight_product(a, w);
        if let Some(b) = bias {
            let tb = self.value(b);
            assert_eq!(tb.rows(), 1, "matmul_bias_act: bias must be a row vector");
            assert_eq!(out.cols(), tb.cols(), "matmul_bias_act: bias column mismatch");
            let bias_row = tb.row(0);
            let lvl = crate::simd::level();
            for r in 0..out.rows() {
                crate::simd::add_assign_at(lvl, out.row_mut(r), bias_row);
            }
        }
        apply_activation(&mut out, act);
        let ng = match bias {
            Some(b) => self.any_needs_grad(&[a, w, b]),
            None => self.any_needs_grad(&[a, w]),
        };
        self.push(out, Op::MatmulBiasAct(a, w, bias, act), ng, None)
    }

    /// Fused scaled dot-product attention weights:
    /// `softmax_rows(scale · (q @ keysᵀ) + mask)` as one node. The transpose
    /// is never a tape node (the kernel packs `keysᵀ` internally) and the
    /// raw/scaled score matrices never materialise. `mask`, when present,
    /// must match the score shape (`q.rows × keys.rows`; 0 / −1e9 entries).
    /// The context vector is a separate [`Graph::matmul`] with the value
    /// rows, so callers whose keys differ from their values fuse equally.
    pub fn attn_softmax(&mut self, q: Var, keys: Var, scale: f32, mask: Option<Var>) -> Var {
        FUSED_ATTN_SOFTMAX.add(1);
        let mut out = self.value(q).matmul_transposed_b(self.value(keys));
        crate::simd::scale(out.as_mut_slice(), scale);
        if let Some(m) = mask {
            let tm = self.value(m);
            assert_eq!(out.shape(), tm.shape(), "attn_softmax: mask shape mismatch");
            crate::simd::add_assign(out.as_mut_slice(), tm.as_slice());
        }
        for r in 0..out.rows() {
            softmax_row(out.row_mut(r));
        }
        let ng = match mask {
            Some(m) => self.any_needs_grad(&[q, keys, m]),
            None => self.any_needs_grad(&[q, keys]),
        };
        self.push(out, Op::AttnSoftmax { q, keys, scale, mask }, ng, None)
    }

    /// Fused `nll_loss(log_softmax_rows(x), targets)` as a single scalar
    /// node. Only the per-row log-sum-exp is kept for backward — the
    /// `rows × classes` log-probability matrix of the unfused pair is never
    /// allocated.
    pub fn log_softmax_nll(&mut self, x: Var, targets: &[usize]) -> Var {
        FUSED_LOG_SOFTMAX_NLL.add(1);
        let t = self.value(x);
        assert_eq!(
            t.rows(),
            targets.len(),
            "log_softmax_nll: {} rows vs {} targets",
            t.rows(),
            targets.len()
        );
        let mut lse = Vec::with_capacity(t.rows());
        let mut loss = 0.0f32;
        for (r, &c) in targets.iter().enumerate() {
            assert!(c < t.cols(), "log_softmax_nll: target {c} out of {} classes", t.cols());
            let row = t.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let l = max + row.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
            loss -= row[c] - l;
            lse.push(l);
        }
        let v = Tensor::scalar(loss / targets.len() as f32);
        let ng = self.any_needs_grad(&[x]);
        self.push(v, Op::LogSoftmaxNll { x, targets: targets.to_vec(), lse }, ng, None)
    }

    /// Fused LSTM gate math: consumes the gate pre-activations
    /// `z = [i|f|g|o]` (`[B, 4h]`) and the previous cell state (`[B, h]`),
    /// returns `(h, c)` — two nodes instead of the thirteen-node
    /// slice/activate/multiply/add chain, with no intermediate gate tensors
    /// on the tape. Values and gradients are bit-identical to the unfused
    /// chain (gates are recomputed in backward with the same scalar
    /// expressions the unfused ops use; pinned by proptest in
    /// `tests/fused_kernels.rs`).
    pub fn lstm_gates(&mut self, z: Var, c_prev: Var) -> (Var, Var) {
        let h = self.value(c_prev).cols();
        let rows = self.value(c_prev).rows();
        assert_eq!(self.value(z).cols(), 4 * h, "lstm_gates: z must be [B, 4h]");
        assert_eq!(self.value(z).rows(), rows, "lstm_gates: batch mismatch");
        FUSED_LSTM_GATES.add(1);
        let ng = self.any_needs_grad(&[z, c_prev]);
        let (h_t, c_t) = lstm_gates_eval(self.value(z), self.value(c_prev));
        let c = self.push(c_t, Op::LstmCellGate { z, c_prev }, ng, None);
        let h_out = self.push(h_t, Op::LstmOutGate { z, c }, ng, None);
        (h_out, c)
    }

    /// Runs the backward pass from `loss` (which must be `1 × 1`) and returns
    /// each parameter's gradient. The tape is left intact, so values remain
    /// readable.
    ///
    /// The reverse sweep drops each node's gradient once its operands have
    /// received their share. A parameter use keeps its share unbuilt where
    /// it can (a matmul weight keeps its upstream rows, a gather table the
    /// gathered rows), and after the sweep each parameter's uses are folded
    /// in tape order into one sum: the first use writes it, later uses add.
    /// Every sum is bit-identical to building each use's dense gradient
    /// and adding them in tape order, the first one cloned.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be scalar, got {:?}",
            self.value(loss).shape()
        );
        let last = loss.grad as usize;
        let mut grads: Vec<Option<Share>> = Vec::with_capacity(last + 1);
        grads.resize_with(last + 1, || None);
        grads[last] = Some(Share::Dense(Tensor::scalar(1.0)));

        for i in (0..=last).rev() {
            let node = &self.nodes[i];
            // A leaf has no operands; a parameter use's leaf keeps its
            // share for the fold below.
            if !node.needs_grad || matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(share) = grads[i].take() else { continue };
            let g = self.dense(share);
            self.accumulate_parents(i, g, &mut grads);
        }

        // Each parameter's uses in tape order (the sort is stable).
        let mut uses: Vec<(usize, Share)> = grads
            .into_iter()
            .enumerate()
            .filter_map(|(i, share)| Some((self.nodes[i].param_id?, share?)))
            .collect();
        uses.sort_by_key(|&(pid, _)| pid);
        let mut params = Vec::new();
        let mut sum = ParamSum::default();
        let mut uses = uses.into_iter().peekable();
        while let Some((pid, share)) = uses.next() {
            sum.add(self, share);
            if uses.peek().is_none_or(|&(next, _)| next != pid) {
                params.push((pid, std::mem::take(&mut sum).finish(self)));
            }
        }
        Gradients { params }
    }

    /// Builds a share's dense gradient.
    fn dense(&self, share: Share) -> Tensor {
        match share {
            Share::Dense(t) => t,
            Share::Product { a, dz } => self.value(a).matmul_transposed_a(&dz),
            Share::Rows { node, rows } => {
                let (table, indices) = self.gather_operands(node);
                let (r, c) = self.value(table).shape();
                let mut gt = Tensor::zeros(r, c);
                add_rows(&mut gt, indices, &rows);
                gt
            }
        }
    }

    /// The table and indices of the `Gather` node `node`.
    fn gather_operands(&self, node: usize) -> (Var, &[usize]) {
        match &self.nodes[node].op {
            Op::Gather(table, indices) => (*table, indices),
            _ => unreachable!("rows share of node {node}, which is not a gather"),
        }
    }

    /// Hands `share` to operand `v`. A second share for the same operand
    /// turns both dense and adds them, in arrival order.
    fn add_share(&self, grads: &mut [Option<Share>], v: Var, share: Share) {
        let slot = &mut grads[v.grad as usize];
        *slot = Some(match slot.take() {
            None => share,
            Some(prev) => {
                let mut acc = self.dense(prev);
                acc.add_assign(&self.dense(share));
                Share::Dense(acc)
            }
        });
    }

    /// Adds the contribution of node `i` (with output gradient `g`) to the
    /// gradients of its operands.
    fn accumulate_parents(&self, i: usize, g: Tensor, grads: &mut [Option<Share>]) {
        let add_to = |grads: &mut [Option<Share>], v: Var, delta: Tensor| {
            self.add_share(grads, v, Share::Dense(delta))
        };
        match &self.nodes[i].op {
            Op::Leaf | Op::Panels { .. } => {}
            Op::Add(a, b) => {
                if self.needs_grad(*a) {
                    add_to(grads, *a, g.clone());
                }
                if self.needs_grad(*b) {
                    add_to(grads, *b, g.clone());
                }
            }
            Op::AddBroadcastRow(a, b) => {
                if self.needs_grad(*a) {
                    add_to(grads, *a, g.clone());
                }
                if self.needs_grad(*b) {
                    let mut gb = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            gb.set(0, c, gb.get(0, c) + g.get(r, c));
                        }
                    }
                    add_to(grads, *b, gb);
                }
            }
            Op::Sub(a, b) => {
                if self.needs_grad(*a) {
                    add_to(grads, *a, g.clone());
                }
                if self.needs_grad(*b) {
                    add_to(grads, *b, g.map(|x| -x));
                }
            }
            Op::Mul(a, b) => {
                if self.needs_grad(*a) {
                    add_to(grads, *a, g.zip(self.value(*b), |gv, bv| gv * bv));
                }
                if self.needs_grad(*b) {
                    add_to(grads, *b, g.zip(self.value(*a), |gv, av| gv * av));
                }
            }
            Op::MulBroadcastRow(a, b) => {
                let tb = self.value(*b);
                let ta = self.value(*a);
                if self.needs_grad(*a) {
                    let mut ga = g.clone();
                    for r in 0..ga.rows() {
                        for c in 0..ga.cols() {
                            let v = ga.get(r, c) * tb.get(0, c);
                            ga.set(r, c, v);
                        }
                    }
                    add_to(grads, *a, ga);
                }
                if self.needs_grad(*b) {
                    let mut gb = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            gb.set(0, c, gb.get(0, c) + g.get(r, c) * ta.get(r, c));
                        }
                    }
                    add_to(grads, *b, gb);
                }
            }
            Op::Scale(a, k) => {
                if self.needs_grad(*a) {
                    let k = *k;
                    add_to(grads, *a, g.map(|x| x * k));
                }
            }
            Op::Matmul(a, b) => {
                // dL/dA = G·Bᵀ and dL/dB = Aᵀ·G, on B's Wᵀ panels or the
                // transposed-operand kernels, so neither transpose is
                // materialised. Aᵀ·G is kept unbuilt until B's gradient is
                // needed.
                if self.needs_grad(*a) {
                    add_to(grads, *a, self.input_grad(&g, *b));
                }
                if self.needs_grad(*b) {
                    self.add_share(grads, *b, Share::Product { a: *a, dz: g });
                }
            }
            Op::MatmulTransposedB(a, b) => {
                // Y = A·Bᵀ, so dL/dA = G·B and dL/dB = Gᵀ·A.
                if self.needs_grad(*a) {
                    add_to(grads, *a, g.matmul(self.value(*b)));
                }
                if self.needs_grad(*b) {
                    add_to(grads, *b, g.matmul_transposed_a(self.value(*a)));
                }
            }
            Op::Transpose(a) => {
                if self.needs_grad(*a) {
                    add_to(grads, *a, g.transpose());
                }
            }
            Op::Tanh(a) => {
                if self.needs_grad(*a) {
                    let y = &self.nodes[i].value;
                    add_to(grads, *a, g.zip(y, |gv, yv| gv * (1.0 - yv * yv)));
                }
            }
            Op::Sigmoid(a) => {
                if self.needs_grad(*a) {
                    let y = &self.nodes[i].value;
                    add_to(grads, *a, g.zip(y, |gv, yv| gv * yv * (1.0 - yv)));
                }
            }
            Op::Relu(a) => {
                if self.needs_grad(*a) {
                    let x = self.value(*a);
                    add_to(grads, *a, g.zip(x, |gv, xv| if xv > 0.0 { gv } else { 0.0 }));
                }
            }
            Op::SoftmaxRows(a) => {
                if self.needs_grad(*a) {
                    let y = &self.nodes[i].value;
                    let mut gx = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 =
                            y.row(r).iter().zip(g.row(r)).map(|(&yv, &gv)| yv * gv).sum();
                        for c in 0..y.cols() {
                            gx.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    add_to(grads, *a, gx);
                }
            }
            Op::LogSoftmaxRows(a) => {
                if self.needs_grad(*a) {
                    let y = &self.nodes[i].value; // y = log softmax(x)
                    let mut gx = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let gsum: f32 = g.row(r).iter().sum();
                        for c in 0..y.cols() {
                            gx.set(r, c, g.get(r, c) - y.get(r, c).exp() * gsum);
                        }
                    }
                    add_to(grads, *a, gx);
                }
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let cols = self.value(p).cols();
                    if self.needs_grad(p) {
                        let mut data = crate::pool::take(g.rows() * cols);
                        for r in 0..g.rows() {
                            data.extend_from_slice(&g.row(r)[off..off + cols]);
                        }
                        add_to(grads, p, Tensor::from_vec(g.rows(), cols, data));
                    }
                    off += cols;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let rows = self.value(p).rows();
                    if self.needs_grad(p) {
                        let mut data = crate::pool::take(rows * g.cols());
                        data.extend_from_slice(
                            &g.as_slice()[off * g.cols()..(off + rows) * g.cols()],
                        );
                        add_to(grads, p, Tensor::from_vec(rows, g.cols(), data));
                    }
                    off += rows;
                }
            }
            Op::SliceCols(a, c0, _c1) => {
                if self.needs_grad(*a) {
                    let src = self.value(*a);
                    let mut ga = Tensor::zeros(src.rows(), src.cols());
                    for r in 0..g.rows() {
                        ga.row_mut(r)[*c0..*c0 + g.cols()].copy_from_slice(g.row(r));
                    }
                    add_to(grads, *a, ga);
                }
            }
            Op::SliceRows(a, r0, _r1) => {
                if self.needs_grad(*a) {
                    let src = self.value(*a);
                    let mut ga = Tensor::zeros(src.rows(), src.cols());
                    for r in 0..g.rows() {
                        ga.row_mut(r0 + r).copy_from_slice(g.row(r));
                    }
                    add_to(grads, *a, ga);
                }
            }
            Op::SumAll(a) => {
                if self.needs_grad(*a) {
                    let src = self.value(*a);
                    let gv = g.scalar_value();
                    add_to(grads, *a, Tensor::full(src.rows(), src.cols(), gv));
                }
            }
            Op::MeanAll(a) => {
                if self.needs_grad(*a) {
                    let src = self.value(*a);
                    let gv = g.scalar_value() / src.len() as f32;
                    add_to(grads, *a, Tensor::full(src.rows(), src.cols(), gv));
                }
            }
            Op::Gather(table, _) => {
                // A scatter-add into the table, kept unbuilt as the rows.
                if self.needs_grad(*table) {
                    self.add_share(grads, *table, Share::Rows { node: i, rows: g });
                }
            }
            Op::NllLoss(lp, targets) => {
                if self.needs_grad(*lp) {
                    let t = self.value(*lp);
                    let gv = g.scalar_value() / targets.len() as f32;
                    let mut glp = Tensor::zeros(t.rows(), t.cols());
                    for (r, &c) in targets.iter().enumerate() {
                        glp.set(r, c, -gv);
                    }
                    add_to(grads, *lp, glp);
                }
            }
            Op::Dropout(a, mask) => {
                if self.needs_grad(*a) {
                    let mut ga = g.clone();
                    for (x, &m) in ga.as_mut_slice().iter_mut().zip(mask) {
                        *x *= m;
                    }
                    add_to(grads, *a, ga);
                }
            }
            Op::MatmulBiasAct(a, w, bias, act) => {
                // Chain through the activation first: dz = g ⊙ act'(y). All
                // derivatives are expressed via the stored output y, exactly
                // as the unfused arms do (for ReLU, y > 0 ⟺ x > 0, so the
                // gradient matches the pre-activation test bit for bit).
                let y = &self.nodes[i].value;
                let dz = match act {
                    Activation::None => g,
                    Activation::Tanh => g.zip(y, |gv, yv| gv * (1.0 - yv * yv)),
                    Activation::Sigmoid => g.zip(y, |gv, yv| gv * yv * (1.0 - yv)),
                    Activation::Relu => g.zip(y, |gv, yv| if yv > 0.0 { gv } else { 0.0 }),
                };
                // The bias row is summed before `dz` moves into the
                // weight's share; operands still receive theirs in the
                // order a, w, bias.
                let gb = bias.filter(|b| self.needs_grad(*b)).map(|b| {
                    let mut gb = Tensor::zeros(1, dz.cols());
                    for r in 0..dz.rows() {
                        for c in 0..dz.cols() {
                            gb.set(0, c, gb.get(0, c) + dz.get(r, c));
                        }
                    }
                    (b, gb)
                });
                if self.needs_grad(*a) {
                    add_to(grads, *a, self.input_grad(&dz, *w));
                }
                if self.needs_grad(*w) {
                    self.add_share(grads, *w, Share::Product { a: *a, dz });
                }
                if let Some((b, gb)) = gb {
                    add_to(grads, b, gb);
                }
            }
            Op::AttnSoftmax { q, keys, scale, mask } => {
                // Softmax backward per row (yᵣ ⊙ (gᵣ − yᵣ·gᵣ)), identical to
                // the SoftmaxRows arm; the mask taps it unscaled and the
                // score gradient additionally chains the 1/√d scale.
                let y = &self.nodes[i].value;
                let (rows, cols) = y.shape();
                let mut gs = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    let dot: f32 = y.row(r).iter().zip(g.row(r)).map(|(&yv, &gv)| yv * gv).sum();
                    for c in 0..cols {
                        gs.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                    }
                }
                if let Some(m) = mask {
                    if self.needs_grad(*m) {
                        add_to(grads, *m, gs.clone());
                    }
                }
                let k = *scale;
                let gscaled = gs.map(|x| x * k);
                if self.needs_grad(*q) {
                    add_to(grads, *q, gscaled.matmul(self.value(*keys)));
                }
                if self.needs_grad(*keys) {
                    add_to(grads, *keys, gscaled.matmul_transposed_a(self.value(*q)));
                }
            }
            Op::LogSoftmaxNll { x, targets, lse } => {
                if self.needs_grad(*x) {
                    let t = self.value(*x);
                    let gv = g.scalar_value() / targets.len() as f32;
                    let mut gx = Tensor::zeros(t.rows(), t.cols());
                    for r in 0..t.rows() {
                        let l = lse[r];
                        let src = t.row(r);
                        let out = gx.row_mut(r);
                        for (o, &xv) in out.iter_mut().zip(src) {
                            *o = (xv - l).exp() * gv;
                        }
                        out[targets[r]] -= gv;
                    }
                    add_to(grads, *x, gx);
                }
            }
            Op::LstmCellGate { z, c_prev } => {
                // g is dL/dc. Gate values are recomputed from z — the same
                // scalar expressions as the forward pass, so every factor is
                // bit-identical to the unfused chain's cached node values,
                // and each product below mirrors one unfused backward zip
                // (mul backward, then sigmoid/tanh backward) term for term.
                // One pass per element evaluates each gate once for both
                // operands' shares.
                let tz = self.value(*z);
                let tcp = self.value(*c_prev);
                let (rows, h) = tcp.shape();
                let mut dz = self.needs_grad(*z).then(|| Tensor::zeros(rows, 4 * h));
                let mut dcp = self.needs_grad(*c_prev).then(|| Tensor::zeros(rows, h));
                for r in 0..rows {
                    let (zr, cp, gr) = (tz.row(r), tcp.row(r), g.row(r));
                    let mut dz_r = dz.as_mut().map(|t| t.row_mut(r));
                    let mut dcp_r = dcp.as_mut().map(|t| t.row_mut(r));
                    for j in 0..h {
                        let fv = sigmoid(zr[h + j]);
                        if let Some(out) = dz_r.as_deref_mut() {
                            let iv = sigmoid(zr[j]);
                            let gv_ = zr[2 * h + j].tanh();
                            let di = gr[j] * gv_;
                            let df = gr[j] * cp[j];
                            let dcand = gr[j] * iv;
                            out[j] = di * iv * (1.0 - iv);
                            out[h + j] = df * fv * (1.0 - fv);
                            out[2 * h + j] = dcand * (1.0 - gv_ * gv_);
                        }
                        if let Some(out) = dcp_r.as_deref_mut() {
                            out[j] = gr[j] * fv;
                        }
                    }
                }
                if let Some(dz) = dz {
                    add_to(grads, *z, dz);
                }
                if let Some(dcp) = dcp {
                    add_to(grads, *c_prev, dcp);
                }
            }
            Op::LstmOutGate { z, c } => {
                // g is dL/dh with h = σ(z_o)·tanh(c); one pass per element
                // evaluates σ(z_o) and tanh(c) once for both shares.
                let tz = self.value(*z);
                let tc = self.value(*c);
                let (rows, h) = tc.shape();
                let mut dz = self.needs_grad(*z).then(|| Tensor::zeros(rows, 4 * h));
                let mut dc = self.needs_grad(*c).then(|| Tensor::zeros(rows, h));
                for r in 0..rows {
                    let (zr, cr, gr) = (tz.row(r), tc.row(r), g.row(r));
                    let mut dz_r = dz.as_mut().map(|t| t.row_mut(r));
                    let mut dc_r = dc.as_mut().map(|t| t.row_mut(r));
                    for j in 0..h {
                        let ov = sigmoid(zr[3 * h + j]);
                        let tcv = cr[j].tanh();
                        if let Some(out) = dz_r.as_deref_mut() {
                            let do_ = gr[j] * tcv;
                            out[3 * h + j] = do_ * ov * (1.0 - ov);
                        }
                        if let Some(out) = dc_r.as_deref_mut() {
                            out[j] = gr[j] * ov * (1.0 - tcv * tcv);
                        }
                    }
                }
                if let Some(dz) = dz {
                    add_to(grads, *z, dz);
                }
                if let Some(dc) = dc {
                    add_to(grads, *c, dc);
                }
            }
            Op::LayerNormRows(a, eps) => {
                if self.needs_grad(*a) {
                    let x = self.value(*a);
                    let y = &self.nodes[i].value;
                    let n = x.cols() as f32;
                    let mut gx = Tensor::zeros(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        let mean = x.row(r).iter().sum::<f32>() / n;
                        let var =
                            x.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
                        let inv = 1.0 / (var + eps).sqrt();
                        let gmean: f32 = g.row(r).iter().sum::<f32>() / n;
                        let gydot: f32 = g
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&gv, &yv)| gv * yv)
                            .sum::<f32>()
                            / n;
                        for c in 0..x.cols() {
                            gx.set(r, c, inv * (g.get(r, c) - gmean - y.get(r, c) * gydot));
                        }
                    }
                    add_to(grads, *a, gx);
                }
            }
        }
    }
}

/// The logistic function, written exactly as the [`Graph::sigmoid`] map so
/// fused and unfused gate math agree bitwise.
#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The values of [`Graph::lstm_gates`]: consumes the pre-activations
/// `z = [i|f|g|o]` (`[B, 4h]`) and the previous cell state (`[B, h]`),
/// returns `(h, c)`. The gate nonlinearities stay scalar (exp/tanh); the
/// elementwise combines `c = f ⊙ c_prev + i ⊙ g` and `h = o ⊙ tanh(c)` go
/// through the bit-pinned SIMD kernels with the same expression trees as
/// the unfused `add(mul, mul)` / `mul` ops.
fn lstm_gates_eval(tz: &Tensor, tc_prev: &Tensor) -> (Tensor, Tensor) {
    let (rows, h) = tc_prev.shape();
    let lvl = crate::simd::level();
    let mut scratch = crate::pool::take(3 * h);
    scratch.resize(3 * h, 0.0);
    let mut c_data = crate::pool::take(rows * h);
    c_data.resize(rows * h, 0.0);
    for r in 0..rows {
        let zr = tz.row(r);
        let cp = tc_prev.row(r);
        let (iv, rest) = scratch.split_at_mut(h);
        let (fv, gv) = rest.split_at_mut(h);
        for j in 0..h {
            iv[j] = sigmoid(zr[j]);
            fv[j] = sigmoid(zr[h + j]);
            gv[j] = zr[2 * h + j].tanh();
        }
        // Same grouping as the unfused add(mul(f, c_prev), mul(i, g)).
        crate::simd::mul2_add_at(lvl, &mut c_data[r * h..(r + 1) * h], fv, cp, iv, gv);
    }
    let c = Tensor::from_vec(rows, h, c_data);
    let mut h_data = crate::pool::take(rows * h);
    h_data.resize(rows * h, 0.0);
    for r in 0..rows {
        let zr = tz.row(r);
        let cr = c.row(r);
        let (ov, tv) = scratch.split_at_mut(h);
        let tv = &mut tv[..h];
        for j in 0..h {
            ov[j] = sigmoid(zr[3 * h + j]);
            tv[j] = cr[j].tanh();
        }
        crate::simd::mul_at(lvl, &mut h_data[r * h..(r + 1) * h], ov, tv);
    }
    crate::pool::give(scratch);
    (Tensor::from_vec(rows, h, h_data), c)
}

fn softmax_row(row: &mut [f32]) {
    // The max fold and the exp-sum are serial reductions whose result
    // depends on evaluation order, so they stay scalar (see the bit-pinning
    // rules in `simd`); only the per-element normalisation vectorizes.
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    crate::simd::div(row, sum);
}

/// Applies an activation in place, with the exact element expressions of the
/// unfused [`Graph::tanh`] / [`Graph::sigmoid`] / [`Graph::relu`] maps (the
/// Relu goes through the SIMD kernel, which is bit-pinned to the scalar
/// `simd::relu_scalar`).
fn apply_activation(out: &mut Tensor, act: Activation) {
    match act {
        Activation::None => {}
        Activation::Tanh => out.as_mut_slice().iter_mut().for_each(|x| *x = x.tanh()),
        Activation::Sigmoid => {
            out.as_mut_slice().iter_mut().for_each(|x| *x = 1.0 / (1.0 + (-*x).exp()))
        }
        Activation::Relu => crate::simd::relu(out.as_mut_slice()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numeric gradient of a scalar-valued function of one parameter tensor.
    fn numeric_grad(
        f: &dyn Fn(&Tensor) -> f32,
        at: &Tensor,
        eps: f32,
    ) -> Tensor {
        let mut g = Tensor::zeros(at.rows(), at.cols());
        for r in 0..at.rows() {
            for c in 0..at.cols() {
                let mut plus = at.clone();
                plus.set(r, c, at.get(r, c) + eps);
                let mut minus = at.clone();
                minus.set(r, c, at.get(r, c) - eps);
                g.set(r, c, (f(&plus) - f(&minus)) / (2.0 * eps));
            }
        }
        g
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "grad mismatch: {x} vs {y}\nanalytic {a:?}\nnumeric {b:?}"
            );
        }
    }

    /// Checks the analytic gradient of `build` (a scalar function of a single
    /// parameter) against central differences at the point `at`.
    fn gradcheck(at: Tensor, build: impl Fn(&mut Graph, Var) -> Var) {
        let mut g = Graph::new();
        let p = g.param(at.clone(), 0);
        let loss = build(&mut g, p);
        let grads = g.backward(loss);
        let analytic = grads.for_param(0).expect("no gradient");

        let f = |t: &Tensor| -> f32 {
            let mut g = Graph::new();
            let p = g.param(t.clone(), 0);
            let loss = build(&mut g, p);
            g.value(loss).scalar_value()
        };
        let numeric = numeric_grad(&f, &at, 1e-2);
        assert_close(analytic, &numeric, 2e-2);
    }

    fn sample(rows: usize, cols: usize, seed: u64) -> Tensor {
        // Tiny deterministic LCG so the test has no external dependencies.
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            data.push(((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5);
        }
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn grad_matmul() {
        gradcheck(sample(3, 4, 1), |g, p| {
            let w = g.input(sample(4, 2, 2));
            let y = g.matmul(p, w);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_matmul_rhs() {
        gradcheck(sample(4, 2, 3), |g, p| {
            let x = g.input(sample(3, 4, 4));
            let y = g.matmul(x, p);
            let t = g.tanh(y);
            g.sum_all(t)
        });
    }

    #[test]
    fn grad_activations() {
        gradcheck(sample(2, 3, 5), |g, p| {
            let a = g.tanh(p);
            let b = g.sigmoid(a);
            let c = g.relu(b);
            g.mean_all(c)
        });
    }

    #[test]
    fn grad_softmax_nll() {
        gradcheck(sample(3, 5, 6), |g, p| {
            let lp = g.log_softmax_rows(p);
            g.nll_loss(lp, &[1, 4, 0])
        });
    }

    #[test]
    fn grad_softmax_weighted() {
        gradcheck(sample(2, 4, 7), |g, p| {
            let s = g.softmax_rows(p);
            let w = g.input(sample(2, 4, 8));
            let m = g.mul(s, w);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_concat_slice() {
        gradcheck(sample(2, 3, 9), |g, p| {
            let q = g.scale(p, 2.0);
            let cat = g.concat_cols(&[p, q]);
            let sl = g.slice_cols(cat, 1, 5);
            let rows = g.concat_rows(&[sl, sl]);
            let sr = g.slice_rows(rows, 1, 3);
            g.sum_all(sr)
        });
    }

    #[test]
    fn grad_broadcast_ops() {
        gradcheck(sample(1, 4, 10), |g, p| {
            let x = g.input(sample(3, 4, 11));
            let a = g.add_broadcast_row(x, p);
            let b = g.mul_broadcast_row(a, p);
            g.sum_all(b)
        });
    }

    #[test]
    fn grad_gather() {
        gradcheck(sample(5, 3, 12), |g, p| {
            let e = g.gather_rows(p, &[0, 2, 2, 4]);
            let t = g.tanh(e);
            g.sum_all(t)
        });
    }

    #[test]
    fn grad_layer_norm() {
        gradcheck(sample(2, 6, 13), |g, p| {
            let y = g.layer_norm_rows(p, 1e-5);
            let w = g.input(sample(2, 6, 14));
            let m = g.mul(y, w);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_sub_mul_transpose() {
        gradcheck(sample(3, 3, 15), |g, p| {
            let t = g.transpose(p);
            let d = g.sub(p, t);
            let m = g.mul(d, d);
            g.mean_all(m)
        });
    }

    #[test]
    fn grad_fused_matmul_bias_act() {
        // Numeric check of the fused backward for each smooth activation
        // (ReLU's kink trips central differences; its equivalence with the
        // unfused chain is pinned in tests/fused_kernels.rs instead).
        for act in [Activation::None, Activation::Tanh, Activation::Sigmoid] {
            gradcheck(sample(3, 4, 20), move |g, p| {
                let w = g.input(sample(4, 2, 21));
                let b = g.input(sample(1, 2, 22));
                let y = g.matmul_bias_act(p, w, Some(b), act);
                g.sum_all(y)
            });
            // Gradient w.r.t. the weight operand.
            gradcheck(sample(4, 2, 23), move |g, p| {
                let x = g.input(sample(3, 4, 24));
                let y = g.matmul_bias_act(x, p, None, act);
                g.sum_all(y)
            });
            // Gradient w.r.t. the bias operand.
            gradcheck(sample(1, 2, 25), move |g, p| {
                let x = g.input(sample(3, 4, 26));
                let w = g.input(sample(4, 2, 27));
                let y = g.matmul_bias_act(x, w, Some(p), act);
                g.sum_all(y)
            });
        }
    }

    #[test]
    fn grad_fused_attn_softmax_query() {
        gradcheck(sample(2, 3, 30), |g, p| {
            let keys = g.input(sample(4, 3, 31));
            let a = g.attn_softmax(p, keys, 0.5, None);
            let w = g.input(sample(2, 4, 32));
            let m = g.mul(a, w);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_fused_attn_softmax_keys_with_mask() {
        gradcheck(sample(4, 3, 33), |g, p| {
            let q = g.input(sample(2, 3, 34));
            let mask = g.input(sample(2, 4, 35));
            let a = g.attn_softmax(q, p, 0.7, Some(mask));
            let w = g.input(sample(2, 4, 36));
            let m = g.mul(a, w);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_fused_log_softmax_nll() {
        gradcheck(sample(3, 5, 37), |g, p| g.log_softmax_nll(p, &[1, 4, 0]));
    }

    #[test]
    fn reset_clears_tape_keeps_usability() {
        let mut g = Graph::new();
        let p = g.param(Tensor::row_vector(&[1.0, 2.0]), 0);
        let _ = g.sum_all(p);
        assert_eq!(g.len(), 2);
        g.reset();
        assert!(g.is_empty());
        let p = g.param(Tensor::row_vector(&[3.0]), 0);
        let loss = g.sum_all(p);
        let grads = g.backward(loss);
        assert_eq!(grads.for_param(0).unwrap().scalar_value(), 1.0);
    }

    #[test]
    fn dropout_backward_applies_mask() {
        let mut g = Graph::new();
        let p = g.param(Tensor::row_vector(&[1.0, 2.0, 3.0]), 0);
        let mask = vec![2.0, 0.0, 2.0]; // keep-prob 0.5 inverted dropout
        let d = g.dropout(p, mask);
        let loss = g.sum_all(d);
        let grads = g.backward(loss);
        assert_eq!(grads.for_param(0).unwrap().as_slice(), &[2.0, 0.0, 2.0]);
    }

    #[test]
    fn param_reuse_accumulates() {
        // Same parameter registered twice: gradients must sum.
        let mut g = Graph::new();
        let t = Tensor::row_vector(&[1.0, 1.0]);
        let p1 = g.param(t.clone(), 7);
        let p2 = g.param(t, 7);
        let s = g.add(p1, p2);
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        assert_eq!(grads.for_param(7).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn inputs_receive_no_gradient() {
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(3.0));
        let p = g.param(Tensor::scalar(2.0), 0);
        let y = g.mul(x, p);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let ids: Vec<usize> = grads.param_grads().map(|(id, _)| id).collect();
        assert_eq!(ids, [0], "only the parameter gets a gradient");
        assert_eq!(grads.for_param(0).unwrap().scalar_value(), 3.0);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar_loss() {
        let mut g = Graph::new();
        let p = g.param(Tensor::row_vector(&[1.0, 2.0]), 0);
        g.backward(p);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]));
        let s = g.softmax_rows(x);
        let t = g.value(s);
        for r in 0..2 {
            let sum: f32 = t.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(t.get(0, 2) > t.get(0, 1) && t.get(0, 1) > t.get(0, 0));
    }
}
