//! LSTM cells and (bi-)directional sequence encoders.
//!
//! The paper uses bi-directional LSTMs to summarise multi-token columns,
//! tables and value candidates (Section V-C, dimensionality 300) and a
//! uni-directional LSTM as the decoder backbone (Section III-B2).

use crate::{Initializer, ParamId, ParamStore};
use rand::Rng;
use valuenet_tensor::{Graph, Tensor, Var};

/// Hidden and cell state of an LSTM, each of shape `[B, hidden]` — one row
/// per batch element (`B = 1` for the sequential encoders; the batched beam
/// decoder stacks all live hypotheses into one state).
#[derive(Clone, Copy)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Var,
    /// Cell state `c`.
    pub c: Var,
}

/// A single LSTM cell with input/forget/cell/output gates.
///
/// Gate pre-activations are computed in one fused projection of size
/// `4 × hidden`, laid out `[i | f | g | o]`. The forget-gate bias is
/// initialised to 1.0, the standard trick for gradient flow.
pub struct LstmCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl LstmCell {
    /// Creates a cell mapping `in_dim` inputs to a `hidden`-sized state.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        group: usize,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx = ps.add(
            format!("{name}.wx"),
            group,
            Initializer::XavierUniform.sample(rng, in_dim, 4 * hidden),
        );
        let wh = ps.add(
            format!("{name}.wh"),
            group,
            Initializer::XavierUniform.sample(rng, hidden, 4 * hidden),
        );
        let mut bias = Tensor::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0); // forget gate
        }
        let b = ps.add(format!("{name}.b"), group, bias);
        LstmCell { wx, wh, b, in_dim, hidden }
    }

    /// Hidden dimensionality.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// A zero initial state.
    pub fn zero_state(&self, g: &mut Graph) -> LstmState {
        self.zero_state_n(g, 1)
    }

    /// A zero initial state for a batch of `n` independent sequences.
    pub fn zero_state_n(&self, g: &mut Graph, n: usize) -> LstmState {
        let h = g.input(Tensor::zeros(n, self.hidden));
        let c = g.input(Tensor::zeros(n, self.hidden));
        LstmState { h, c }
    }

    /// One step: consumes `x` of shape `[B, in_dim]` and the previous
    /// `[B, hidden]` state, multiplying by the store's packed weights
    /// ([`ParamStore::weight`]). Every op in the cell is row-wise, so a
    /// batch of `B` rows produces exactly the per-row results of `B`
    /// separate calls (the matmul kernels accumulate each output row
    /// independently in a fixed order) — the batched beam decoder relies on
    /// this.
    pub fn step(&self, g: &mut Graph, ps: &ParamStore, x: Var, state: LstmState) -> LstmState {
        debug_assert_eq!(g.value(x).cols(), self.in_dim, "LstmCell: bad input width");
        debug_assert_eq!(
            g.value(x).rows(),
            g.value(state.h).rows(),
            "LstmCell: input/state batch mismatch"
        );
        let wx = ps.weight(g, self.wx);
        let wh = ps.weight(g, self.wh);
        let b = ps.var(g, self.b);
        let zx = g.matmul(x, wx);
        let zh = g.matmul(state.h, wh);
        let z0 = g.add(zx, zh);
        let z = g.add_broadcast_row(z0, b);
        let (h_out, c) = g.lstm_gates(z, state.c);
        LstmState { h: h_out, c }
    }
}

/// A uni-directional LSTM over a sequence.
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    /// Creates the encoder.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        group: usize,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        Lstm { cell: LstmCell::new(ps, rng, name, group, in_dim, hidden) }
    }

    /// The underlying cell (for step-wise decoding).
    pub fn cell(&self) -> &LstmCell {
        &self.cell
    }

    /// Runs over `xs` of shape `[T, in_dim]`, returning all hidden states
    /// `[T, hidden]` and the final state.
    pub fn run(&self, g: &mut Graph, ps: &ParamStore, xs: Var) -> (Var, LstmState) {
        let t_len = g.value(xs).rows();
        assert!(t_len > 0, "Lstm::run on empty sequence");
        let mut state = self.cell.zero_state(g);
        let mut hs = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let x = g.slice_rows(xs, t, t + 1);
            state = self.cell.step(g, ps, x, state);
            hs.push(state.h);
        }
        (g.concat_rows(&hs), state)
    }
}

/// A bi-directional LSTM: a forward and a backward pass whose hidden states
/// are concatenated, yielding `[T, 2*hidden]` outputs and a `[1, 2*hidden]`
/// summary (the concatenated final states — the paper's item summariser).
pub struct BiLstm {
    fwd: LstmCell,
    bwd: LstmCell,
}

impl BiLstm {
    /// Creates both directions.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        group: usize,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        BiLstm {
            fwd: LstmCell::new(ps, rng, &format!("{name}.fwd"), group, in_dim, hidden),
            bwd: LstmCell::new(ps, rng, &format!("{name}.bwd"), group, in_dim, hidden),
        }
    }

    /// Output dimensionality (`2 × hidden`).
    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden()
    }

    /// Runs over `xs` of shape `[T, in_dim]`. Returns per-step outputs
    /// `[T, 2*hidden]` and the summary vector `[1, 2*hidden]`.
    pub fn run(&self, g: &mut Graph, ps: &ParamStore, xs: Var) -> (Var, Var) {
        let t_len = g.value(xs).rows();
        assert!(t_len > 0, "BiLstm::run on empty sequence");
        let mut state_f = self.fwd.zero_state(g);
        let mut hs_f = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let x = g.slice_rows(xs, t, t + 1);
            state_f = self.fwd.step(g, ps, x, state_f);
            hs_f.push(state_f.h);
        }
        let mut state_b = self.bwd.zero_state(g);
        let mut hs_b = vec![state_b.h; t_len];
        for t in (0..t_len).rev() {
            let x = g.slice_rows(xs, t, t + 1);
            state_b = self.bwd.step(g, ps, x, state_b);
            hs_b[t] = state_b.h;
        }
        let per_step: Vec<Var> = hs_f
            .iter()
            .zip(&hs_b)
            .map(|(&f, &b)| g.concat_cols(&[f, b]))
            .collect();
        let outputs = g.concat_rows(&per_step);
        let summary = g.concat_cols(&[state_f.h, state_b.h]);
        (outputs, summary)
    }

    /// Convenience: just the `[1, 2*hidden]` summary of a sequence.
    pub fn summarize(&self, g: &mut Graph, ps: &ParamStore, xs: Var) -> Var {
        self.run(g, ps, xs).1
    }

    /// Row-batched summary of `N` equal-length sequences.
    ///
    /// `xs[t]` holds time step `t` for every sequence, shape `[N, in_dim]`.
    /// Returns the `[N, 2*hidden]` summaries — row `i` is bit-identical to
    /// `summarize` over sequence `i` alone, because every op in
    /// [`LstmCell::step`] is row-wise and the matmul kernels accumulate each
    /// output row independently in a fixed order. The batched encoder's
    /// length-bucketed item summariser relies on this.
    pub fn summarize_steps(&self, g: &mut Graph, ps: &ParamStore, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "BiLstm::summarize_steps on empty sequence");
        let n = g.value(xs[0]).rows();
        let mut state_f = self.fwd.zero_state_n(g, n);
        for &x in xs {
            state_f = self.fwd.step(g, ps, x, state_f);
        }
        let mut state_b = self.bwd.zero_state_n(g, n);
        for &x in xs.iter().rev() {
            state_b = self.bwd.step(g, ps, x, state_b);
        }
        g.concat_cols(&[state_f.h, state_b.h])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, AdamConfig, Embedding, Linear};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shapes() {
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 0, 3, 5);
        let bi = BiLstm::new(&mut ps, &mut rng, "b", 0, 3, 5);
        let mut g = Graph::new();
        let xs = g.input(Tensor::zeros(7, 3));
        let (hs, last) = lstm.run(&mut g, &ps, xs);
        assert_eq!(g.value(hs).shape(), (7, 5));
        assert_eq!(g.value(last.h).shape(), (1, 5));
        let (outs, summary) = bi.run(&mut g, &ps, xs);
        assert_eq!(g.value(outs).shape(), (7, 10));
        assert_eq!(g.value(summary).shape(), (1, 10));
    }

    #[test]
    fn forget_bias_initialised() {
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let cell = LstmCell::new(&mut ps, &mut rng, "c", 0, 2, 3);
        let b = ps.get(cell.b);
        assert_eq!(b.row(0)[3..6], [1.0, 1.0, 1.0]);
        assert_eq!(b.row(0)[0..3], [0.0, 0.0, 0.0]);
    }

    /// The classic sanity task: classify whether the *first* token of a
    /// sequence is a 1, regardless of a distracting suffix. A working LSTM
    /// must carry information across time steps to solve it.
    #[test]
    fn learns_to_remember_first_token() {
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let emb = Embedding::new(&mut ps, &mut rng, "e", 0, 3, 8);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 0, 8, 16);
        let out = Linear::new(&mut ps, &mut rng, "o", 0, 16, 2);
        let mut opt = Adam::new(&ps, AdamConfig { group_lrs: vec![0.01], ..Default::default() });

        let seqs: Vec<(Vec<usize>, usize)> = vec![
            (vec![1, 2, 2, 2, 0], 1),
            (vec![0, 2, 2, 2, 0], 0),
            (vec![1, 0, 2, 0, 2], 1),
            (vec![0, 0, 2, 2, 2], 0),
            (vec![1, 2, 0, 0, 0], 1),
            (vec![0, 2, 0, 2, 0], 0),
        ];
        for _ in 0..150 {
            for (seq, label) in &seqs {
                let mut g = Graph::new();
                let x = emb.forward(&mut g, &ps, seq);
                let (_, last) = lstm.run(&mut g, &ps, x);
                let logits = out.forward(&mut g, &ps, last.h);
                let lp = g.log_softmax_rows(logits);
                let loss = g.nll_loss(lp, &[*label]);
                let grads = g.backward(loss);
                opt.step(&mut ps, &grads);
            }
        }
        let mut correct = 0;
        for (seq, label) in &seqs {
            let mut g = Graph::new();
            let x = emb.forward(&mut g, &ps, seq);
            let (_, last) = lstm.run(&mut g, &ps, x);
            let logits = out.forward(&mut g, &ps, last.h);
            if g.value(logits).argmax() == *label {
                correct += 1;
            }
        }
        assert_eq!(correct, seqs.len(), "LSTM failed to learn first-token recall");
    }

    #[test]
    fn bilstm_summary_sees_both_ends() {
        // The backward half of the summary is the backward LSTM's state after
        // reading the whole sequence, so changing the *last* token must change
        // the summary even though the forward state at t=0 cannot see it.
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let bi = BiLstm::new(&mut ps, &mut rng, "b", 0, 2, 4);
        let run = |last: f32| {
            let mut g = Graph::new();
            let xs = g.input(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[last, last]]));
            let s = bi.summarize(&mut g, &ps, xs);
            g.value(s).as_slice().to_vec()
        };
        assert_ne!(run(0.0), run(5.0));
    }
}
