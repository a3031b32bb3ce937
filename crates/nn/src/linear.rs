//! Linear projections and embedding tables.

use crate::{Initializer, ParamId, ParamStore};
use rand::Rng;
use valuenet_tensor::{Activation, Graph, Var};

/// A dense affine layer `y = x W + b` (bias optional).
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        group: usize,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self::with_bias(ps, rng, name, group, in_dim, out_dim, true)
    }

    /// Creates a layer, optionally without a bias term.
    pub fn with_bias(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        group: usize,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = ps.add(
            format!("{name}.w"),
            group,
            Initializer::XavierUniform.sample(rng, in_dim, out_dim),
        );
        let b = bias.then(|| {
            ps.add(format!("{name}.b"), group, Initializer::Zeros.sample(rng, 1, out_dim))
        });
        Linear { w, b, in_dim, out_dim }
    }

    /// Applies the layer to `x` of shape `[n, in_dim]`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamStore, x: Var) -> Var {
        self.forward_act(g, ps, x, Activation::None)
    }

    /// Applies the layer followed by `act`, as one fused
    /// [`Graph::matmul_bias_act`] node (matmul, bias broadcast and
    /// activation in a single pass over the output), on the store's packed
    /// weights ([`ParamStore::weight`]).
    pub fn forward_act(&self, g: &mut Graph, ps: &ParamStore, x: Var, act: Activation) -> Var {
        debug_assert_eq!(g.value(x).cols(), self.in_dim, "Linear: input dim mismatch");
        let w = ps.weight(g, self.w);
        let b = self.b.map(|b| ps.var(g, b));
        g.matmul_bias_act(x, w, b, act)
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// A lookup table mapping token ids to dense vectors.
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates a `vocab × dim` table with uniform(-0.1, 0.1) entries.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        group: usize,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let table =
            ps.add(format!("{name}.emb"), group, Initializer::Uniform(0.1).sample(rng, vocab, dim));
        Embedding { table, vocab, dim }
    }

    /// Looks up a batch of ids, producing `[ids.len(), dim]`. On an
    /// inference tape the rows are copied straight from the store, skipping
    /// the full-table parameter clone.
    pub fn forward(&self, g: &mut Graph, ps: &ParamStore, ids: &[usize]) -> Var {
        debug_assert!(ids.iter().all(|&i| i < self.vocab), "Embedding: id out of vocab");
        if g.inference_mode() {
            return ps.gather_rows(g, self.table, ids);
        }
        let table = ps.var(g, self.table);
        g.gather_rows(table, ids)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, AdamConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use valuenet_tensor::Tensor;

    #[test]
    fn linear_shapes() {
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let lin = Linear::new(&mut ps, &mut rng, "l", 0, 3, 5);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(4, 3));
        let y = lin.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), (4, 5));
    }

    #[test]
    fn linear_learns_regression() {
        // Fit y = 2x + 1 with a 1->1 linear layer.
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let lin = Linear::new(&mut ps, &mut rng, "l", 0, 1, 1);
        let mut opt = Adam::new(&ps, AdamConfig { group_lrs: vec![0.1], ..Default::default() });
        let xs = [-2.0f32, -1.0, 0.0, 1.0, 2.0];
        for _ in 0..200 {
            let mut g = Graph::new();
            let x = g.input(Tensor::from_vec(5, 1, xs.to_vec()));
            let target =
                g.input(Tensor::from_vec(5, 1, xs.iter().map(|x| 2.0 * x + 1.0).collect()));
            let y = lin.forward(&mut g, &ps, x);
            let d = g.sub(y, target);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            opt.step(&mut ps, &grads);
        }
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(3.0));
        let y = lin.forward(&mut g, &ps, x);
        assert!((g.value(y).scalar_value() - 7.0).abs() < 0.05, "got {}", g.value(y).scalar_value());
    }

    #[test]
    fn embedding_lookup_and_grads() {
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let emb = Embedding::new(&mut ps, &mut rng, "e", 0, 10, 4);
        let mut g = Graph::new();
        let e = emb.forward(&mut g, &ps, &[3, 3, 7]);
        assert_eq!(g.value(e).shape(), (3, 4));
        assert_eq!(g.value(e).row(0), g.value(e).row(1));
        let loss = g.sum_all(e);
        let grads = g.backward(loss);
        let collected = ps.collect_grads(&grads);
        assert_eq!(collected.len(), 1);
        let gt = &collected[0].1;
        // Row 3 used twice -> gradient 2, row 7 once -> 1, others 0.
        assert!(gt.row(3).iter().all(|&x| x == 2.0));
        assert!(gt.row(7).iter().all(|&x| x == 1.0));
        assert!(gt.row(0).iter().all(|&x| x == 0.0));
    }
}
