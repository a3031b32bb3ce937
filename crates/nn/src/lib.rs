//! Neural-network layers and optimisation on top of [`valuenet_tensor`].
//!
//! This crate supplies the building blocks of the ValueNet architecture
//! (paper Section III-B): embeddings, linear projections, uni- and
//! bi-directional LSTMs (used to summarise multi-token columns, tables and
//! value candidates), multi-head self-attention blocks (the from-scratch
//! substitute for the pretrained BERT encoder), layer normalisation, dropout,
//! and an Adam optimiser with per-group learning rates — the paper trains the
//! encoder, the decoder and the connection parameters with three different
//! rates.
//!
//! All layers follow the same convention: parameters live in a [`ParamStore`]
//! and `forward` takes the autodiff [`Graph`](valuenet_tensor::Graph) plus
//! the store, returning a [`Var`](valuenet_tensor::Var).
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use valuenet_nn::{Adam, AdamConfig, Linear, ParamStore};
//! use valuenet_tensor::{Graph, Tensor};
//!
//! // Fit y = 3x with a single linear layer.
//! let mut ps = ParamStore::new();
//! let mut rng = SmallRng::seed_from_u64(0);
//! let layer = Linear::new(&mut ps, &mut rng, "l", 0, 1, 1);
//! let mut opt = Adam::new(&ps, AdamConfig { group_lrs: vec![0.1], ..Default::default() });
//! for _ in 0..400 {
//!     let mut g = Graph::new();
//!     let x = g.input(Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
//!     let t = g.input(Tensor::from_vec(3, 1, vec![3.0, 6.0, 9.0]));
//!     let y = layer.forward(&mut g, &ps, x);
//!     let d = g.sub(y, t);
//!     let sq = g.mul(d, d);
//!     let loss = g.mean_all(sq);
//!     let grads = g.backward(loss);
//!     opt.step(&mut ps, &grads);
//! }
//! let mut g = Graph::new();
//! let x = g.input(Tensor::scalar(2.0));
//! let y = layer.forward(&mut g, &ps, x);
//! assert!((g.value(y).scalar_value() - 6.0).abs() < 0.3);
//! ```

mod adam;
mod attention;
pub mod checkpoint;
mod init;
mod linear;
mod lstm;
mod store;

pub use adam::{Adam, AdamConfig};
pub use attention::{padding_mask, FeedForward, LayerNorm, MultiHeadAttention, TransformerBlock};
pub use checkpoint::{
    load_checkpoint, save_checkpoint, save_checkpoint_quantized, CheckpointError,
    CheckpointFormat, CHECKPOINT_VERSION,
};
pub use init::Initializer;
pub use linear::{Embedding, Linear};
pub use lstm::{BiLstm, Lstm, LstmCell, LstmState};
pub use store::{PackedParam, ParamId, ParamStore};

/// Samples an inverted-dropout mask of `len` entries with drop probability
/// `p`: each entry is `0.0` with probability `p`, otherwise `1/(1-p)`.
pub fn dropout_mask(rng: &mut impl rand::Rng, len: usize, p: f32) -> Vec<f32> {
    assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
    let keep = 1.0 - p;
    (0..len).map(|_| if rng.gen::<f32>() < p { 0.0 } else { 1.0 / keep }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dropout_mask_is_inverted_and_unbiased() {
        let mut rng = SmallRng::seed_from_u64(9);
        let p = 0.3;
        let mask = dropout_mask(&mut rng, 20_000, p);
        let keep_scale = 1.0 / (1.0 - p);
        assert!(mask.iter().all(|&m| m == 0.0 || (m - keep_scale).abs() < 1e-6));
        // Mean of the mask ≈ 1 (inverted dropout preserves expectation).
        let mean: f32 = mask.iter().sum::<f32>() / mask.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mask mean {mean}");
        // Drop rate ≈ p.
        let dropped = mask.iter().filter(|&&m| m == 0.0).count() as f32 / mask.len() as f32;
        assert!((dropped - p).abs() < 0.02, "drop rate {dropped}");
    }

    #[test]
    fn dropout_mask_zero_probability_is_identity() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mask = dropout_mask(&mut rng, 100, 0.0);
        assert!(mask.iter().all(|&m| m == 1.0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn dropout_mask_rejects_p_one() {
        let mut rng = SmallRng::seed_from_u64(9);
        dropout_mask(&mut rng, 10, 1.0);
    }
}
