//! Dense `f32` tensors and tape-based reverse-mode automatic differentiation.
//!
//! This crate is the numeric substrate of the ValueNet reproduction. The
//! original system relies on PyTorch; here we implement the minimal set of
//! differentiable operations the ValueNet architecture needs — matrix
//! multiplication, element-wise arithmetic, activations, softmax families,
//! embedding gather, concatenation/slicing, dropout and layer normalisation —
//! on top of a simple tape ([`Graph`]) that records the forward pass and
//! replays it in reverse to accumulate gradients.
//!
//! Tensors are two-dimensional, row-major matrices. Vectors are represented
//! as `1×n` or `n×1` matrices; scalars as `1×1`. This is sufficient for the
//! per-sample (batch size 1) training regime used by the model crate and
//! keeps shape semantics unambiguous.
//!
//! # Example
//!
//! ```
//! use valuenet_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
//! let w = g.param(Tensor::from_rows(&[&[0.5], &[-0.5]]), 0);
//! let y = g.matmul(x, w); // [1x2] @ [2x1] = [1x1]
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss);
//! let gw = grads.for_param(0).unwrap();
//! assert_eq!(gw.get(0, 0), 1.0);
//! assert_eq!(gw.get(1, 0), 2.0);
//! ```

//! # Allocation behaviour
//!
//! Tensor buffers are recycled through a thread-local size-bucketed pool
//! ([`pool`]); the hottest op compositions are recorded as fused
//! single-node ops ([`Graph::matmul_bias_act`], [`Graph::attn_softmax`],
//! [`Graph::log_softmax_nll`], [`Graph::lstm_gates`]). See `DESIGN.md`,
//! "Memory & kernel fusion".
//!
//! # Unsafe code
//!
//! This is the workspace's one crate with `unsafe` code: the AVX2
//! intrinsic kernels and the aligned panel buffer. Every unsafe operation
//! sits in its own `unsafe` block with a `// SAFETY:` comment, which the
//! lints below enforce.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod graph;
pub mod packed;
pub mod pool;
pub mod simd;
mod tensor;

pub use graph::{Activation, Gradients, Graph, Var};
pub use packed::PackedMatrix;
pub use simd::SimdLevel;
pub use tensor::Tensor;
