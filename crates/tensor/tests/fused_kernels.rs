//! Proptest oracles for the fused kernels: each fused node must agree
//! **bit-for-bit** with the explicitly composed unfused chain it replaces —
//! forward values, loss, and parameter gradients. That includes the ReLU
//! activation, whose kink excludes it from the central-difference checks in
//! `graph.rs`: exact equivalence against the unfused `relu` node needs no
//! smoothness.
//!
//! The comparisons compose the unfused ops explicitly rather than flipping
//! the process-global fusion flag, which would race against other test
//! threads.

use proptest::prelude::*;
use valuenet_tensor::{Activation, Graph, Tensor, Var};

const DIM: std::ops::Range<usize> = 1..12;

/// Deterministic pseudo-random tensor (SplitMix64 stream) so shape and seed
/// fully determine contents.
fn pseudo_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u64 << 23) as f32 * 8.0 - 4.0
    };
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

/// Scalar loss that weights every output element differently, so backward
/// sees a non-uniform upstream gradient (a plain `sum_all` would feed the
/// softmax backward an all-ones gradient, which it annihilates).
fn weighted_loss(g: &mut Graph, y: Var, seed: u64) -> Var {
    let (r, c) = g.value(y).shape();
    let wt = g.input(pseudo_tensor(r, c, seed));
    let p = g.mul(y, wt);
    g.sum_all(p)
}

fn assert_bits_eq(fused: &Tensor, unfused: &Tensor, what: &str) {
    assert_eq!(fused.shape(), unfused.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in fused.as_slice().iter().zip(unfused.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs bitwise ({x} vs {y})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matmul_bias_act` ≡ matmul → add_broadcast_row → activation, for all
    /// four activations, with and without bias, values and gradients.
    #[test]
    fn fused_matmul_bias_act_matches_unfused(
        (n, k, m) in (DIM, DIM, DIM),
        act_idx in 0usize..4,
        with_bias in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let act =
            [Activation::None, Activation::Tanh, Activation::Sigmoid, Activation::Relu][act_idx];
        let ta = pseudo_tensor(n, k, seed);
        let tw = pseudo_tensor(k, m, seed ^ 0x55);
        let tb = pseudo_tensor(1, m, seed ^ 0xAA);

        let mut g = Graph::new();
        let a = g.param(ta.clone(), 0);
        let w = g.param(tw.clone(), 1);
        let b = if with_bias { Some(g.param(tb.clone(), 2)) } else { None };
        let y = g.matmul_bias_act(a, w, b, act);
        let y_fused = g.value(y).clone();
        let loss = weighted_loss(&mut g, y, seed ^ 0xF00D);
        let loss_fused = g.value(loss).scalar_value();
        let grads_fused = g.backward(loss);

        let mut g = Graph::new();
        let a = g.param(ta, 0);
        let w = g.param(tw, 1);
        let mut y = g.matmul(a, w);
        if with_bias {
            let b = g.param(tb, 2);
            y = g.add_broadcast_row(y, b);
        }
        let y = match act {
            Activation::None => y,
            Activation::Tanh => g.tanh(y),
            Activation::Sigmoid => g.sigmoid(y),
            Activation::Relu => g.relu(y),
        };
        assert_bits_eq(&y_fused, g.value(y), "forward");
        let loss = weighted_loss(&mut g, y, seed ^ 0xF00D);
        prop_assert_eq!(loss_fused.to_bits(), g.value(loss).scalar_value().to_bits());
        let grads = g.backward(loss);
        assert_bits_eq(grads_fused.for_param(0).unwrap(), grads.for_param(0).unwrap(), "d_input");
        assert_bits_eq(grads_fused.for_param(1).unwrap(), grads.for_param(1).unwrap(), "d_weight");
        if with_bias {
            assert_bits_eq(
                grads_fused.for_param(2).unwrap(),
                grads.for_param(2).unwrap(),
                "d_bias",
            );
        }
    }

    /// `attn_softmax` ≡ transpose → matmul → scale → (+ mask) → softmax_rows,
    /// values and gradients for both query and keys, with and without a
    /// 0/−1e9 grammar-style mask.
    #[test]
    fn fused_attn_softmax_matches_unfused(
        (n, m, d) in (DIM, DIM, DIM),
        with_mask in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let tq = pseudo_tensor(n, d, seed);
        let tk = pseudo_tensor(m, d, seed ^ 0x77);
        // A 0/−1e9 pattern like the decoder's grammar masks, with at least
        // one open slot per row so every softmax stays finite.
        let mut tm = Tensor::zeros(n, m);
        for r in 0..n {
            for c in 0..m {
                if c != r % m && (seed >> ((r * 7 + c * 3) % 31)) & 1 == 0 {
                    tm.set(r, c, -1e9);
                }
            }
        }
        let scale = 1.0 / (d as f32).sqrt();

        let mut g = Graph::new();
        let q = g.param(tq.clone(), 0);
        let k = g.param(tk.clone(), 1);
        let mask = if with_mask { Some(g.input(tm.clone())) } else { None };
        let y = g.attn_softmax(q, k, scale, mask);
        let y_fused = g.value(y).clone();
        let loss = weighted_loss(&mut g, y, seed ^ 0xBEEF);
        let loss_fused = g.value(loss).scalar_value();
        let grads_fused = g.backward(loss);

        let mut g = Graph::new();
        let q = g.param(tq, 0);
        let k = g.param(tk, 1);
        let kt = g.transpose(k);
        let raw = g.matmul(q, kt);
        let mut s = g.scale(raw, scale);
        if with_mask {
            let mv = g.input(tm);
            s = g.add(s, mv);
        }
        let y = g.softmax_rows(s);
        assert_bits_eq(&y_fused, g.value(y), "forward");
        let loss = weighted_loss(&mut g, y, seed ^ 0xBEEF);
        prop_assert_eq!(loss_fused.to_bits(), g.value(loss).scalar_value().to_bits());
        let grads = g.backward(loss);
        assert_bits_eq(grads_fused.for_param(0).unwrap(), grads.for_param(0).unwrap(), "d_query");
        assert_bits_eq(grads_fused.for_param(1).unwrap(), grads.for_param(1).unwrap(), "d_keys");
    }

    /// `matmul_transposed_b` ≡ transpose → matmul: forward, loss, and both
    /// operand gradients bitwise.
    #[test]
    fn matmul_transposed_b_matches_transpose_matmul(
        (n, k, m) in (DIM, DIM, DIM),
        seed in 0u64..1000,
    ) {
        let ta = pseudo_tensor(n, k, seed);
        let tb = pseudo_tensor(m, k, seed ^ 0x66);

        let mut g = Graph::new();
        let a = g.param(ta.clone(), 0);
        let b = g.param(tb.clone(), 1);
        let y = g.matmul_transposed_b(a, b);
        let y_fused = g.value(y).clone();
        let loss = weighted_loss(&mut g, y, seed ^ 0xD00D);
        let loss_fused = g.value(loss).scalar_value();
        let grads_fused = g.backward(loss);

        let mut g = Graph::new();
        let a = g.param(ta, 0);
        let b = g.param(tb, 1);
        let bt = g.transpose(b);
        let y = g.matmul(a, bt);
        assert_bits_eq(&y_fused, g.value(y), "forward");
        let loss = weighted_loss(&mut g, y, seed ^ 0xD00D);
        prop_assert_eq!(loss_fused.to_bits(), g.value(loss).scalar_value().to_bits());
        let grads = g.backward(loss);
        assert_bits_eq(grads_fused.for_param(0).unwrap(), grads.for_param(0).unwrap(), "d_a");
        assert_bits_eq(grads_fused.for_param(1).unwrap(), grads.for_param(1).unwrap(), "d_b");
    }

    /// `lstm_gates` ≡ the thirteen-node slice/sigmoid/tanh/mul/add chain:
    /// both outputs (h and c), the loss, and the gradients of both the gate
    /// pre-activations and the previous cell state, all bitwise. Both
    /// outputs feed the loss so backward exercises the c-gradient
    /// accumulation across the two fused nodes.
    #[test]
    fn fused_lstm_gates_match_unfused(
        (b, h) in (DIM, DIM),
        seed in 0u64..1000,
    ) {
        let tz = pseudo_tensor(b, 4 * h, seed);
        let tc = pseudo_tensor(b, h, seed ^ 0x33);

        let mut g = Graph::new();
        let z = g.param(tz.clone(), 0);
        let c_prev = g.param(tc.clone(), 1);
        let (h_out, c) = g.lstm_gates(z, c_prev);
        let h_fused = g.value(h_out).clone();
        let c_fused = g.value(c).clone();
        let lh = weighted_loss(&mut g, h_out, seed ^ 0x1CE);
        let lc = weighted_loss(&mut g, c, seed ^ 0x2CE);
        let loss = g.add(lh, lc);
        let loss_fused = g.value(loss).scalar_value();
        let grads_fused = g.backward(loss);

        let mut g = Graph::new();
        let z = g.param(tz, 0);
        let c_prev = g.param(tc, 1);
        let i_g = g.slice_cols(z, 0, h);
        let f_g = g.slice_cols(z, h, 2 * h);
        let g_g = g.slice_cols(z, 2 * h, 3 * h);
        let o_g = g.slice_cols(z, 3 * h, 4 * h);
        let i = g.sigmoid(i_g);
        let f = g.sigmoid(f_g);
        let cand = g.tanh(g_g);
        let o = g.sigmoid(o_g);
        let fc = g.mul(f, c_prev);
        let ic = g.mul(i, cand);
        let c = g.add(fc, ic);
        let tc_ = g.tanh(c);
        let h_out = g.mul(o, tc_);
        assert_bits_eq(&h_fused, g.value(h_out), "forward h");
        assert_bits_eq(&c_fused, g.value(c), "forward c");
        let lh = weighted_loss(&mut g, h_out, seed ^ 0x1CE);
        let lc = weighted_loss(&mut g, c, seed ^ 0x2CE);
        let loss = g.add(lh, lc);
        prop_assert_eq!(loss_fused.to_bits(), g.value(loss).scalar_value().to_bits());
        let grads = g.backward(loss);
        assert_bits_eq(grads_fused.for_param(0).unwrap(), grads.for_param(0).unwrap(), "d_z");
        assert_bits_eq(grads_fused.for_param(1).unwrap(), grads.for_param(1).unwrap(), "d_c_prev");
    }

    /// `log_softmax_nll` ≡ log_softmax_rows → nll_loss, loss value and input
    /// gradient, over random shapes and per-row targets.
    #[test]
    fn fused_log_softmax_nll_matches_unfused(
        (n, m) in (DIM, DIM),
        seed in 0u64..1000,
    ) {
        let tx = pseudo_tensor(n, m, seed);
        let targets: Vec<usize> = (0..n).map(|r| (seed as usize + 13 * r) % m).collect();

        let mut g = Graph::new();
        let x = g.param(tx.clone(), 0);
        let loss = g.log_softmax_nll(x, &targets);
        let loss_fused = g.value(loss).scalar_value();
        let grads_fused = g.backward(loss);

        let mut g = Graph::new();
        let x = g.param(tx, 0);
        let lp = g.log_softmax_rows(x);
        let loss = g.nll_loss(lp, &targets);
        prop_assert_eq!(loss_fused.to_bits(), g.value(loss).scalar_value().to_bits());
        let grads = g.backward(loss);
        assert_bits_eq(grads_fused.for_param(0).unwrap(), grads.for_param(0).unwrap(), "d_x");
    }
}
