//! Parameter views on the training tape: [`ParamStore::var`] loads each
//! parameter into one value leaf per tape and gives every use a gradient
//! node of its own. These tests pin that the views compute exactly what a
//! copy per use ([`Graph::param`]) computes, that backward's one sum per
//! parameter equals the use-by-use gradients added in tape order, that the
//! load happens once per parameter per tape, and that no use reads a stale
//! or foreign value.

use std::cell::Cell;
use valuenet_nn::{ParamId, ParamStore};
use valuenet_tensor::{Activation, Graph, Tensor, Var};

fn ramp(rows: usize, cols: usize, k: f32) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|i| ((i as f32 + 1.0) * k).sin()).collect())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

struct Params {
    w: ParamId,
    b: ParamId,
    emb: ParamId,
}

fn store() -> (ParamStore, Params) {
    let mut ps = ParamStore::new();
    let w = ps.add("w", 0, ramp(4, 3, 0.37));
    let b = ps.add("b", 0, ramp(1, 3, 1.3));
    let emb = ps.add("emb", 1, ramp(5, 4, 0.71));
    (ps, Params { w, b, emb })
}

/// One forward pass that uses the weight three times (`matmul`,
/// `matmul_bias_act`, `matmul_transposed_b`), the bias twice and the
/// embedding table in two gathers. `param` registers one use of a
/// parameter. Returns every intermediate node and the scalar loss.
fn forward(
    g: &mut Graph,
    p: &Params,
    param: &mut dyn FnMut(&mut Graph, ParamId) -> Var,
) -> (Vec<Var>, Var) {
    let e1 = param(g, p.emb);
    let x = g.gather_rows(e1, &[0, 2, 2]);
    let w1 = param(g, p.w);
    let h1 = g.matmul(x, w1);
    let w2 = param(g, p.w);
    let b1 = param(g, p.b);
    let h2 = g.matmul_bias_act(x, w2, Some(b1), Activation::Tanh);
    let b2 = param(g, p.b);
    let h3 = g.add_broadcast_row(h1, b2);
    let s = g.mul(h2, h3);
    let w3 = param(g, p.w);
    let t = g.matmul_transposed_b(s, w3);
    let e2 = param(g, p.emb);
    let x2 = g.gather_rows(e2, &[1, 2, 4]);
    let u = g.mul(t, x2);
    let a = g.tanh(u);
    let loss = g.sum_all(a);
    (vec![e1, x, w1, h1, w2, b1, h2, b2, h3, s, w3, t, e2, x2, u, a, loss], loss)
}

#[test]
fn views_match_a_copy_per_use_bit_for_bit() {
    let (ps, p) = store();

    let mut gv = Graph::new();
    let (vars_v, loss_v) = forward(&mut gv, &p, &mut |g, id| ps.var(g, id));
    let grads_v = gv.backward(loss_v);

    let mut gc = Graph::new();
    let (vars_c, loss_c) = forward(&mut gc, &p, &mut |g, id| g.param(ps.get(id), id.index()));
    let grads_c = gc.backward(loss_c);

    for (i, (&v, &c)) in vars_v.iter().zip(&vars_c).enumerate() {
        assert_eq!(gv.value(v).shape(), gc.value(c).shape(), "node {i}: shape");
        assert_eq!(bits(gv.value(v)), bits(gc.value(c)), "node {i}: value");
    }
    for id in [p.w, p.b, p.emb] {
        let (v, c) = (grads_v.for_param(id.index()), grads_c.for_param(id.index()));
        assert_eq!(bits(v.unwrap()), bits(c.unwrap()), "for_param({})", ps.name(id));
    }
    let sums_v = ps.collect_grads(&grads_v);
    let sums_c = ps.collect_grads(&grads_c);
    assert_eq!(sums_v.len(), sums_c.len());
    for ((iv, tv), (ic, tc)) in sums_v.iter().zip(&sums_c) {
        assert_eq!((iv, bits(tv)), (ic, bits(tc)));
    }
}

/// The parameters of [`every_kind_of_use`], by index into its store.
const W: usize = 0;
const LW: usize = 1;
const LB: usize = 2;
const EMB: usize = 3;
const S: usize = 4;
const Z: usize = 5;
const UNREACHED: usize = 6;

fn kinds_store() -> ParamStore {
    let mut ps = ParamStore::new();
    for (name, rows, cols, k) in [
        ("w", 6, 5, 0.37),
        ("lw", 6, 5, 0.53),
        ("lb", 1, 5, 1.3),
        ("emb", 7, 16, 0.71),
        ("s", 1, 5, 0.9),
        ("z", 3, 5, 1.7),
        ("unreached", 5, 5, 0.2),
    ] {
        ps.add(name, 0, ramp(rows, cols, k));
    }
    ps
}

/// One forward pass over every kind of parameter use backward folds:
/// matmul weights at 1, 4, 5 and 9 rows per use, a `matmul_bias_act`
/// weight and bias, gathers that repeat an index inside one use, one use
/// feeding both operands of `mul`, a dense use that hands a table −0.0
/// before a gather of it, and a use that never reaches the loss. `param`
/// registers a use of parameter `p`. Returns the scalar loss.
fn every_kind_of_use(g: &mut Graph, param: &mut dyn FnMut(&mut Graph, usize) -> Var) -> Var {
    fn tanh_sum(g: &mut Graph, v: Var) -> Var {
        let t = g.tanh(v);
        g.sum_all(t)
    }
    let mut pieces = Vec::new();
    for (u, rows) in [1, 4, 5, 9].into_iter().enumerate() {
        let x = g.input(ramp(rows, 6, 0.3 + u as f32));
        let w = param(g, W);
        let h = g.matmul(x, w);
        pieces.push(tanh_sum(g, h));
    }
    for (rows, act) in [(3, Activation::Tanh), (1, Activation::Sigmoid)] {
        let x = g.input(ramp(rows, 6, 0.17 * rows as f32));
        let (w, b) = (param(g, LW), param(g, LB));
        let h = g.matmul_bias_act(x, w, Some(b), act);
        pieces.push(tanh_sum(g, h));
    }
    let e1 = param(g, EMB);
    let x1 = g.gather_rows(e1, &[2, 4, 2, 6]);
    pieces.push(tanh_sum(g, x1));
    let e2 = param(g, EMB);
    let x2 = g.gather_rows(e2, &[4, 0, 4, 4]);
    let c = g.input(ramp(4, 16, -0.4));
    let x2 = g.mul(x2, c);
    pieces.push(tanh_sum(g, x2));
    let s = param(g, S);
    let sq = g.mul(s, s);
    pieces.push(tanh_sum(g, sq));
    // Upstream 1.0 times −0.0 gives the table a −0.0 gradient everywhere;
    // the gather after it turns the rows it skips into +0.0, as adding a
    // zeroed scatter does.
    let z1 = param(g, Z);
    let neg_zero = g.input(Tensor::full(3, 5, -0.0));
    let zz = g.mul(z1, neg_zero);
    pieces.push(g.sum_all(zz));
    let z2 = param(g, Z);
    let z = g.gather_rows(z2, &[1]);
    pieces.push(tanh_sum(g, z));
    let unreached = param(g, UNREACHED);
    let _ = g.tanh(unreached);
    let mut loss = pieces[0];
    for &p in &pieces[1..] {
        loss = g.add(loss, p);
    }
    loss
}

#[test]
fn each_sum_is_its_uses_added_in_tape_order() {
    let ps = kinds_store();
    let ids: Vec<ParamId> = ps.ids().collect();
    let mut g = Graph::new();
    let loss = every_kind_of_use(&mut g, &mut |g, p| ps.var(g, ids[p]));
    let shared = g.backward(loss);

    // The same pass with every use under an id of its own.
    let mut owner = Vec::new();
    let mut gd = Graph::new();
    let loss = every_kind_of_use(&mut gd, &mut |g, p| {
        owner.push(p);
        g.param(ps.get(ids[p]), owner.len() - 1)
    });
    let distinct = gd.backward(loss);

    for (p, &id) in ids.iter().enumerate() {
        let mut want: Option<Tensor> = None;
        for (u, _) in owner.iter().enumerate().filter(|&(_, &q)| q == p) {
            if let Some(gu) = distinct.for_param(u) {
                match &mut want {
                    Some(acc) => acc.add_assign(gu),
                    None => want = Some(gu.clone()),
                }
            }
        }
        let got = shared.for_param(p);
        assert_eq!(got.is_some(), want.is_some(), "{}: gradient present", ps.name(id));
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(got.shape(), want.shape(), "{}: shape", ps.name(id));
            assert_eq!(bits(got), bits(&want), "{}: the sum of its uses", ps.name(id));
        }
    }
    assert!(shared.for_param(UNREACHED).is_none(), "a use that misses the loss gets no gradient");
    let z = shared.for_param(Z).unwrap();
    assert!(z.as_slice().iter().all(|x| x.to_bits() != (-0.0f32).to_bits()), "the gather cleared −0.0");

    let collected = ps.collect_grads(&shared);
    let got: Vec<usize> = collected.iter().map(|(id, _)| id.index()).collect();
    assert_eq!(got, [W, LW, LB, EMB, S, Z], "one gradient per reached parameter, in order");
    for (id, t) in &collected {
        assert_eq!(bits(t), bits(shared.for_param(id.index()).unwrap()));
    }
}

#[test]
fn each_parameter_loads_once_per_tape() {
    let loads = Cell::new(0);
    let mut g = Graph::new();
    let load = |g: &mut Graph, pid: usize| {
        g.param_view(pid, 1, || {
            loads.set(loads.get() + 1);
            Tensor::scalar(pid as f32)
        })
    };
    let uses = [load(&mut g, 0), load(&mut g, 1), load(&mut g, 0), load(&mut g, 0)];
    assert_eq!(loads.get(), 2, "one load per parameter");
    assert_eq!(g.len(), 2 + uses.len(), "one value leaf per parameter, one node per use");
    for (v, want) in uses.iter().zip([0.0, 1.0, 0.0, 0.0]) {
        assert_eq!(g.value(*v).scalar_value(), want);
    }
    g.reset();
    let v = load(&mut g, 0);
    assert_eq!(loads.get(), 3, "reset forgets the value leaves");
    assert_eq!(g.value(v).scalar_value(), 0.0);

    // The same holds through the store.
    let (ps, p) = store();
    let mut g = Graph::new();
    for _ in 0..3 {
        ps.var(&mut g, p.w);
    }
    assert_eq!(g.len(), 4);
}

#[test]
fn a_write_between_uses_is_seen_by_later_uses_only() {
    let (mut ps, p) = store();
    let old = ps.get(p.w);
    let mut g = Graph::new();
    let before = ps.var(&mut g, p.w);
    ps.update_in_place(p.w, |w| w[0] += 1.0);
    let updated = ps.get(p.w);
    let after = ps.var(&mut g, p.w);
    assert_eq!(bits(g.value(before)), bits(&old), "the earlier use keeps the old value");
    assert_eq!(bits(g.value(after)), bits(&updated), "the later use reads the new value");
    assert_ne!(bits(&old), bits(&updated));

    ps.set(p.w, &ramp(4, 3, 2.9));
    let after_set = ps.var(&mut g, p.w);
    assert_eq!(bits(g.value(after_set)), bits(&ramp(4, 3, 2.9)));
    assert_eq!(bits(g.value(after)), bits(&updated), "set leaves earlier uses alone");
    assert_eq!(bits(g.value(before)), bits(&old));
}

#[test]
fn two_stores_with_the_same_ids_each_read_their_own_values() {
    let (a, pa) = store();
    let mut b = ParamStore::default();
    let wb = b.add("w", 0, ramp(4, 3, -0.53));
    assert_eq!(wb, pa.w, "both stores hand out the same id");

    let mut g = Graph::new();
    let a1 = a.var(&mut g, pa.w);
    let b1 = b.var(&mut g, wb);
    let a2 = a.var(&mut g, pa.w);
    let b2 = b.var(&mut g, wb);
    for v in [a1, a2] {
        assert_eq!(bits(g.value(v)), bits(&a.get(pa.w)));
    }
    for v in [b1, b2] {
        assert_eq!(bits(g.value(v)), bits(&b.get(wb)));
    }
}
