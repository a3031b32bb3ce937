//! Parameter views on the training tape: [`ParamStore::var`] loads each
//! parameter into one value leaf per tape, [`ParamStore::weight`] hands a
//! weight matrix over as a view of its packed `W` and `Wᵀ` panels, and
//! every use gets a gradient node of its own. These tests pin that both
//! kinds of view compute exactly what a copy per use ([`Graph::param`])
//! with the dense kernels computes, through the layers too, that backward's
//! one sum per parameter equals the use-by-use gradients added in tape
//! order, that the load happens once per parameter per tape, and that no
//! use reads a stale or foreign value or panel.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::Cell;
use valuenet_nn::{Linear, LstmCell, LstmState, ParamId, ParamStore};
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

/// How a pass registers parameter uses: `param` for a dense use, `weight`
/// for the right operand of `matmul` or `matmul_bias_act`.
struct Uses<'a> {
    param: &'a dyn Fn(&mut Graph, ParamId) -> Var,
    weight: &'a dyn Fn(&mut Graph, ParamId) -> Var,
}

/// One forward pass that uses the weight three times (`matmul`,
/// `matmul_bias_act`, `matmul_transposed_b`), the bias twice and the
/// embedding table in two gathers. Returns every intermediate node except
/// the weight operands of the two products, and the scalar loss.
fn forward(g: &mut Graph, p: &Params, uses: &Uses) -> (Vec<Var>, Var) {
    let param = uses.param;
    let e1 = param(g, p.emb);
    let x = g.gather_rows(e1, &[0, 2, 2]);
    let w1 = (uses.weight)(g, p.w);
    let h1 = g.matmul(x, w1);
    let w2 = (uses.weight)(g, p.w);
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
    (vec![e1, x, h1, b1, h2, b2, h3, s, w3, t, e2, x2, u, a, loss], loss)
}

/// A copy of the parameter's value for this use alone, through the dense
/// kernels: the reference every view is compared with.
fn copy(g: &mut Graph, ps: &ParamStore, id: ParamId) -> Var {
    g.param(ps.get(id), id.index())
}

/// The parameter registered as `name`.
fn id_of(ps: &ParamStore, name: &str) -> ParamId {
    ps.ids().find(|&id| ps.name(id) == name).unwrap_or_else(|| panic!("no parameter {name}"))
}

/// Every `Linear` and `LstmCell` the layer cases run, with the embedding
/// table their inputs are gathered from, so `dz·Wᵀ` reaches a parameter.
struct Layers {
    ps: ParamStore,
    emb: ParamId,
    /// `in_dim → out_dim`, with and without bias.
    linears: Vec<(Linear, &'static str)>,
    cell: LstmCell,
}

const VOCAB: usize = 11;

fn layers(in_dim: usize, out_dim: usize, hidden: usize) -> Layers {
    let mut ps = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64((in_dim * 1000 + out_dim) as u64);
    let emb = ps.add("emb", 0, ramp(VOCAB, in_dim, 0.29));
    let linears = vec![
        (Linear::new(&mut ps, &mut rng, "biased", 1, in_dim, out_dim), "biased"),
        (Linear::with_bias(&mut ps, &mut rng, "plain", 1, in_dim, out_dim, false), "plain"),
    ];
    // Move the bias off zero so it shows in the output.
    let b = id_of(&ps, "biased.b");
    ps.update_in_place(b, |b| b.iter_mut().enumerate().for_each(|(j, v)| *v = (j as f32 * 0.61).sin()));
    let cell = LstmCell::new(&mut ps, &mut rng, "cell", 2, in_dim, hidden);
    Layers { ps, emb, linears, cell }
}

/// The reference of [`LstmCell::step`]: the same ops on parameter copies.
fn step_with_copies(g: &mut Graph, ps: &ParamStore, x: Var, state: LstmState) -> LstmState {
    let wx = copy(g, ps, id_of(ps, "cell.wx"));
    let wh = copy(g, ps, id_of(ps, "cell.wh"));
    let b = copy(g, ps, id_of(ps, "cell.b"));
    let zx = g.matmul(x, wx);
    let zh = g.matmul(state.h, wh);
    let z0 = g.add(zx, zh);
    let z = g.add_broadcast_row(z0, b);
    let (h, c) = g.lstm_gates(z, state.c);
    LstmState { h, c }
}

/// One layer case: `rows` input rows gathered from the table, then the
/// linear layer `lin` at `act` (or, with `lin == None`, two LSTM steps),
/// run through the layers on the store's views or, with `copies`, through
/// the same ops on parameter copies. Returns the layer's outputs and the
/// scalar loss.
fn layer_pass(
    g: &mut Graph,
    l: &Layers,
    lin: Option<(&Linear, &str, Activation)>,
    rows: usize,
    copies: bool,
) -> (Vec<Var>, Var) {
    let ps = &l.ps;
    let ids: Vec<usize> = (0..rows).map(|r| (r * 4 + 1) % VOCAB).collect();
    let emb = if copies { copy(g, ps, l.emb) } else { ps.var(g, l.emb) };
    let x = g.gather_rows(emb, &ids);
    let outs = match lin {
        Some((lin, name, act)) => {
            let y = if copies {
                let w = copy(g, ps, id_of(ps, &format!("{name}.w")));
                let b = ps.ids().find(|&id| ps.name(id) == format!("{name}.b")).map(|b| copy(g, ps, b));
                g.matmul_bias_act(x, w, b, act)
            } else {
                lin.forward_act(g, ps, x, act)
            };
            vec![y]
        }
        None => {
            let x2 = g.scale(x, -0.5);
            let mut state = l.cell.zero_state_n(g, rows);
            for x in [x, x2] {
                state = if copies {
                    step_with_copies(g, ps, x, state)
                } else {
                    l.cell.step(g, ps, x, state)
                };
            }
            vec![state.h, state.c]
        }
    };
    let mut loss = None;
    for &o in &outs {
        let t = g.tanh(o);
        let s = g.sum_all(t);
        loss = Some(loss.map_or(s, |l| g.add(l, s)));
    }
    (outs, loss.unwrap())
}

/// Runs the view pass and the copy pass of one layer case and checks
/// that their outputs and every parameter's gradient agree bit for bit,
/// and that an inference tape gives the training tape's outputs.
fn check_layer_case(l: &Layers, lin: Option<(&Linear, &str, Activation)>, rows: usize, what: &str) {
    let mut gv = Graph::new();
    let (outs_v, loss_v) = layer_pass(&mut gv, l, lin, rows, false);
    let grads_v = gv.backward(loss_v);
    let mut gc = Graph::new();
    let (outs_c, loss_c) = layer_pass(&mut gc, l, lin, rows, true);
    let grads_c = gc.backward(loss_c);
    for (&v, &c) in outs_v.iter().zip(&outs_c) {
        assert_eq!(bits(gv.value(v)), bits(gc.value(c)), "{what}: output");
    }
    let reached: Vec<usize> = grads_c.param_grads().map(|(id, _)| id).collect();
    assert_eq!(grads_v.param_grads().map(|(id, _)| id).collect::<Vec<_>>(), reached, "{what}");
    for id in reached {
        let (v, c) = (grads_v.for_param(id).unwrap(), grads_c.for_param(id).unwrap());
        assert_eq!(bits(v), bits(c), "{what}: gradient of parameter {id}");
    }

    let mut gi = Graph::new();
    gi.set_inference(true);
    let (outs_i, loss_i) = layer_pass(&mut gi, l, lin, rows, false);
    for (&i, &v) in outs_i.iter().zip(&outs_v) {
        assert_eq!(bits(gi.value(i)), bits(gv.value(v)), "{what}: inference output");
    }
    let none = gi.backward(loss_i);
    assert!(none.param_grads().next().is_none(), "{what}: an inference tape records no gradient nodes");
}

#[test]
fn views_match_a_copy_per_use_bit_for_bit() {
    let (ps, p) = store();
    let dense_views = Uses { param: &|g, id| ps.var(g, id), weight: &|g, id| ps.var(g, id) };
    let packed_weights = Uses { param: &|g, id| ps.var(g, id), weight: &|g, id| ps.weight(g, id) };
    let copies = Uses { param: &|g, id| copy(g, &ps, id), weight: &|g, id| copy(g, &ps, id) };

    let mut gc = Graph::new();
    let (vars_c, loss_c) = forward(&mut gc, &p, &copies);
    let grads_c = gc.backward(loss_c);
    for (arm, uses) in [("dense views", &dense_views), ("packed weights", &packed_weights)] {
        let mut gv = Graph::new();
        let (vars_v, loss_v) = forward(&mut gv, &p, uses);
        let grads_v = gv.backward(loss_v);
        for (i, (&v, &c)) in vars_v.iter().zip(&vars_c).enumerate() {
            assert_eq!(gv.value(v).shape(), gc.value(c).shape(), "{arm}: node {i}: shape");
            assert_eq!(bits(gv.value(v)), bits(gc.value(c)), "{arm}: node {i}: value");
        }
        for id in [p.w, p.b, p.emb] {
            let (v, c) = (grads_v.for_param(id.index()), grads_c.for_param(id.index()));
            assert_eq!(bits(v.unwrap()), bits(c.unwrap()), "{arm}: for_param({})", ps.name(id));
        }
        let sums_v = ps.collect_grads(&grads_v);
        let sums_c = ps.collect_grads(&grads_c);
        assert_eq!(sums_v.len(), sums_c.len());
        for ((iv, tv), (ic, tc)) in sums_v.iter().zip(&sums_c) {
            assert_eq!((iv, bits(tv)), (ic, bits(tc)), "{arm}");
        }
    }

    // The layers on packed weights against the same ops on copies: every
    // activation with and without bias, and LSTM steps, at 1–5 and 9 rows
    // (every register-tile shape and remainder) and at widths 46 and 112
    // on both sides of each product.
    for (in_dim, out_dim) in [(46, 112), (112, 46)] {
        let l = layers(in_dim, out_dim, 28);
        for rows in [1, 2, 3, 4, 5, 9] {
            for (lin, name) in &l.linears {
                for act in [Activation::None, Activation::Tanh, Activation::Sigmoid, Activation::Relu] {
                    let what = format!("{name} {in_dim}->{out_dim} {act:?} at {rows} rows");
                    check_layer_case(&l, Some((lin, name, act)), rows, &what);
                }
            }
            check_layer_case(&l, None, rows, &format!("LSTM {in_dim}->28 at {rows} rows"));
        }
    }
}

#[test]
fn a_write_between_tapes_is_read_by_the_later_tape_only() {
    let mut l = layers(46, 112, 28);
    let name = l.linears[0].1;
    let w = id_of(&l.ps, &format!("{name}.w"));
    let case = |l: &Layers, copies: bool, g: &mut Graph| {
        layer_pass(g, l, Some((&l.linears[0].0, name, Activation::Tanh)), 3, copies)
    };

    // The earlier tape, and its reference against the old weights.
    let mut before = Graph::new();
    let (outs_b, loss_b) = case(&l, false, &mut before);
    let mut before_ref = Graph::new();
    let (_, loss_br) = case(&l, true, &mut before_ref);
    let want_before = before_ref.backward(loss_br);

    // Both panel sets exist now; a write repacks them.
    l.ps.update_in_place(w, |d| d.iter_mut().for_each(|v| *v = 0.75 - *v));
    let mut after = Graph::new();
    let (outs_a, loss_a) = case(&l, false, &mut after);
    let mut after_ref = Graph::new();
    let (outs_ar, loss_ar) = case(&l, true, &mut after_ref);
    assert_eq!(bits(after.value(outs_a[0])), bits(after_ref.value(outs_ar[0])), "the later tape reads the new W panels");
    assert_ne!(bits(after.value(outs_a[0])), bits(before.value(outs_b[0])));
    let (got, want) = (after.backward(loss_a), after_ref.backward(loss_ar));
    for (id, t) in want.param_grads() {
        assert_eq!(bits(got.for_param(id).unwrap()), bits(t), "the later tape reads the new Wᵀ panels ({id})");
    }

    // The earlier tape's backward still runs on the panels it was given.
    let got = before.backward(loss_b);
    for (id, t) in want_before.param_grads() {
        assert_eq!(bits(got.for_param(id).unwrap()), bits(t), "the earlier tape keeps its panels ({id})");
    }
    assert!(want_before.for_param(l.emb.index()).is_some(), "the table's gradient comes through dz·Wᵀ");
}

/// The parameters of [`every_kind_of_use`], by index into its store.
const W: usize = 0;
const LW: usize = 1;
const LB: usize = 2;
const EMB: usize = 3;
const S: usize = 4;
const Z: usize = 5;
const UNREACHED: usize = 6;
const XS: usize = 7;
const W46: usize = 8;
const W112: usize = 9;
/// The parameters [`every_kind_of_use`] multiplies by as weights.
const WEIGHTS: [usize; 4] = [W, LW, W46, W112];

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
        ("xs", 9, 46, 0.43),
        ("w46", 46, 112, 0.11),
        ("w112", 112, 46, 0.13),
    ] {
        ps.add(name, 0, ramp(rows, cols, k));
    }
    ps
}

/// One forward pass over every kind of parameter use backward folds:
/// matmul weights at 1–5 and 9 rows per use, a `matmul_bias_act` weight
/// and bias, two chained weights of widths 46 and 112 whose input
/// gradients `dz·Wᵀ` reach a table, gathers that repeat an index inside
/// one use, one use feeding both operands of `mul`, a dense use that hands
/// a table −0.0 before a gather of it, and a use that never reaches the
/// loss. `param` registers a use of parameter `p`; the [`WEIGHTS`] are
/// only ever the weight operand of a product. Returns the scalar loss.
fn every_kind_of_use(g: &mut Graph, param: &mut dyn FnMut(&mut Graph, usize) -> Var) -> Var {
    fn tanh_sum(g: &mut Graph, v: Var) -> Var {
        let t = g.tanh(v);
        g.sum_all(t)
    }
    let mut pieces = Vec::new();
    for (u, rows) in [1, 2, 3, 4, 5, 9].into_iter().enumerate() {
        let x = g.input(ramp(rows, 6, 0.3 + u as f32));
        let w = param(g, W);
        let h = g.matmul(x, w);
        pieces.push(tanh_sum(g, h));
        // 46 → 112 → 46, the second product fused with an activation.
        let xs = param(g, XS);
        let ids: Vec<usize> = (0..rows).map(|r| (r * 5 + u) % 9).collect();
        let x = g.gather_rows(xs, &ids);
        let w46 = param(g, W46);
        let h = g.matmul(x, w46);
        let h = g.tanh(h);
        let w112 = param(g, W112);
        let h = g.matmul_bias_act(h, w112, None, Activation::Sigmoid);
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

/// Checks every parameter's one sum against the same pass with every use
/// under an id of its own, a copy through the dense kernels, the sums
/// built use by use and added in tape order: with the weights on their
/// packed panels, and with them as dense views ([`Graph::set_dense_weights`]).
#[test]
fn each_sum_is_its_uses_added_in_tape_order() {
    let ps = kinds_store();
    let ids: Vec<ParamId> = ps.ids().collect();
    let mut owner = Vec::new();
    let mut gd = Graph::new();
    let loss = every_kind_of_use(&mut gd, &mut |g, p| {
        owner.push(p);
        g.param(ps.get(ids[p]), owner.len() - 1)
    });
    let distinct = gd.backward(loss);
    for dense in [false, true] {
        let mut g = Graph::new();
        g.set_dense_weights(dense);
        let loss = every_kind_of_use(&mut g, &mut |g, p| {
            if WEIGHTS.contains(&p) {
                ps.weight(g, ids[p])
            } else {
                ps.var(g, ids[p])
            }
        });
        let shared = g.backward(loss);
        check_sums(&ps, &ids, &owner, &distinct, &shared, if dense { "dense" } else { "packed" });
    }
}

/// `shared` holds, for each parameter, the sum of its uses in `distinct`
/// (use `u` registered under id `u`, of parameter `owner[u]`).
fn check_sums(
    ps: &ParamStore,
    ids: &[ParamId],
    owner: &[usize],
    distinct: &valuenet_tensor::Gradients,
    shared: &valuenet_tensor::Gradients,
    arm: &str,
) {
    let name = |id: ParamId| format!("{arm}: {}", ps.name(id));
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
        assert_eq!(got.is_some(), want.is_some(), "{}: gradient present", name(id));
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(got.shape(), want.shape(), "{}: shape", name(id));
            assert_eq!(bits(got), bits(&want), "{}: the sum of its uses", name(id));
        }
    }
    assert!(shared.for_param(UNREACHED).is_none(), "a use that misses the loss gets no gradient");
    let z = shared.for_param(Z).unwrap();
    assert!(z.as_slice().iter().all(|x| x.to_bits() != (-0.0f32).to_bits()), "the gather cleared −0.0");

    let collected = ps.collect_grads(shared);
    let got: Vec<usize> = collected.iter().map(|(id, _)| id.index()).collect();
    assert_eq!(got, [W, LW, LB, EMB, S, Z, XS, W46, W112], "one gradient per reached parameter, in order");
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
