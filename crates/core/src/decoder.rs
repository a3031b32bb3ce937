//! The grammar-constrained LSTM decoder with pointer networks
//! (paper Section III-B2).

use crate::encoder::{Encodings, GROUP_CONNECT, GROUP_DECODER};
use crate::model::ModelConfig;
use rand::rngs::SmallRng;
use valuenet_nn::{Embedding, Linear, LstmCell, LstmState, ParamStore};
use valuenet_semql::{Action, NonTerminal, TransitionSystem, SKETCH_VOCAB};
use valuenet_tensor::{Graph, Tensor, Var};

// Beam-search statistics (see DESIGN.md, "Observability"): per-step fan-out,
// pruning pressure, and the distribution of pointer choices the decoder
// commits to.
static BEAM_STEPS: valuenet_obs::Counter = valuenet_obs::Counter::new("beam.steps");
static BEAM_EXPANDED: valuenet_obs::Counter = valuenet_obs::Counter::new("beam.expanded");
static BEAM_PRUNED: valuenet_obs::Counter = valuenet_obs::Counter::new("beam.pruned");
static BEAM_COMPLETED: valuenet_obs::Counter = valuenet_obs::Counter::new("beam.completed");
static BEAM_DEAD_ENDS: valuenet_obs::Counter = valuenet_obs::Counter::new("beam.dead_ends");
static BEAM_CANDIDATES: valuenet_obs::Histogram =
    valuenet_obs::Histogram::new("beam.candidates_per_step");
static CHOICE_SKETCH: valuenet_obs::Counter = valuenet_obs::Counter::new("decode.choice.sketch");
static CHOICE_COLUMN: valuenet_obs::Counter = valuenet_obs::Counter::new("decode.choice.column");
static CHOICE_TABLE: valuenet_obs::Counter = valuenet_obs::Counter::new("decode.choice.table");
static CHOICE_VALUE: valuenet_obs::Counter = valuenet_obs::Counter::new("decode.choice.value");

/// Scored expansions for each live beam of one request: `None` until the
/// beam's pointer head (or sketch scorer) has filled its slot this step.
type BeamChoices = Vec<Option<Vec<(Action, f32)>>>;

/// One live beam hypothesis (shared by the batched and unbatched search).
struct BeamHyp {
    ts: TransitionSystem,
    state: LstmState,
    prev_emb: Var,
    prev_ctx: Var,
    actions: Vec<Action>,
    score: f32,
}

/// Ranks completed hypotheses by *length-normalised* score (mean
/// log-probability per action). Raw sums shrink monotonically with
/// derivation length, so ranking on them systematically prefers short
/// hypotheses — long correct derivations lose to short wrong ones, and beam
/// search can score below greedy decoding.
fn rank_completed(
    mut completed: Vec<(Vec<Action>, f32)>,
    beam_width: usize,
) -> Vec<(Vec<Action>, f32)> {
    let norm = |(actions, score): &(Vec<Action>, f32)| score / actions.len().max(1) as f32;
    completed.sort_by(|a, b| norm(b).partial_cmp(&norm(a)).unwrap_or(std::cmp::Ordering::Equal));
    completed.truncate(beam_width);
    completed
}

/// Tallies one committed action into the pointer-choice distribution.
fn count_choice(a: &Action) {
    match a {
        Action::C(_) => CHOICE_COLUMN.add(1),
        Action::T(_) => CHOICE_TABLE.add(1),
        Action::V(_) => CHOICE_VALUE.add(1),
        _ => CHOICE_SKETCH.add(1),
    }
}

/// The decoder: an LSTM over action embeddings with attention over the
/// question encodings, a sketch-action head, and one pointer network each
/// for columns, tables and value candidates.
pub struct Decoder {
    /// Sketch-action embeddings; index 0 is the start-of-derivation token.
    action_emb: Embedding,
    /// Projects a pointed item's encoding into action-embedding space (so
    /// pointer selections feed back into the LSTM like sketch actions).
    item_in: Linear,
    cell: LstmCell,
    init_h: Linear,
    attn_q: Linear,
    sketch_head: Linear,
    ptr_col: Linear,
    ptr_tab: Linear,
    ptr_val: Linear,
    d: usize,
}

impl Decoder {
    /// Builds the decoder's parameters.
    pub fn new(ps: &mut ParamStore, rng: &mut SmallRng, cfg: &ModelConfig) -> Self {
        let d = cfg.d_model;
        let adim = cfg.action_dim;
        let hidden = cfg.decoder_hidden;
        Decoder {
            action_emb: Embedding::new(
                ps,
                rng,
                "dec.action",
                GROUP_DECODER,
                SKETCH_VOCAB + 1,
                adim,
            ),
            item_in: Linear::new(ps, rng, "dec.item_in", GROUP_CONNECT, d, adim),
            cell: LstmCell::new(ps, rng, "dec.cell", GROUP_DECODER, adim + d, hidden),
            init_h: Linear::new(ps, rng, "dec.init_h", GROUP_CONNECT, d, hidden),
            attn_q: Linear::new(ps, rng, "dec.attn_q", GROUP_DECODER, hidden, d),
            sketch_head: Linear::new(
                ps,
                rng,
                "dec.sketch",
                GROUP_DECODER,
                hidden + d,
                SKETCH_VOCAB,
            ),
            ptr_col: Linear::new(ps, rng, "dec.ptr_col", GROUP_DECODER, hidden + d, d),
            ptr_tab: Linear::new(ps, rng, "dec.ptr_tab", GROUP_DECODER, hidden + d, d),
            ptr_val: Linear::new(ps, rng, "dec.ptr_val", GROUP_DECODER, hidden + d, d),
            d,
        }
    }

    fn init_state(&self, g: &mut Graph, ps: &ParamStore, enc: &Encodings) -> LstmState {
        let h0 = self.init_h.forward(g, ps, enc.pooled);
        let h = g.tanh(h0);
        let c = g.input(Tensor::zeros(1, g.value(h).cols()));
        LstmState { h, c }
    }

    /// One LSTM + attention step for one hypothesis. Returns the new state
    /// and the feature row `[1, hidden + d]`.
    ///
    /// Used by the teacher-forced [`Decoder::loss`] and the per-hypothesis
    /// oracle; [`Decoder::step_multi`] is its row-batched counterpart for
    /// [`Decoder::decode`].
    fn step(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        enc: &Encodings,
        prev_emb: Var,
        prev_ctx: Var,
        state: LstmState,
    ) -> (LstmState, Var) {
        let x = g.concat_cols(&[prev_emb, prev_ctx]);
        let state = self.cell.step(g, ps, x, state);
        // Fused attention over the question encodings (score + scale +
        // softmax in one node; context as one matmul with the same rows).
        let q = self.attn_q.forward(g, ps, state.h);
        let attn = g.attn_softmax(q, enc.question, 1.0 / (self.d as f32).sqrt(), None);
        let ctx = g.matmul(attn, enc.question);
        let f = g.concat_cols(&[state.h, ctx]);
        (state, f)
    }

    /// Sketch-action indices legal at the current frontier, additionally
    /// excluding value-consuming rules when no candidates exist.
    fn valid_sketch(&self, ts: &TransitionSystem, has_values: bool) -> Vec<usize> {
        let mut valid = ts.valid_sketch_actions();
        if !has_values {
            valid.retain(|&idx| !action_needs_value(Action::from_sketch_index(idx)));
        }
        valid
    }

    /// The embedding fed into the next step for an already-chosen action.
    fn action_input(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        enc: &Encodings,
        action: &Action,
    ) -> Var {
        match action {
            Action::C(i) => {
                let row = g.slice_rows(enc.columns, *i, i + 1);
                self.item_in.forward(g, ps, row)
            }
            Action::T(i) => {
                let row = g.slice_rows(enc.tables, *i, i + 1);
                self.item_in.forward(g, ps, row)
            }
            Action::V(i) => {
                let values = enc.values.expect("V action without candidates");
                let row = g.slice_rows(values, *i, i + 1);
                self.item_in.forward(g, ps, row)
            }
            sketch => {
                let idx = sketch.sketch_index().expect("sketch action") + 1;
                self.action_emb.forward(g, ps, &[idx])
            }
        }
    }

    fn masked_sketch_logits(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        f: Var,
        valid: &[usize],
    ) -> Var {
        let logits = self.sketch_head.forward(g, ps, f);
        let mut mask = Tensor::full(1, SKETCH_VOCAB, -1e9);
        for &i in valid {
            mask.set(0, i, 0.0);
        }
        let m = g.input(mask);
        g.add(logits, m)
    }

    /// The shared-weight half of a pointer head: projects feature rows into
    /// item-encoding space. Row-batched like every other head, so a
    /// multi-request decode can push all requests' rows through one pass and
    /// score each request against its own item matrix afterwards.
    fn pointer_project(&self, g: &mut Graph, ps: &ParamStore, f: Var, which: NonTerminal) -> Var {
        match which {
            NonTerminal::C => self.ptr_col.forward(g, ps, f),
            NonTerminal::T => self.ptr_tab.forward(g, ps, f),
            NonTerminal::V => self.ptr_val.forward(g, ps, f),
            other => unreachable!("pointer_project on {other:?}"),
        }
    }

    /// Scores projected feature rows against an item matrix (scaled dot
    /// product, the second half of [`Decoder::pointer_project`]).
    fn pointer_score_items(&self, g: &mut Graph, proj: Var, items: Var) -> Var {
        let raw = g.matmul_transposed_b(proj, items);
        g.scale(raw, 1.0 / (self.d as f32).sqrt())
    }

    fn pointer_scores(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        f: Var,
        items: Var,
        which: NonTerminal,
    ) -> Var {
        let proj = self.pointer_project(g, ps, f, which);
        self.pointer_score_items(g, proj, items)
    }

    /// Teacher-forced loss over a gold action sequence. Returns a scalar.
    pub fn loss(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        enc: &Encodings,
        actions: &[Action],
    ) -> Var {
        let has_values = enc.values.is_some();
        let mut ts = TransitionSystem::new();
        let mut state = self.init_state(g, ps, enc);
        let mut prev_emb = self.action_emb.forward(g, ps, &[0]);
        let mut prev_ctx = enc.pooled;
        let mut losses = Vec::with_capacity(actions.len());
        for action in actions {
            let frontier = ts.frontier().expect("gold actions exceed derivation");
            let (next_state, f) = self.step(g, ps, enc, prev_emb, prev_ctx, state);
            state = next_state;
            // Keep the attention context for the next input.
            prev_ctx = g.slice_cols(f, g.value(state.h).cols(), g.value(state.h).cols() + self.d);
            let loss = match frontier {
                NonTerminal::C => {
                    let Action::C(i) = action else { panic!("expected C, got {action:?}") };
                    let scores = self.pointer_scores(g, ps, f, enc.columns, NonTerminal::C);
                    g.log_softmax_nll(scores, &[*i])
                }
                NonTerminal::T => {
                    let Action::T(i) = action else { panic!("expected T, got {action:?}") };
                    let scores = self.pointer_scores(g, ps, f, enc.tables, NonTerminal::T);
                    g.log_softmax_nll(scores, &[*i])
                }
                NonTerminal::V => {
                    let Action::V(i) = action else { panic!("expected V, got {action:?}") };
                    let values = enc.values.expect("gold V action without candidates");
                    let scores = self.pointer_scores(g, ps, f, values, NonTerminal::V);
                    g.log_softmax_nll(scores, &[*i])
                }
                _ => {
                    let idx = action
                        .sketch_index()
                        .unwrap_or_else(|| panic!("pointer action at sketch frontier: {action:?}"));
                    let valid = self.valid_sketch(&ts, has_values);
                    debug_assert!(valid.contains(&idx), "gold action masked out: {action:?}");
                    let logits = self.masked_sketch_logits(g, ps, f, &valid);
                    g.log_softmax_nll(logits, &[idx])
                }
            };
            losses.push(loss);
            prev_emb = self.action_input(g, ps, enc, action);
            ts.apply(action).expect("gold action sequence must be grammar-valid");
        }
        assert!(ts.is_complete(), "gold action sequence incomplete");
        let stacked = g.concat_rows(&losses);
        g.mean_all(stacked)
    }

    /// Per-hypothesis reference implementation of [`Decoder::decode`] for
    /// one request.
    ///
    /// Steps every hypothesis through its own `[1, ·]` LSTM + attention call.
    /// Kept as the differential oracle for the batched search (the two must
    /// agree bit-for-bit) and as the baseline arm of the speed benchmark.
    pub fn decode_beam_unbatched(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        enc: &Encodings,
        max_steps: usize,
        beam_width: usize,
    ) -> Vec<(Vec<Action>, f32)> {
        assert!(beam_width >= 1, "beam width must be at least 1");
        let _span = valuenet_obs::span("decode.beam");
        let has_values = enc.values.is_some();
        let start = self.action_emb.forward(g, ps, &[0]);
        let init = self.init_state(g, ps, enc);
        let mut beams = vec![BeamHyp {
            ts: TransitionSystem::new(),
            state: init,
            prev_emb: start,
            prev_ctx: enc.pooled,
            actions: Vec::new(),
            score: 0.0,
        }];
        let mut completed: Vec<(Vec<Action>, f32)> = Vec::new();
        for _ in 0..max_steps {
            if beams.is_empty() {
                break;
            }
            BEAM_STEPS.add(1);
            let mut expansions: Vec<BeamHyp> = Vec::new();
            for hyp in beams.drain(..) {
                let frontier = hyp.ts.frontier().expect("incomplete hypotheses only");
                let (state, f) =
                    self.step(g, ps, enc, hyp.prev_emb, hyp.prev_ctx, hyp.state);
                let hidden = g.value(state.h).cols();
                let ctx = g.slice_cols(f, hidden, hidden + self.d);
                // Log-probabilities over the legal actions at this frontier.
                let choices: Vec<(Action, f32)> = match frontier {
                    NonTerminal::C | NonTerminal::T | NonTerminal::V => {
                        let items = match frontier {
                            NonTerminal::C => enc.columns,
                            NonTerminal::T => enc.tables,
                            NonTerminal::V => enc.values.expect("masking guarantees candidates"),
                            _ => unreachable!(),
                        };
                        let scores = self.pointer_scores(g, ps, f, items, frontier);
                        let lp = g.log_softmax_rows(scores);
                        let row = g.value(lp).row(0).to_vec();
                        row.into_iter()
                            .enumerate()
                            .map(|(i, p)| {
                                let a = match frontier {
                                    NonTerminal::C => Action::C(i),
                                    NonTerminal::T => Action::T(i),
                                    _ => Action::V(i),
                                };
                                (a, p)
                            })
                            .collect()
                    }
                    _ => {
                        let valid = self.valid_sketch(&hyp.ts, has_values);
                        if valid.is_empty() {
                            BEAM_DEAD_ENDS.add(1);
                            continue; // dead hypothesis
                        }
                        let logits = self.masked_sketch_logits(g, ps, f, &valid);
                        let lp = g.log_softmax_rows(logits);
                        let row = g.value(lp).row(0);
                        valid
                            .iter()
                            .map(|&i| (Action::from_sketch_index(i), row[i]))
                            .collect()
                    }
                };
                let mut ranked = choices;
                BEAM_CANDIDATES.record(ranked.len() as u64);
                ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                for (action, logp) in ranked.into_iter().take(beam_width) {
                    let mut ts = hyp.ts.clone();
                    if ts.apply(&action).is_err() {
                        continue;
                    }
                    count_choice(&action);
                    BEAM_EXPANDED.add(1);
                    let mut actions = hyp.actions.clone();
                    actions.push(action);
                    let score = hyp.score + logp;
                    if ts.is_complete() {
                        BEAM_COMPLETED.add(1);
                        completed.push((actions, score));
                    } else {
                        let prev_emb = self.action_input(g, ps, enc, &action);
                        expansions.push(BeamHyp {
                            ts,
                            state,
                            prev_emb,
                            prev_ctx: ctx,
                            actions,
                            score,
                        });
                    }
                }
            }
            expansions
                .sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
            BEAM_PRUNED.add(expansions.len().saturating_sub(beam_width) as u64);
            expansions.truncate(beam_width);
            beams = expansions;
            // Early exit: enough completed hypotheses that beat every open one.
            if completed.len() >= beam_width
                && beams
                    .iter()
                    .all(|h| completed.iter().any(|(_, cs)| *cs >= h.score))
            {
                break;
            }
        }
        rank_completed(completed, beam_width)
    }

    /// One fused LSTM + attention step over rows drawn from *multiple*
    /// requests. `blocks` lists, in row order, `(enc index, row count)` per
    /// request; `embs`/`ctxs`/`hs`/`cs` are the flattened per-row inputs.
    ///
    /// The shared-weight kernels (the LSTM gate matmul — the dominant
    /// per-step cost — and the attention query projection) run once over all
    /// rows; attention scores and contexts are computed per request against
    /// that request's own question encodings, so no padding or masking is
    /// needed. The LSTM cell and the fused attention compute each output row
    /// independently in a fixed order, so every row is bit-identical to what
    /// [`Decoder::step`] computes for that hypothesis alone.
    ///
    /// Returns the stacked state, the stacked attention contexts and the
    /// feature matrix `[B_total, hidden + d]`.
    #[allow(clippy::too_many_arguments)]
    fn step_multi(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        encs: &[Encodings],
        blocks: &[(usize, usize)],
        embs: &[Var],
        ctxs: &[Var],
        hs: &[Var],
        cs: &[Var],
    ) -> (LstmState, Var, Var) {
        let prev_emb = g.concat_rows(embs);
        let prev_ctx = g.concat_rows(ctxs);
        let state = LstmState { h: g.concat_rows(hs), c: g.concat_rows(cs) };
        let x = g.concat_cols(&[prev_emb, prev_ctx]);
        let state = self.cell.step(g, ps, x, state);
        let q_all = self.attn_q.forward(g, ps, state.h);
        let scale = 1.0 / (self.d as f32).sqrt();
        let mut ctx_parts = Vec::with_capacity(blocks.len());
        let mut off = 0usize;
        for &(ei, n) in blocks {
            let enc = &encs[ei];
            let q = if blocks.len() == 1 { q_all } else { g.slice_rows(q_all, off, off + n) };
            let attn = g.attn_softmax(q, enc.question, scale, None);
            ctx_parts.push(g.matmul(attn, enc.question));
            off += n;
        }
        let ctx_all = if ctx_parts.len() == 1 { ctx_parts[0] } else { g.concat_rows(&ctx_parts) };
        let f_all = g.concat_cols(&[state.h, ctx_all]);
        (state, ctx_all, f_all)
    }

    /// Grammar-constrained beam search over a batch of requests: the
    /// decoder's one search loop. `width` 1 is greedy decoding (each step
    /// keeps the single highest-scoring legal action), and a lone request is
    /// a batch of one.
    ///
    /// Returns, per request in input order, up to `width` completed
    /// hypotheses, best first (ranked by mean per-action log-probability,
    /// i.e. length-normalised), each with its summed log-probability. An
    /// empty list means no hypothesis of that request completed within
    /// `max_steps`.
    ///
    /// Beam search is the paper lineage's standard decoding upgrade (IRNet
    /// decodes with beam search); combined with execution-guided selection in
    /// the pipeline it also realises a piece of the paper's future work —
    /// using the database to discard candidates that cannot execute.
    ///
    /// All live hypotheses of all unfinished requests advance through one
    /// [`Decoder::step_multi`] pass per search step, and each head (sketch,
    /// column/table/value pointers) runs its shared-weight projection once
    /// over every row that needs it across the whole batch. Per-request work
    /// — attention over the request's question, pointer scores against the
    /// request's item matrices, expansion, pruning, completion — stays per
    /// request, so each request terminates independently and drops out of
    /// later steps. Every kernel computes each output row independently in a
    /// fixed order, so each request's result is bit-identical to
    /// [`Decoder::decode_beam_unbatched`] on that request alone, whatever it
    /// is batched with (pinned by `tests/beam_search.rs` and
    /// `tests/multi_decode.rs`).
    pub fn decode(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        encs: &[Encodings],
        max_steps: usize,
        width: usize,
    ) -> Vec<Vec<(Vec<Action>, f32)>> {
        assert!(width >= 1, "beam width must be at least 1");
        let _span = valuenet_obs::span("decode.beam");
        struct ReqBeam {
            beams: Vec<BeamHyp>,
            completed: Vec<(Vec<Action>, f32)>,
            done: bool,
        }
        let mut reqs: Vec<ReqBeam> = encs
            .iter()
            .map(|enc| {
                let start = self.action_emb.forward(g, ps, &[0]);
                let init = self.init_state(g, ps, enc);
                ReqBeam {
                    beams: vec![BeamHyp {
                        ts: TransitionSystem::new(),
                        state: init,
                        prev_emb: start,
                        prev_ctx: enc.pooled,
                        actions: Vec::new(),
                        score: 0.0,
                    }],
                    completed: Vec::new(),
                    done: false,
                }
            })
            .collect();
        for _ in 0..max_steps {
            for rq in reqs.iter_mut() {
                if rq.beams.is_empty() {
                    rq.done = true;
                }
            }
            let active: Vec<usize> =
                (0..reqs.len()).filter(|&r| !reqs[r].done).collect();
            if active.is_empty() {
                break;
            }
            BEAM_STEPS.add(active.len() as u64);
            // Stack every live hypothesis of every unfinished request.
            let mut blocks: Vec<(usize, usize)> = Vec::with_capacity(active.len());
            let mut embs = Vec::new();
            let mut ctxs = Vec::new();
            let mut hs = Vec::new();
            let mut cs = Vec::new();
            for &r in &active {
                blocks.push((r, reqs[r].beams.len()));
                for h in &reqs[r].beams {
                    embs.push(h.prev_emb);
                    ctxs.push(h.prev_ctx);
                    hs.push(h.state.h);
                    cs.push(h.state.c);
                }
            }
            let (state_all, ctx_all, f_all) =
                self.step_multi(g, ps, encs, &blocks, &embs, &ctxs, &hs, &cs);
            // Group rows by frontier kind across all requests. Rows of one
            // request stay contiguous within a kind, so per-request scores
            // slice out of one shared projection pass.
            let mut ptr_rows: [Vec<(usize, usize, usize)>; 3] =
                [Vec::new(), Vec::new(), Vec::new()];
            let mut sketch_rows: Vec<(usize, usize, usize, Vec<usize>)> = Vec::new();
            let mut base = 0usize;
            for &(r, n) in &blocks {
                let has_values = encs[r].values.is_some();
                for (li, hyp) in reqs[r].beams.iter().enumerate() {
                    let gi = base + li;
                    match hyp.ts.frontier().expect("incomplete hypotheses only") {
                        NonTerminal::C => ptr_rows[0].push((gi, r, li)),
                        NonTerminal::T => ptr_rows[1].push((gi, r, li)),
                        NonTerminal::V => ptr_rows[2].push((gi, r, li)),
                        _ => {
                            let valid = self.valid_sketch(&hyp.ts, has_values);
                            if valid.is_empty() {
                                BEAM_DEAD_ENDS.add(1);
                            } else {
                                sketch_rows.push((gi, r, li, valid));
                            }
                        }
                    }
                }
                base += n;
            }
            let mut choices: Vec<BeamChoices> = reqs
                .iter()
                .map(|rq| if rq.done { Vec::new() } else { vec![None; rq.beams.len()] })
                .collect();
            for (k, rows) in ptr_rows.iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let which = [NonTerminal::C, NonTerminal::T, NonTerminal::V][k];
                let global: Vec<usize> = rows.iter().map(|&(gi, _, _)| gi).collect();
                let f_k = g.gather_rows(f_all, &global);
                // One shared-weight projection pass per pointer head …
                let proj = self.pointer_project(g, ps, f_k, which);
                // … then scores per request, against its own item matrix.
                let mut i = 0;
                while i < rows.len() {
                    let r = rows[i].1;
                    let mut j = i;
                    while j < rows.len() && rows[j].1 == r {
                        j += 1;
                    }
                    let items = match which {
                        NonTerminal::C => encs[r].columns,
                        NonTerminal::T => encs[r].tables,
                        _ => encs[r].values.expect("masking guarantees candidates"),
                    };
                    let proj_r = if i == 0 && j == rows.len() {
                        proj
                    } else {
                        g.slice_rows(proj, i, j)
                    };
                    let scores = self.pointer_score_items(g, proj_r, items);
                    let lp = g.log_softmax_rows(scores);
                    for (jj, &(_, _, li)) in rows[i..j].iter().enumerate() {
                        let row = g.value(lp).row(jj);
                        choices[r][li] = Some(
                            row.iter()
                                .enumerate()
                                .map(|(i2, &p)| {
                                    let a = match which {
                                        NonTerminal::C => Action::C(i2),
                                        NonTerminal::T => Action::T(i2),
                                        _ => Action::V(i2),
                                    };
                                    (a, p)
                                })
                                .collect(),
                        );
                    }
                    i = j;
                }
            }
            if !sketch_rows.is_empty() {
                let global: Vec<usize> = sketch_rows.iter().map(|&(gi, _, _, _)| gi).collect();
                let f_s = g.gather_rows(f_all, &global);
                let logits = self.sketch_head.forward(g, ps, f_s);
                let mut mask = Tensor::full(sketch_rows.len(), SKETCH_VOCAB, -1e9);
                for (j, (_, _, _, valid)) in sketch_rows.iter().enumerate() {
                    for &i in valid {
                        mask.set(j, i, 0.0);
                    }
                }
                let m = g.input(mask);
                let masked = g.add(logits, m);
                let lp = g.log_softmax_rows(masked);
                for (j, (_, r, li, valid)) in sketch_rows.iter().enumerate() {
                    let row = g.value(lp).row(j);
                    choices[*r][*li] = Some(
                        valid.iter().map(|&i| (Action::from_sketch_index(i), row[i])).collect(),
                    );
                }
            }
            // Expand, prune and early-exit each request exactly like the
            // per-hypothesis oracle.
            let mut base = 0usize;
            for &(r, n) in &blocks {
                let rq = &mut reqs[r];
                let enc = &encs[r];
                let mut state_rows: Vec<Option<(Var, Var, Var)>> = (0..n).map(|_| None).collect();
                let mut expansions: Vec<BeamHyp> = Vec::new();
                for (li, hyp) in rq.beams.drain(..).enumerate() {
                    let Some(mut ranked) = choices[r][li].take() else { continue };
                    BEAM_CANDIDATES.record(ranked.len() as u64);
                    ranked.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
                    });
                    for (action, logp) in ranked.into_iter().take(width) {
                        let mut ts = hyp.ts.clone();
                        if ts.apply(&action).is_err() {
                            continue;
                        }
                        count_choice(&action);
                        BEAM_EXPANDED.add(1);
                        let mut actions = hyp.actions.clone();
                        actions.push(action);
                        let score = hyp.score + logp;
                        if ts.is_complete() {
                            BEAM_COMPLETED.add(1);
                            rq.completed.push((actions, score));
                        } else {
                            let gi = base + li;
                            if state_rows[li].is_none() {
                                state_rows[li] = Some((
                                    g.slice_rows(state_all.h, gi, gi + 1),
                                    g.slice_rows(state_all.c, gi, gi + 1),
                                    g.slice_rows(ctx_all, gi, gi + 1),
                                ));
                            }
                            let (h, c, ctx) = state_rows[li].expect("just inserted");
                            let prev_emb = self.action_input(g, ps, enc, &action);
                            expansions.push(BeamHyp {
                                ts,
                                state: LstmState { h, c },
                                prev_emb,
                                prev_ctx: ctx,
                                actions,
                                score,
                            });
                        }
                    }
                }
                expansions.sort_by(|a, b| {
                    b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal)
                });
                BEAM_PRUNED.add(expansions.len().saturating_sub(width) as u64);
                expansions.truncate(width);
                rq.beams = expansions;
                if rq.completed.len() >= width
                    && rq
                        .beams
                        .iter()
                        .all(|h| rq.completed.iter().any(|(_, cs)| *cs >= h.score))
                {
                    rq.done = true;
                    rq.beams.clear();
                }
                base += n;
            }
        }
        reqs.into_iter().map(|rq| rank_completed(rq.completed, width)).collect()
    }
}

/// Whether applying this sketch action eventually forces a `V` pointer.
fn action_needs_value(a: Action) -> bool {
    use valuenet_semql::{FilterRule, RRule};
    match a {
        Action::R(RRule::SSup) | Action::R(RRule::SSupF) | Action::SupRule(_) => true,
        Action::F(rule) => matches!(
            rule,
            FilterRule::Eq
                | FilterRule::Ne
                | FilterRule::Lt
                | FilterRule::Gt
                | FilterRule::Le
                | FilterRule::Ge
                | FilterRule::Between
                | FilterRule::Like
                | FilterRule::NotLike
        ),
        _ => false,
    }
}
