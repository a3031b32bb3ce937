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

/// One live beam hypothesis.
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

    /// The empty derivation every search starts from.
    fn start(&self, g: &mut Graph, ps: &ParamStore, enc: &Encodings) -> BeamHyp {
        let prev_emb = self.action_emb.forward(g, ps, &[0]);
        let state = self.init_state(g, ps, enc);
        BeamHyp {
            ts: TransitionSystem::new(),
            state,
            prev_emb,
            prev_ctx: enc.pooled,
            actions: Vec::new(),
            score: 0.0,
        }
    }

    /// One LSTM + attention step over `B` stacked hypothesis rows: all of a
    /// request's live hypotheses in [`Decoder::decode`], one row in
    /// [`Decoder::loss`] and the per-hypothesis oracle. Returns the new
    /// state, the attention context `[B, d]` (the next step's `prev_ctx`)
    /// and the feature rows `[B, hidden + d]` the heads score.
    ///
    /// The LSTM cell and the fused attention compute each output row
    /// independently in a fixed order, so a row's bits do not depend on
    /// which other rows share the step.
    fn step(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        enc: &Encodings,
        prev_emb: Var,
        prev_ctx: Var,
        state: LstmState,
    ) -> (LstmState, Var, Var) {
        let x = g.concat_cols(&[prev_emb, prev_ctx]);
        let state = self.cell.step(g, ps, x, state);
        // Fused attention over the question encodings (score + scale +
        // softmax in one node; context as one matmul with the same rows).
        let q = self.attn_q.forward(g, ps, state.h);
        let attn = g.attn_softmax(q, enc.question, 1.0 / (self.d as f32).sqrt(), None);
        let ctx = g.matmul(attn, enc.question);
        let f = g.concat_cols(&[state.h, ctx]);
        (state, ctx, f)
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

    /// Sketch-head logits for the feature rows `f`, with every action
    /// outside row `r`'s `valid[r]` masked out.
    fn masked_sketch_logits(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        f: Var,
        valid: &[Vec<usize>],
    ) -> Var {
        let logits = self.sketch_head.forward(g, ps, f);
        let mut mask = Tensor::full(valid.len(), SKETCH_VOCAB, -1e9);
        for (r, row) in valid.iter().enumerate() {
            for &i in row {
                mask.set(r, i, 0.0);
            }
        }
        let m = g.input(mask);
        g.add(logits, m)
    }

    /// Pointer-network scores of the feature rows `f` over the items the
    /// `which` frontier points into: the head projects each row into
    /// item-encoding space, then takes a scaled dot product with every item.
    fn pointer_scores(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        enc: &Encodings,
        f: Var,
        which: NonTerminal,
    ) -> Var {
        let (head, items) = match which {
            NonTerminal::C => (&self.ptr_col, enc.columns),
            NonTerminal::T => (&self.ptr_tab, enc.tables),
            NonTerminal::V => (&self.ptr_val, enc.values.expect("V pointer without candidates")),
            other => unreachable!("pointer_scores on {other:?}"),
        };
        let proj = head.forward(g, ps, f);
        let raw = g.matmul_transposed_b(proj, items);
        g.scale(raw, 1.0 / (self.d as f32).sqrt())
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
            let (next_state, ctx, f) = self.step(g, ps, enc, prev_emb, prev_ctx, state);
            state = next_state;
            prev_ctx = ctx;
            let loss = match (frontier, action) {
                (NonTerminal::C, Action::C(i))
                | (NonTerminal::T, Action::T(i))
                | (NonTerminal::V, Action::V(i)) => {
                    let scores = self.pointer_scores(g, ps, enc, f, frontier);
                    g.log_softmax_nll(scores, &[*i])
                }
                (NonTerminal::C | NonTerminal::T | NonTerminal::V, _) => {
                    panic!("expected a {frontier:?} pointer, got {action:?}")
                }
                _ => {
                    let idx = action
                        .sketch_index()
                        .unwrap_or_else(|| panic!("pointer action at sketch frontier: {action:?}"));
                    let valid = self.valid_sketch(&ts, has_values);
                    debug_assert!(valid.contains(&idx), "gold action masked out: {action:?}");
                    let logits = self.masked_sketch_logits(g, ps, f, &[valid]);
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

    /// Per-hypothesis reference implementation of [`Decoder::decode`].
    ///
    /// Steps every hypothesis through its own `[1, ·]` call of
    /// [`Decoder::step`] and heads. Kept as the differential oracle for the
    /// stacked search (the two must agree bit-for-bit).
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
        let mut beams = vec![self.start(g, ps, enc)];
        let mut completed: Vec<(Vec<Action>, f32)> = Vec::new();
        for _ in 0..max_steps {
            if beams.is_empty() {
                break;
            }
            BEAM_STEPS.add(1);
            let mut expansions: Vec<BeamHyp> = Vec::new();
            for hyp in beams.drain(..) {
                let frontier = hyp.ts.frontier().expect("incomplete hypotheses only");
                let (state, ctx, f) =
                    self.step(g, ps, enc, hyp.prev_emb, hyp.prev_ctx, hyp.state);
                // Log-probabilities over the legal actions at this frontier.
                let choices: Vec<(Action, f32)> = match frontier {
                    NonTerminal::C | NonTerminal::T | NonTerminal::V => {
                        let scores = self.pointer_scores(g, ps, enc, f, frontier);
                        let lp = g.log_softmax_rows(scores);
                        pointer_choices(frontier, g.value(lp).row(0))
                    }
                    _ => {
                        let valid = self.valid_sketch(&hyp.ts, has_values);
                        if valid.is_empty() {
                            BEAM_DEAD_ENDS.add(1);
                            continue; // dead hypothesis
                        }
                        let logits =
                            self.masked_sketch_logits(g, ps, f, std::slice::from_ref(&valid));
                        let lp = g.log_softmax_rows(logits);
                        sketch_choices(&valid, g.value(lp).row(0))
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

    /// Grammar-constrained beam search over one request: the decoder's one
    /// search loop. `width` 1 is greedy decoding (each step keeps the single
    /// highest-scoring legal action).
    ///
    /// Returns up to `width` completed hypotheses, best first (ranked by
    /// mean per-action log-probability, i.e. length-normalised), each with
    /// its summed log-probability. An empty list means no hypothesis
    /// completed within `max_steps`.
    ///
    /// Beam search is the paper lineage's standard decoding upgrade (IRNet
    /// decodes with beam search); combined with execution-guided selection in
    /// the pipeline it also realises a piece of the paper's future work —
    /// using the database to discard candidates that cannot execute.
    ///
    /// The live hypotheses are stacked into one [`Decoder::step`] per search
    /// step, and each head (sketch, column/table/value pointers) runs once
    /// over the rows at its kind of frontier. Every kernel computes each
    /// output row independently in a fixed order, so the result is
    /// bit-identical to [`Decoder::decode_beam_unbatched`] (pinned by
    /// `tests/beam_search.rs`).
    pub fn decode(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        enc: &Encodings,
        max_steps: usize,
        width: usize,
    ) -> Vec<(Vec<Action>, f32)> {
        assert!(width >= 1, "beam width must be at least 1");
        let _span = valuenet_obs::span("decode.beam");
        let has_values = enc.values.is_some();
        let mut beams = vec![self.start(g, ps, enc)];
        let mut completed: Vec<(Vec<Action>, f32)> = Vec::new();
        for _ in 0..max_steps {
            if beams.is_empty() {
                break;
            }
            BEAM_STEPS.add(1);
            let mut stack = |pick: fn(&BeamHyp) -> Var| {
                let rows: Vec<Var> = beams.iter().map(pick).collect();
                g.concat_rows(&rows)
            };
            let prev_emb = stack(|h| h.prev_emb);
            let prev_ctx = stack(|h| h.prev_ctx);
            let state = LstmState { h: stack(|h| h.state.h), c: stack(|h| h.state.c) };
            let (state, ctx, f) = self.step(g, ps, enc, prev_emb, prev_ctx, state);
            // Group rows by frontier kind, so each head runs once per step.
            let mut ptr_rows: [Vec<usize>; 3] = Default::default();
            let (mut sketch_rows, mut sketch_valid) = (Vec::new(), Vec::new());
            for (i, hyp) in beams.iter().enumerate() {
                match hyp.ts.frontier().expect("incomplete hypotheses only") {
                    NonTerminal::C => ptr_rows[0].push(i),
                    NonTerminal::T => ptr_rows[1].push(i),
                    NonTerminal::V => ptr_rows[2].push(i),
                    _ => {
                        let valid = self.valid_sketch(&hyp.ts, has_values);
                        if valid.is_empty() {
                            BEAM_DEAD_ENDS.add(1);
                        } else {
                            sketch_rows.push(i);
                            sketch_valid.push(valid);
                        }
                    }
                }
            }
            // Scored expansions per hypothesis; `None` for a dead end.
            let mut choices: Vec<Option<Vec<(Action, f32)>>> = vec![None; beams.len()];
            let pointers = [NonTerminal::C, NonTerminal::T, NonTerminal::V];
            for (rows, which) in ptr_rows.iter().zip(pointers) {
                if rows.is_empty() {
                    continue;
                }
                let f_k = g.gather_rows(f, rows);
                let scores = self.pointer_scores(g, ps, enc, f_k, which);
                let lp = g.log_softmax_rows(scores);
                for (j, &i) in rows.iter().enumerate() {
                    choices[i] = Some(pointer_choices(which, g.value(lp).row(j)));
                }
            }
            if !sketch_rows.is_empty() {
                let f_s = g.gather_rows(f, &sketch_rows);
                let logits = self.masked_sketch_logits(g, ps, f_s, &sketch_valid);
                let lp = g.log_softmax_rows(logits);
                for (j, (&i, valid)) in sketch_rows.iter().zip(&sketch_valid).enumerate() {
                    choices[i] = Some(sketch_choices(valid, g.value(lp).row(j)));
                }
            }
            // Expand, prune and early-exit exactly like the per-hypothesis
            // oracle.
            let mut expansions: Vec<BeamHyp> = Vec::new();
            for (i, (hyp, ranked)) in beams.drain(..).zip(choices).enumerate() {
                let Some(mut ranked) = ranked else { continue };
                BEAM_CANDIDATES.record(ranked.len() as u64);
                ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                // Row `i` of the stepped state, sliced once for all of its
                // surviving expansions.
                let mut row: Option<(LstmState, Var)> = None;
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
                        completed.push((actions, score));
                    } else {
                        let (state, prev_ctx) = *row.get_or_insert_with(|| {
                            let h = g.slice_rows(state.h, i, i + 1);
                            let c = g.slice_rows(state.c, i, i + 1);
                            (LstmState { h, c }, g.slice_rows(ctx, i, i + 1))
                        });
                        let prev_emb = self.action_input(g, ps, enc, &action);
                        expansions.push(BeamHyp { ts, state, prev_emb, prev_ctx, actions, score });
                    }
                }
            }
            expansions
                .sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
            BEAM_PRUNED.add(expansions.len().saturating_sub(width) as u64);
            expansions.truncate(width);
            beams = expansions;
            // Early exit: enough completed hypotheses that beat every open one.
            if completed.len() >= width
                && beams.iter().all(|h| completed.iter().any(|(_, cs)| *cs >= h.score))
            {
                break;
            }
        }
        rank_completed(completed, width)
    }
}

/// A pointer head's log-probability row as `(action, log-probability)`
/// pairs, one per item.
fn pointer_choices(which: NonTerminal, row: &[f32]) -> Vec<(Action, f32)> {
    let action = match which {
        NonTerminal::C => Action::C,
        NonTerminal::T => Action::T,
        _ => Action::V,
    };
    row.iter().enumerate().map(|(i, &p)| (action(i), p)).collect()
}

/// The legal sketch actions of a masked sketch-head log-probability row.
fn sketch_choices(valid: &[usize], row: &[f32]) -> Vec<(Action, f32)> {
    valid.iter().map(|&i| (Action::from_sketch_index(i), row[i])).collect()
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
