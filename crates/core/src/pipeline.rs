//! The end-to-end NL-to-SQL pipeline (paper Fig. 5) with per-stage timing
//! (paper Table II).

use crate::input::build_input_opts;
use crate::model::ValueNetModel;
use std::time::{Duration, Instant};
use valuenet_exec::{execute, ResultSet};
use valuenet_preprocess::{
    generate_candidates, question_hints, schema_hints, tokenize_question, CandidateConfig,
    Ner, Preprocessed, StatisticalNer,
};
use valuenet_schema::{ColumnId, SchemaGraph};
use valuenet_semql::{actions_to_ast, to_sql, Action, ResolvedValue, SemQl};
use valuenet_sql::SelectStmt;
use valuenet_storage::Database;

/// A pipeline stage boundary, in execution order. Stage guards (serving
/// deadlines, fault injection) are consulted with the stage about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Tokenisation + hint classification.
    Preprocess,
    /// NER + candidate generation + database validation.
    ValueLookup,
    /// Neural encoding and grammar-constrained decoding.
    EncodeDecode,
    /// SemQL → SQL lowering and execution-guided selection.
    PostProcess,
    /// Executing the synthesized query.
    Execute,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 5] =
        [Stage::Preprocess, Stage::ValueLookup, Stage::EncodeDecode, Stage::PostProcess, Stage::Execute];

    /// Parses a [`Stage::label`] back to the stage.
    pub fn from_label(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.label() == s)
    }

    /// Stable lowercase label (protocol / metrics key).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Preprocess => "preprocess",
            Stage::ValueLookup => "value_lookup",
            Stage::EncodeDecode => "encode_decode",
            Stage::PostProcess => "post_process",
            Stage::Execute => "execute",
        }
    }

    /// The obs span covering the stage, under `pipeline.translate`.
    fn span_name(self) -> &'static str {
        match self {
            Stage::Preprocess => "pipeline.pre_processing",
            Stage::ValueLookup => "pipeline.value_lookup",
            Stage::EncodeDecode => "pipeline.encode_decode",
            Stage::PostProcess => "pipeline.post_processing",
            Stage::Execute => "pipeline.execution",
        }
    }
}

/// A typed translation failure. A serving front-end must be able to turn
/// every malformed or aborted request into a protocol error instead of a
/// panic, so the request path reports these instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// [`ValueMode::Light`] requires the oracle's gold value options.
    MissingGoldValues,
    /// A decoded `V` pointer indexes past the candidate list — the model
    /// emitted a value reference with no backing candidate text.
    DanglingValuePointer {
        /// The offending pointer.
        index: usize,
        /// Number of candidates that were available.
        candidates: usize,
    },
    /// A stage guard aborted the translation (e.g. a serving deadline
    /// expired at a stage boundary).
    Aborted {
        /// The stage that was about to run.
        stage: Stage,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::MissingGoldValues => {
                write!(f, "ValueNet light requires the gold value options")
            }
            PipelineError::DanglingValuePointer { index, candidates } => write!(
                f,
                "value pointer {index} has no backing candidate ({candidates} available)"
            ),
            PipelineError::Aborted { stage } => {
                write!(f, "translation aborted before stage `{}`", stage.label())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// How value options are supplied to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueMode {
    /// *ValueNet light*: the gold value options are provided by an oracle
    /// (paper Section IV-A).
    Light,
    /// *ValueNet*: value candidates are extracted from the question and the
    /// database content (paper Section IV-B).
    Full,
    /// The pre-ValueNet baseline: a constant placeholder `1` is the only
    /// available value (what Exact-Match-era systems effectively do,
    /// paper Section III).
    NoValue,
}

impl ValueMode {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ValueMode::Light => "ValueNet light",
            ValueMode::Full => "ValueNet",
            ValueMode::NoValue => "NoValue baseline",
        }
    }
}

/// Wall-clock duration of each pipeline stage (paper Table II rows). A
/// stage runs from its boundary to the next one, its guard included, so the
/// five rows add up to the whole translation.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Tokenisation + question/schema hints.
    pub pre_processing: Duration,
    /// NER + candidate generation + database validation.
    pub value_lookup: Duration,
    /// Neural encoding and grammar-constrained decoding.
    pub encoder_decoder: Duration,
    /// SemQL → SQL lowering.
    pub post_processing: Duration,
    /// Executing the synthesized query.
    pub query_execution: Duration,
}

impl StageTimings {
    /// Total translation time.
    pub fn total(&self) -> Duration {
        self.pre_processing
            + self.value_lookup
            + self.encoder_decoder
            + self.post_processing
            + self.query_execution
    }

    fn slot(&mut self, stage: Stage) -> &mut Duration {
        match stage {
            Stage::Preprocess => &mut self.pre_processing,
            Stage::ValueLookup => &mut self.value_lookup,
            Stage::EncodeDecode => &mut self.encoder_decoder,
            Stage::PostProcess => &mut self.post_processing,
            Stage::Execute => &mut self.query_execution,
        }
    }
}

/// The one stage clock of a [`Pipeline::prepare_guarded`] or
/// [`Pipeline::finish_guarded`] call: each stage boundary reads the clock
/// once and feeds that reading to [`StageTimings`], the stage's
/// `pipeline.<stage>` span and the ambient request trace, so Table II, the
/// span tree and the serving trace cover the same intervals.
struct StageClock<'g> {
    guard: &'g mut dyn FnMut(Stage) -> bool,
    timings: StageTimings,
    /// The stage being timed, its start (a `valuenet_obs::now_ns` reading)
    /// and its span, which dropping the clock (an abort) closes.
    open: Option<(Stage, u64, valuenet_obs::Span)>,
}

impl StageClock<'_> {
    /// Closes the open stage and enters `stage`, stamping the request trace
    /// before anything runs in it. Re-entries without a guard stop here.
    fn enter(&mut self, stage: Stage) {
        let now = self.close();
        self.open = Some((stage, now, valuenet_obs::span_at(stage.span_name(), now)));
        valuenet_obs::trace::enter_stage(stage.label(), now);
    }

    /// [`StageClock::enter`], then the guard, so injected faults, deadline
    /// aborts and the guard's own time are charged to the stage entered.
    fn gate(&mut self, stage: Stage) -> Result<(), PipelineError> {
        self.enter(stage);
        if (self.guard)(stage) {
            Ok(())
        } else {
            Err(PipelineError::Aborted { stage })
        }
    }

    /// Reads the clock and closes the open stage (before the next span
    /// opens: spans are LIFO on each thread). Returns the reading.
    fn close(&mut self) -> u64 {
        let now = valuenet_obs::now_ns();
        if let Some((stage, start, span)) = self.open.take() {
            *self.timings.slot(stage) += Duration::from_nanos(now.saturating_sub(start));
            span.close_at(now);
        }
        now
    }

    /// Closes the last stage: no span outlives the call.
    fn finish(mut self) -> StageTimings {
        self.close();
        self.timings
    }
}

/// A completed hypothesis chosen by execution-guided selection.
type ChosenHypothesis = (Vec<Action>, SemQl, Option<SelectStmt>, Option<ResultSet>);

/// A request that has run every pipeline stage up to (and including) input
/// assembly ([`Pipeline::prepare_guarded`]), and is ready for the neural
/// decode ([`Pipeline::decode_batch`]) and then lowering and execution
/// ([`Pipeline::finish_guarded`]); [`Pipeline::try_translate_guarded`] runs
/// the three for one request.
pub struct PreparedRequest<'a> {
    db: &'a Database,
    input: crate::input::ModelInput,
    hypotheses: Vec<Vec<Action>>,
    /// Per-stage timings accumulated so far (preprocess, value lookup, input
    /// assembly; [`Pipeline::decode_batch`] adds the decode wall time).
    pub timings: StageTimings,
}

/// The outcome of translating one question.
pub struct Prediction {
    /// Decoded action sequence (empty on decoding failure).
    pub actions: Vec<Action>,
    /// The predicted SemQL tree, when decoding succeeded.
    pub semql: Option<SemQl>,
    /// The synthesized SQL, when lowering succeeded.
    pub sql: Option<SelectStmt>,
    /// The candidate list the `V` pointers index into.
    pub candidates: Vec<String>,
    /// The execution result, when the query ran.
    pub result: Option<ResultSet>,
    /// Per-stage timings.
    pub timings: StageTimings,
}

/// Counts decoded `V` pointers with no backing candidate. The decoder masks
/// `V` to the candidate range, so a non-zero count means a grammar/masking
/// regression — a server must reject such a prediction rather than emit SQL
/// built from a fabricated placeholder value.
static DANGLING_VALUE_POINTERS: valuenet_obs::Counter =
    valuenet_obs::Counter::new("pipeline.dangling_value_pointer");

impl Prediction {
    /// The value texts actually selected by the decoder, in `V`-pointer
    /// order.
    ///
    /// # Errors
    /// [`PipelineError::DanglingValuePointer`] when a decoded pointer has no
    /// backing candidate (also recorded on the
    /// `pipeline.dangling_value_pointer` counter).
    pub fn selected_values(&self) -> Result<Vec<String>, PipelineError> {
        let mut out = Vec::new();
        for a in &self.actions {
            if let Action::V(i) = a {
                match self.candidates.get(*i) {
                    Some(text) => out.push(text.clone()),
                    None => {
                        DANGLING_VALUE_POINTERS.add(1);
                        return Err(PipelineError::DanglingValuePointer {
                            index: *i,
                            candidates: self.candidates.len(),
                        });
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Assembles the candidate list for a mode. `gold` must be provided in
/// [`ValueMode::Light`]; `for_training` appends missing gold values in
/// [`ValueMode::Full`] so the value pointer always has a target.
pub fn assemble_candidates(
    db: &Database,
    pre: &Preprocessed,
    mode: ValueMode,
    gold: Option<&[String]>,
    for_training: bool,
) -> Vec<(String, Vec<ColumnId>)> {
    let locate = |text: &str| db.index().find_exact(text);
    let mut out: Vec<(String, Vec<ColumnId>)> = Vec::new();
    let push = |text: &str, locations: Vec<ColumnId>, out: &mut Vec<(String, Vec<ColumnId>)>| {
        if !out.iter().any(|(t, _)| t.eq_ignore_ascii_case(text)) {
            out.push((text.to_string(), locations));
        }
    };
    match mode {
        ValueMode::Light => {
            let gold = gold.expect("ValueNet light requires the gold value options");
            for v in gold {
                push(v, locate(v), &mut out);
            }
        }
        ValueMode::Full => {
            for cand in &pre.candidates {
                push(&cand.text, cand.locations.clone(), &mut out);
            }
            // The implicit LIMIT 1 of superlatives never appears in the
            // question; a constant candidate keeps it selectable.
            push("1", Vec::new(), &mut out);
            if for_training {
                if let Some(gold) = gold {
                    for v in gold {
                        push(v, locate(v), &mut out);
                    }
                }
            }
        }
        ValueMode::NoValue => {
            push("1", Vec::new(), &mut out);
        }
    }
    out
}

/// The end-to-end system: pre-processing, the neural model, SemQL lowering,
/// and execution.
pub struct Pipeline {
    /// The trained model.
    pub model: ValueNetModel,
    /// Operating mode.
    pub mode: ValueMode,
    /// The trained statistical NER (combined with the heuristics).
    pub ner: StatisticalNer,
    /// Candidate-pipeline configuration.
    pub cand_cfg: CandidateConfig,
}

impl Pipeline {
    /// Wraps a trained model.
    pub fn new(model: ValueNetModel, mode: ValueMode, ner: StatisticalNer) -> Self {
        Pipeline { model, mode, ner, cand_cfg: CandidateConfig::default() }
    }

    /// Translates a question end to end. `gold_values` is consumed only in
    /// [`ValueMode::Light`] (the oracle's value options).
    ///
    /// # Panics
    /// In [`ValueMode::Light`] when `gold_values` is `None` — the historical
    /// contract of the offline trainer/eval path. Serving front-ends use
    /// [`Pipeline::try_translate`], which reports the same condition as a
    /// typed error instead.
    pub fn translate(
        &self,
        db: &Database,
        question: &str,
        gold_values: Option<&[String]>,
    ) -> Prediction {
        self.try_translate(db, question, gold_values)
            .unwrap_or_else(|e| panic!("pipeline::translate: {e}"))
    }

    /// [`Pipeline::translate`] with malformed-request conditions surfaced as
    /// typed [`PipelineError`]s instead of panics.
    ///
    /// # Errors
    /// [`PipelineError::MissingGoldValues`] in [`ValueMode::Light`] without
    /// gold value options.
    pub fn try_translate(
        &self,
        db: &Database,
        question: &str,
        gold_values: Option<&[String]>,
    ) -> Result<Prediction, PipelineError> {
        self.try_translate_guarded(db, question, gold_values, &mut |_| true)
    }

    /// [`Pipeline::try_translate`] with a *stage guard*: `guard` is called
    /// with each [`Stage`] immediately before that stage runs (and before
    /// each hypothesis execution in the execution-guided selection loop).
    /// Returning `false` aborts the translation with
    /// [`PipelineError::Aborted`] — this is how a serving engine enforces
    /// per-request deadlines at stage boundaries instead of cancelling
    /// mid-kernel.
    ///
    /// # Errors
    /// [`PipelineError::Aborted`] when the guard declines a stage;
    /// [`PipelineError::MissingGoldValues`] as in
    /// [`Pipeline::try_translate`].
    pub fn try_translate_guarded(
        &self,
        db: &Database,
        question: &str,
        gold_values: Option<&[String]>,
        guard: &mut dyn FnMut(Stage) -> bool,
    ) -> Result<Prediction, PipelineError> {
        let _span = valuenet_obs::span("pipeline.translate");
        let mut prepared = self.prepare_guarded(db, question, gold_values, guard)?;
        self.decode_batch(&mut [&mut prepared]);
        self.finish_guarded(prepared, guard)
    }

    /// The per-request front half of [`Pipeline::try_translate_guarded`]:
    /// pre-processing, value lookup and model-input assembly, through the
    /// [`Stage::EncodeDecode`] gate but *not* the decode itself. The
    /// returned [`PreparedRequest`] is ready for [`Pipeline::decode_batch`].
    ///
    /// # Errors
    /// As [`Pipeline::try_translate_guarded`], for the stages covered here.
    pub fn prepare_guarded<'a>(
        &self,
        db: &'a Database,
        question: &str,
        gold_values: Option<&[String]>,
        guard: &mut dyn FnMut(Stage) -> bool,
    ) -> Result<PreparedRequest<'a>, PipelineError> {
        if self.mode == ValueMode::Light && gold_values.is_none() {
            return Err(PipelineError::MissingGoldValues);
        }
        let mut clock = StageClock { guard, timings: StageTimings::default(), open: None };

        // Stage 1a: tokenisation (pre-processing).
        clock.gate(Stage::Preprocess)?;
        let tokens = tokenize_question(question);

        // Stage 2: value extraction + candidate generation + validation
        // ("Value lookup" in Table II — dominated by database lookups).
        clock.gate(Stage::ValueLookup)?;
        let extracted = self.ner.extract(question, &tokens);
        let candidates = generate_candidates(&extracted, &tokens, db, &self.cand_cfg);

        // Stage 1b, without a gate: hint classification (needs the
        // candidates for the value-candidate-match class).
        clock.enter(Stage::Preprocess);
        let qh = question_hints(&tokens, db);
        let sh = schema_hints(&tokens, db, &candidates);
        let pre = Preprocessed { tokens, question_hints: qh, schema_hints: sh, candidates };

        // Stage 3 (input half): the encode/decode gate, then candidate
        // assembly and input construction. The decode itself runs in
        // `decode_batch`.
        clock.gate(Stage::EncodeDecode)?;
        let cands = assemble_candidates(db, &pre, self.mode, gold_values, false);
        let input =
            build_input_opts(db, &pre, &cands, &self.model.vocab, self.model.input_options());
        Ok(PreparedRequest { db, input, hypotheses: Vec::new(), timings: clock.finish() })
    }

    /// Decodes each prepared request in turn at the configured beam width
    /// ([`ValueNetModel::predict_beam`]; width 1 is greedy), stamping its
    /// hypotheses and adding its own decode wall time to its
    /// `encoder_decoder` timing.
    pub fn decode_batch(&self, batch: &mut [&mut PreparedRequest<'_>]) {
        for m in batch.iter_mut() {
            let t0 = Instant::now();
            {
                let _s = valuenet_obs::span("pipeline.encode_decode");
                m.hypotheses =
                    self.model.predict_beam(&m.input).into_iter().map(|(a, _)| a).collect();
            }
            m.timings.encoder_decoder += t0.elapsed();
        }
    }

    /// The per-request back half of [`Pipeline::try_translate_guarded`]:
    /// SemQL lowering and execution-guided selection over the hypotheses
    /// stamped by [`Pipeline::decode_batch`].
    ///
    /// # Errors
    /// As [`Pipeline::try_translate_guarded`], for the stages covered here.
    pub fn finish_guarded(
        &self,
        prepared: PreparedRequest<'_>,
        guard: &mut dyn FnMut(Stage) -> bool,
    ) -> Result<Prediction, PipelineError> {
        let PreparedRequest { db, input, hypotheses, timings } = prepared;
        let mut clock = StageClock { guard, timings, open: None };
        // Stages 4 + 5: lower each hypothesis (best first) and keep the
        // first whose SQL executes — execution-guided selection. With a
        // greedy decode there is exactly one hypothesis, so this reduces to
        // the paper's deterministic post-processing.
        clock.gate(Stage::PostProcess)?;
        let graph = SchemaGraph::new(db.schema());
        let resolved: Vec<ResolvedValue> =
            input.candidates.iter().map(ResolvedValue::new).collect();
        let mut chosen: Option<ChosenHypothesis> = None;
        for (i, actions) in hypotheses.iter().enumerate() {
            if i > 0 {
                // The gate above opened post-processing once; each later
                // lowering re-enters it.
                clock.enter(Stage::PostProcess);
            }
            let semql = actions_to_ast(actions).ok();
            let sql = semql
                .as_ref()
                .and_then(|tree| to_sql(tree, db.schema(), &graph, &resolved).ok());
            clock.gate(Stage::Execute)?;
            let result = sql.as_ref().and_then(|stmt| execute(db, stmt).ok());
            let executed = result.is_some();
            if let Some(tree) = semql {
                if chosen.is_none() || executed {
                    chosen = Some((actions.clone(), tree, sql, result));
                }
            }
            if executed {
                break;
            }
        }
        let timings = clock.finish();

        Ok(match chosen {
            Some((actions, semql, sql, result)) => Prediction {
                actions,
                semql: Some(semql),
                sql,
                candidates: input.candidates,
                result,
                timings,
            },
            None => Prediction {
                actions: hypotheses.into_iter().next().unwrap_or_default(),
                semql: None,
                sql: None,
                candidates: input.candidates,
                result: None,
                timings,
            },
        })
    }
}
