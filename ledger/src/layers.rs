//! Per-layer timing from outside the program: each request is replayed by
//! calling the layers' public functions one after another, with a timer
//! around each call, in the same order `Pipeline::try_translate` runs them.
//! No span is added inside the program.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_core::{
    assemble_candidates, build_input_opts, Pipeline, PreparedRequest, ValueMode, ValueNetModel,
};
use valuenet_dataset::{Corpus, Sample};
use valuenet_exec::execute;
use valuenet_nn::{Adam, AdamConfig};
use valuenet_preprocess::{
    generate_candidates, preprocess, question_hints, schema_hints, tokenize_question, Ner,
    Preprocessed, ValueKind,
};
use valuenet_schema::SchemaGraph;
use valuenet_semql::{actions_to_ast, ast_to_actions, to_sql, Action, ResolvedValue};
use valuenet_storage::{Database, InvertedIndex};
use valuenet_tensor::{pool, Graph, PackedMatrix, Tensor};

use crate::setup::Request;
use crate::stats::{mean, median, percentile, sorted, timed};
use crate::{check_sql, Gate, Report};

/// Per-layer samples accumulated over replayed requests (times in ms).
#[derive(Default)]
pub struct Replay {
    tokenize: Vec<f64>,
    ner: Vec<f64>,
    candidates: Vec<f64>,
    hints: Vec<f64>,
    candidates_n: Vec<f64>,
    selected_values: usize,
    find_similar: Vec<f64>,
    input: Vec<f64>,
    encode: Vec<f64>,
    predict: Vec<f64>,
    lower: Vec<f64>,
    execute: Vec<f64>,
    exec_ok: usize,
    rows_out: usize,
    /// `try_translate` as one call, no layer timers (the untraced unit).
    plain: Vec<f64>,
    /// The same translation replayed with a timer around every layer.
    traced: Vec<f64>,
    /// Sum of the layer timers of each traced replay.
    attributed: Vec<f64>,
    graph: Option<Graph>,
    pool_start: Option<pool::PoolStats>,
}

impl Replay {
    pub fn requests(&self) -> usize {
        self.plain.len()
    }

    /// Translates `req` once untraced and once layer by layer, checking
    /// both against the reference SQL.
    pub fn replay(&mut self, p: &Pipeline, db: &Database, req: &Request) -> Result<(), Gate> {
        self.pool_start.get_or_insert_with(pool::stats);
        // Alternate which run goes first, so neither always finds the
        // caches the other warmed.
        let plain_first = self.plain.len().is_multiple_of(2);
        if plain_first {
            self.plain_call(p, db, req)?;
        }
        self.traced_call(p, db, req)?;
        if !plain_first {
            self.plain_call(p, db, req)?;
        }
        Ok(())
    }

    fn plain_call(&mut self, p: &Pipeline, db: &Database, req: &Request) -> Result<(), Gate> {
        let q = req.question.as_str();
        let (plain, plain_ms) = timed(|| p.try_translate(db, q, None));
        let plain = plain.map_err(|e| Gate::new(q, format!("try_translate failed: {e}")))?;
        check_sql(
            q,
            &req.reference,
            &plain.sql.map(|s| s.to_string()),
            "try_translate",
        )?;
        self.plain.push(plain_ms);
        Ok(())
    }

    fn traced_call(&mut self, p: &Pipeline, db: &Database, req: &Request) -> Result<(), Gate> {
        let q = req.question.as_str();
        let t0 = Instant::now();
        let (tokens, tokenize) = timed(|| tokenize_question(q));
        let (extracted, ner) = timed(|| p.ner.extract(q, &tokens));
        let (cands, candidates) =
            timed(|| generate_candidates(&extracted, &tokens, db, &p.cand_cfg));
        let generated = cands.len();
        let (pre, hints) = timed(|| {
            let question_hints = question_hints(&tokens, db);
            let schema_hints = schema_hints(&tokens, db, &cands);
            Preprocessed {
                tokens,
                question_hints,
                schema_hints,
                candidates: cands,
            }
        });
        let (input, input_ms) = timed(|| {
            let c = assemble_candidates(db, &pre, p.mode, None, false);
            build_input_opts(db, &pre, &c, &p.model.vocab, p.model.input_options())
        });
        let (hyps, predict) = timed(|| -> Vec<Vec<Action>> {
            if p.model.config.beam_width > 1 {
                p.model
                    .predict_beam(&input)
                    .into_iter()
                    .map(|(a, _)| a)
                    .collect()
            } else {
                p.model.predict(&input).into_iter().collect()
            }
        });
        // Execution-guided selection, as the pipeline does it: lower each
        // hypothesis best first and keep the first whose SQL executes.
        let ((graph, resolved), mut lower) = timed(|| {
            let graph = SchemaGraph::new(db.schema());
            let resolved: Vec<ResolvedValue> =
                input.candidates.iter().map(ResolvedValue::new).collect();
            (graph, resolved)
        });
        let mut exec_ms = 0.0;
        let mut chosen: Option<(Option<String>, usize)> = None;
        for actions in &hyps {
            let ((semql, sql), l) = timed(|| {
                let semql = actions_to_ast(actions).ok();
                let sql = semql
                    .as_ref()
                    .and_then(|t| to_sql(t, db.schema(), &graph, &resolved).ok());
                (semql, sql)
            });
            lower += l;
            let mut executed = false;
            if let Some(stmt) = &sql {
                let (res, e) = timed(|| execute(db, stmt));
                exec_ms += e;
                self.execute.push(e);
                if let Ok(rs) = res {
                    executed = true;
                    self.exec_ok += 1;
                    self.rows_out += rs.rows.len();
                }
            }
            if semql.is_some() && (chosen.is_none() || executed) {
                let values = actions.iter().filter(|a| matches!(a, Action::V(_))).count();
                chosen = Some((sql.map(|s| s.to_string()), values));
            }
            if executed {
                break;
            }
        }
        let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (sql, values) = chosen.unwrap_or((None, 0));
        check_sql(q, &req.reference, &sql, "layer replay")?;

        // Outside the traced unit: the encoder alone, and the similarity
        // searches candidate generation made.
        let g = self.graph.get_or_insert_with(Graph::new);
        g.reset();
        g.set_inference(true);
        let (_encodings, encode) = timed(|| p.model.encode(g, &input, None));
        for v in &extracted {
            let text = v.text.trim();
            if p.cand_cfg.enable_similarity
                && matches!(v.kind, ValueKind::Capitalized | ValueKind::Statistical)
                && !text.is_empty()
            {
                let cap = p
                    .cand_cfg
                    .max_distance
                    .min((text.chars().count() / 3).max(1));
                let (_, ms) = timed(|| db.index().find_similar(text, cap).len());
                self.find_similar.push(ms);
            }
        }

        self.tokenize.push(tokenize);
        self.ner.push(ner);
        self.candidates.push(candidates);
        self.hints.push(hints);
        self.candidates_n.push(generated as f64);
        self.selected_values += values;
        self.input.push(input_ms);
        self.encode.push(encode);
        self.predict.push(predict);
        self.lower.push(lower);
        self.traced.push(traced_ms);
        self.attributed
            .push(tokenize + ner + candidates + hints + input_ms + predict + lower + exec_ms);
        Ok(())
    }

    /// Adds the preprocess, storage, core, semql, exec and pool metrics.
    pub fn report(&self, r: &mut Report) {
        let n = self.requests().max(1) as f64;
        r.metric("preprocess.tokenize_ms", mean(&self.tokenize), "ms");
        r.metric("preprocess.ner_ms", mean(&self.ner), "ms");
        r.metric("preprocess.candidates_ms", mean(&self.candidates), "ms");
        r.metric("preprocess.hints_ms", mean(&self.hints), "ms");
        r.metric("preprocess.candidates_n", mean(&self.candidates_n), "count");
        let generated: f64 = self.candidates_n.iter().sum();
        r.metric(
            "preprocess.candidate_use_frac",
            self.selected_values as f64 / generated.max(1.0),
            "ratio",
        );
        r.metric("storage.find_similar_ms", mean(&self.find_similar), "ms");
        r.metric("core.input_ms", mean(&self.input), "ms");
        r.metric("core.encode_ms", mean(&self.encode), "ms");
        r.metric(
            "core.decode_ms",
            (mean(&self.predict) - mean(&self.encode)).max(0.0),
            "ms",
        );
        r.metric("semql.lower_ms", mean(&self.lower), "ms");
        let exec = sorted(self.execute.clone());
        r.metric("exec.execute_ms.p50", percentile(&exec, 0.5), "ms");
        r.metric("exec.execute_ms.p99", percentile(&exec, 0.99), "ms");
        r.metric("exec.calls_per_request", exec.len() as f64 / n, "count");
        r.metric(
            "exec.ok_frac",
            self.exec_ok as f64 / exec.len().max(1) as f64,
            "ratio",
        );
        r.metric(
            "exec.rows_out",
            self.rows_out as f64 / self.exec_ok.max(1) as f64,
            "count",
        );
        let pool_hit = match self.pool_start {
            Some(start) => pool::stats().since(&start).hit_rate(),
            None => 0.0,
        };
        r.metric("tensor.pool_hit_rate", pool_hit, "ratio");
    }

    /// Share of the untraced translation time that no layer timer covers.
    pub fn unattributed_frac(&self) -> f64 {
        let plain: f64 = self.plain.iter().sum();
        1.0 - self.attributed.iter().sum::<f64>() / plain.max(1e-9)
    }

    /// How much slower the layer-timed replay ran than the untraced calls.
    pub fn trace_overhead_frac(&self) -> f64 {
        let plain: f64 = self.plain.iter().sum();
        self.traced.iter().sum::<f64>() / plain.max(1e-9) - 1.0
    }
}

/// `InvertedIndex::build` per database, ms (mean over the corpus).
pub fn index_build_ms(corpus: &Corpus) -> f64 {
    let times: Vec<f64> = corpus
        .databases
        .iter()
        .map(|db| timed(|| InvertedIndex::build(db)).1)
        .collect();
    mean(&times)
}

/// `Pipeline::decode_batch` over N prepared requests, divided by N, for
/// N = 1, 2, 4, 8 (median over `reps` batches of different requests).
pub fn decode_members(
    p: &Pipeline,
    corpus: &Corpus,
    requests: &[Request],
    reps: usize,
    r: &mut Report,
) {
    let pool: Vec<&Request> = requests.iter().take(16).collect();
    let mut prepared: Vec<PreparedRequest<'_>> = pool
        .iter()
        .map(|q| {
            p.prepare_guarded(
                &corpus.databases[q.db_index],
                &q.question,
                None,
                &mut |_| true,
            )
            .expect("prepare without a guard cannot abort")
        })
        .collect();
    let len = prepared.len();
    for n in [1usize, 2, 4, 8] {
        let mut per_member = Vec::with_capacity(reps);
        for rep in 0..reps {
            let first = (rep * n) % len;
            let picked: Vec<usize> = (0..n.min(len)).map(|j| (first + j) % len).collect();
            let mut batch: Vec<&mut PreparedRequest<'_>> = prepared
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| picked.contains(i))
                .map(|(_, m)| m)
                .collect();
            let (_, ms) = timed(|| p.decode_batch(&mut batch));
            per_member.push(ms / batch.len() as f64);
        }
        r.metric(
            format!("core.decode_member_ms.b{n}"),
            median(&per_member),
            "ms",
        );
    }
}

/// Maps the gold tree's value references to candidate positions, as the
/// trainer does; `None` when a gold value is not among the candidates.
fn gold_actions(sample: &Sample, candidates: &[String]) -> Option<Vec<Action>> {
    ast_to_actions(&sample.semql)
        .into_iter()
        .map(|a| match a {
            Action::V(i) => {
                let gold = sample.values.get(i)?;
                candidates
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(gold))
                    .map(Action::V)
            }
            other => Some(other),
        })
        .collect()
}

/// Mean per-sample ms of the training-path layers.
pub struct TrainStep {
    pub loss: f64,
    pub backward: f64,
    /// `ParamStore::collect_grads`, which the trainer runs per sample.
    pub collect: f64,
    /// `Adam::step_collected`, which the trainer runs once per batch.
    pub adam: f64,
    /// The same step under one timer, and under the four layer timers.
    plain: f64,
    traced: f64,
}

impl TrainStep {
    /// How much slower a step ran with a timer around each layer.
    pub fn overhead(&self) -> f64 {
        self.traced / self.plain.max(1e-9) - 1.0
    }
}

/// Training-path layers over up to `samples` training questions, on a
/// freshly initialised model of the pipeline's architecture (so the served
/// weights stay untouched): `ValueNetModel::loss`, `Graph::backward`,
/// `ParamStore::collect_grads` and `Adam::step_collected`, as the trainer
/// calls them. Each sample steps twice, once under a single timer and once
/// with a timer per layer.
pub fn train_step(p: &Pipeline, corpus: &Corpus, samples: usize, seed: u64) -> TrainStep {
    let mut model = ValueNetModel::new(p.model.config.clone(), p.model.vocab.clone(), seed);
    let mut adam = Adam::new(
        &model.params,
        AdamConfig {
            group_lrs: vec![2e-3; 3],
            ..AdamConfig::default()
        },
    );
    let mut g = Graph::new();
    let (mut loss_ms, mut backward_ms, mut collect_ms, mut adam_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, sample) in corpus.train.iter().enumerate() {
        if loss_ms.len() >= samples {
            break;
        }
        let db = corpus.db(sample);
        let pre = preprocess(&sample.question, db, &p.ner, &p.cand_cfg);
        let cands = assemble_candidates(db, &pre, ValueMode::Full, Some(&sample.values), true);
        let texts: Vec<String> = cands.iter().map(|(t, _)| t.clone()).collect();
        let Some(actions) = gold_actions(sample, &texts) else {
            continue;
        };
        let input = build_input_opts(db, &pre, &cands, &model.vocab, model.input_options());
        let mut rng = SmallRng::seed_from_u64(seed ^ i as u64);
        g.set_inference(false);
        // Alternate which run goes first, as in the translation replay.
        let traced_first = loss_ms.len() % 2 == 1;
        for with_timers in [traced_first, !traced_first] {
            g.reset();
            if with_timers {
                let t0 = Instant::now();
                let (loss, l) = timed(|| model.loss(&mut g, &input, &actions, Some(&mut rng)));
                let (grads, b) = timed(|| g.backward(loss));
                let (collected, c) = timed(|| model.params.collect_grads(&grads));
                let (_, a) = timed(|| adam.step_collected(&mut model.params, collected));
                traced.push(t0.elapsed().as_secs_f64() * 1e3);
                loss_ms.push(l);
                backward_ms.push(b);
                collect_ms.push(c);
                adam_ms.push(a);
            } else {
                let (_, whole) = timed(|| {
                    let loss = model.loss(&mut g, &input, &actions, Some(&mut rng));
                    let grads = g.backward(loss);
                    let collected = model.params.collect_grads(&grads);
                    adam.step_collected(&mut model.params, collected);
                });
                plain.push(whole);
            }
        }
    }
    TrainStep {
        loss: mean(&loss_ms),
        backward: mean(&backward_ms),
        collect: mean(&collect_ms),
        adam: mean(&adam_ms),
        plain: mean(&plain),
        traced: mean(&traced),
    }
}

/// The default model's hot matmul shapes (activations n×k against a k×m
/// weight): a beam row against the decoder's gate weights, the beam-4 LSTM
/// step, and the encoder's self-attention projections.
const SHAPES: [(usize, usize, usize); 3] = [(1, 64, 256), (4, 48, 192), (24, 64, 64)];

/// GFLOP/s of `Tensor::matmul` and `PackedMatrix::matmul` at the dispatched
/// SIMD tier. FLOPs are computed from the shapes (2·n·k·m per product), not
/// counted by hardware.
pub fn kernels(target_flops: f64, r: &mut Report) {
    let data = |len: usize, salt: u32| -> Vec<f32> {
        (0..len as u32)
            .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % 1000) as f32 / 1000.0 - 0.5)
            .collect()
    };
    for (n, k, m) in SHAPES {
        let a = Tensor::from_vec(n, k, data(n * k, 1));
        let w = Tensor::from_vec(k, m, data(k * m, 2));
        let packed = PackedMatrix::from_tensor(&w);
        let flops = (2 * n * k * m) as f64;
        let iters = ((target_flops / flops) as usize).max(20);
        let gflops = |f: &dyn Fn() -> Tensor| {
            let reps: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..iters {
                        drop(std::hint::black_box(f()));
                    }
                    flops * iters as f64 / t.elapsed().as_secs_f64().max(1e-12) / 1e9
                })
                .collect();
            median(&reps)
        };
        let dense = gflops(&|| std::hint::black_box(&a).matmul(&w));
        let pk = gflops(&|| packed.matmul(std::hint::black_box(&a)));
        r.metric(
            format!("tensor.matmul_gflops.dense.{n}x{k}x{m}"),
            dense,
            "GFLOP/s",
        );
        r.metric(
            format!("tensor.matmul_gflops.packed.{n}x{k}x{m}"),
            pk,
            "GFLOP/s",
        );
    }
}

/// The per-layer metrics that only exist on the serving workload, reported
/// as zero elsewhere so every traced run prints the same metric set.
pub fn zero_serve_metrics(r: &mut Report) {
    for (name, unit) in SERVE_METRICS {
        r.metric(name, 0.0, unit);
    }
}

const SERVE_METRICS: [(&str, &str); 7] = [
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.p99_ms_peak", "ms"),
];

/// The layers every traced run measures the same way, whatever its headline:
/// index build, decode batching, the training path and the kernels.
/// `step` comes from [`train_step`], which the caller runs when it wants
/// it timed (the `train` workload runs it right beside the trainer).
pub fn common(
    p: &Pipeline,
    corpus: &Corpus,
    requests: &[Request],
    quick: bool,
    step: &TrainStep,
    r: &mut Report,
) {
    r.metric("storage.index_build_ms", index_build_ms(corpus), "ms");
    decode_members(p, corpus, requests, if quick { 2 } else { 8 }, r);
    r.metric("core.loss_ms", step.loss, "ms");
    r.metric("tensor.backward_ms", step.backward, "ms");
    r.metric("nn.collect_grads_ms", step.collect, "ms");
    r.metric("nn.adam_step_ms", step.adam, "ms");
    kernels(if quick { 2.0e6 } else { 4.0e7 }, r);
}

/// Training samples [`train_step`] times.
pub fn step_samples(quick: bool) -> usize {
    if quick {
        4
    } else {
        24
    }
}
