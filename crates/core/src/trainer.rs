//! Training: teacher forcing with Adam and the paper's three learning-rate
//! groups (encoder / decoder / connection parameters, Section V-C).
//!
//! The forward/backward pass of every sample in a gradient-accumulation
//! batch is independent (each builds its own [`Graph`] against the shared,
//! read-only parameter store), so batches fan out over
//! [`valuenet_par::par_map`]. Determinism is preserved by construction:
//!
//! * shuffling uses a dedicated RNG (`seed + 1`) touched only between
//!   epochs;
//! * dropout uses a *per-sample* RNG derived from `(seed, epoch, sample
//!   index)`, so the noise a sample sees is a pure function of the
//!   configuration — not of which worker ran it first;
//! * per-sample gradients are summed **in sample order** before the Adam
//!   step, so f32 accumulation order is canonical.
//!
//! As a result `epoch_losses` and the final weights are bit-identical for
//! any `threads` setting, including the inline `threads = 1` path.

use crate::input::{build_input_opts, ModelInput};
use crate::model::{ModelConfig, ValueNetModel};
use crate::pipeline::{assemble_candidates, Pipeline, ValueMode};
use crate::vocab::Vocab;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use valuenet_dataset::{Corpus, Sample};
use valuenet_nn::{Adam, AdamConfig, ParamId};
use valuenet_preprocess::{preprocess, CandidateConfig, StatisticalNer, tokenize_question};
use valuenet_semql::{ast_to_actions, Action};
use valuenet_tensor::{Graph, Tensor};

/// Training hyper-parameters. The three learning rates mirror the paper's
/// grouping; since our encoder trains from scratch (no pretrained BERT), all
/// three default to the same magnitude.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Encoder learning rate (paper: 2e-5 for BERT fine-tuning).
    pub lr_encoder: f32,
    /// Decoder learning rate (paper: 1e-3).
    pub lr_decoder: f32,
    /// Connection-parameter learning rate (paper: 1e-4).
    pub lr_connection: f32,
    /// Gradient-accumulation batch size (paper: 20).
    pub batch_size: usize,
    /// Worker threads for the in-batch fan-out (`0` = the process-wide
    /// default, see [`valuenet_par::resolve_threads`]). Any value produces
    /// bit-identical results; it only changes wall-clock time.
    pub threads: usize,
    /// RNG seed (shuffling, dropout).
    pub seed: u64,
    /// Print progress to stderr.
    pub verbose: bool,
    /// Candidate-pipeline configuration (ablation knob; see
    /// `CandidateConfig`'s `enable_*` flags).
    pub cand_cfg: CandidateConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            lr_encoder: 2e-3,
            lr_decoder: 2e-3,
            lr_connection: 2e-3,
            batch_size: 16,
            threads: 0,
            seed: 1,
            verbose: false,
            cand_cfg: CandidateConfig::default(),
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Number of usable training samples.
    pub trained_samples: usize,
    /// Samples skipped (gold value unmappable to a candidate).
    pub skipped_samples: usize,
}

struct PreparedSample {
    input: ModelInput,
    actions: Vec<Action>,
}

/// Derives the dropout-RNG seed of one `(epoch, sample)` pass from the
/// configured seed: a SplitMix64-style finaliser over the three inputs, so
/// every pass gets an independent stream that does not depend on execution
/// order or thread count.
fn sample_seed(seed: u64, epoch: usize, index: usize) -> u64 {
    let mut z = seed
        ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the vocabulary: training questions, every schema's names, and the
/// distinct database values (standing in for the pretrained word-piece
/// coverage of the original system; see `DESIGN.md`).
fn build_vocab(corpus: &Corpus) -> Vocab {
    let mut texts: Vec<String> = Vec::new();
    for s in &corpus.train {
        texts.push(s.question.to_lowercase());
    }
    for db in &corpus.databases {
        for t in &db.schema().tables {
            texts.push(t.display.clone());
        }
        for c in &db.schema().columns {
            texts.push(c.display.clone());
        }
        // Database content words give the encoder word-piece-like coverage
        // of value candidates. Purely numeric values are skipped (each is a
        // unique, meaningless token) and each column is capped so the
        // vocabulary — and with it the embedding table the optimiser walks —
        // stays bounded on large databases.
        for (i, _) in db.schema().columns.iter().enumerate() {
            for v in db
                .index()
                .distinct_values(valuenet_schema::ColumnId(i))
                .iter()
                .filter(|v| v.parse::<f64>().is_err())
                .take(300)
            {
                texts.push(v.to_lowercase());
            }
        }
    }
    Vocab::build(texts.iter().map(String::as_str))
}

/// Trains the statistical NER on the train split (question tokens labelled
/// by whether they belong to a gold value surface).
fn train_ner(corpus: &Corpus) -> StatisticalNer {
    let mut ner = StatisticalNer::new();
    let examples: Vec<(Vec<valuenet_preprocess::Token>, Vec<String>)> = corpus
        .train
        .iter()
        .map(|s| {
            let tokens = tokenize_question(&s.question);
            let surfaces: Vec<String> = s
                .value_infos
                .iter()
                .filter(|v| !v.implicit)
                .map(|v| v.question_text.clone())
                .collect();
            (tokens, surfaces)
        })
        .collect();
    ner.fit(&examples);
    ner
}

/// Remaps the gold tree's `ValueRef`s (indices into `sample.values`) to
/// indices into the candidate list. Returns `None` when a gold value is not
/// among the candidates.
fn remap_actions(sample: &Sample, candidates: &[String]) -> Option<Vec<Action>> {
    let actions = ast_to_actions(&sample.semql);
    actions
        .into_iter()
        .map(|a| match a {
            Action::V(i) => {
                let gold = sample.values.get(i)?;
                let idx =
                    candidates.iter().position(|c| c.eq_ignore_ascii_case(gold))?;
                Some(Action::V(idx))
            }
            other => Some(other),
        })
        .collect()
}

/// Trains a ValueNet model on the corpus's training split and returns the
/// ready-to-use [`Pipeline`] together with a [`TrainReport`].
pub fn train(
    corpus: &Corpus,
    mode: ValueMode,
    model_cfg: ModelConfig,
    cfg: &TrainConfig,
) -> (Pipeline, TrainReport) {
    let _span = valuenet_obs::span("train");
    let prep_span = valuenet_obs::span("train.prepare");
    let vocab = build_vocab(corpus);
    let ner = train_ner(corpus);
    let cand_cfg = cfg.cand_cfg.clone();

    // Precompute inputs and remapped gold actions once.
    let mut prepared = Vec::with_capacity(corpus.train.len());
    let mut skipped = 0;
    for sample in &corpus.train {
        let db = corpus.db(sample);
        let pre = preprocess(&sample.question, db, &ner, &cand_cfg);
        let cands = assemble_candidates(db, &pre, mode, Some(&sample.values), true);
        let cand_texts: Vec<String> = cands.iter().map(|(t, _)| t.clone()).collect();
        let Some(actions) = remap_actions(sample, &cand_texts) else {
            skipped += 1;
            continue;
        };
        let input = build_input_opts(
            db,
            &pre,
            &cands,
            &vocab,
            crate::input::InputOptions {
                use_hints: model_cfg.use_hints,
                encode_value_location: model_cfg.encode_value_location,
            },
        );
        prepared.push(PreparedSample { input, actions });
    }
    drop(prep_span);

    let model = ValueNetModel::new(model_cfg, vocab, cfg.seed);
    let mut opt = Adam::new(
        &model.params,
        AdamConfig {
            group_lrs: vec![cfg.lr_encoder, cfg.lr_decoder, cfg.lr_connection],
            ..Default::default()
        },
    );

    let mut model = model;
    // Shuffle-only RNG: dropout draws from per-sample streams (below), so
    // the epoch ordering is the sole consumer of this generator.
    let mut shuffle_rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let mut order: Vec<usize> = (0..prepared.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    // Per-LR-group learning rates are constant across the run; record them
    // once so the run report can join them with the per-group grad norms.
    valuenet_obs::metric("train.lr.encoder", 0, cfg.lr_encoder as f64);
    valuenet_obs::metric("train.lr.decoder", 0, cfg.lr_decoder as f64);
    valuenet_obs::metric("train.lr.connection", 0, cfg.lr_connection as f64);
    for epoch in 0..cfg.epochs {
        let epoch_span = valuenet_obs::span("train.epoch");
        let epoch_start = std::time::Instant::now();
        order.shuffle(&mut shuffle_rng);
        let mut epoch_loss = 0.0;
        // Squared L2 grad norm per learning-rate group, summed over batches.
        let mut group_sq = [0.0f64; 3];
        for batch in order.chunks(cfg.batch_size.max(1)) {
            let _batch_span = valuenet_obs::span("train.batch");
            // Fan the independent per-sample passes out over the workers;
            // par_map returns results in batch order regardless of timing.
            let passes = valuenet_par::par_map(batch, cfg.threads, |_, &i| {
                let _sample_span = valuenet_obs::span("train.sample");
                let sample = &prepared[i];
                // One tape per thread, recycled across samples: the node
                // vector's capacity (and, via the buffer pool, every tensor
                // it held) survives from one pass to the next on the same
                // thread. At `threads = 1` that is the whole run; at
                // `threads >= 2` `par_map` spawns fresh workers for every
                // batch, so a worker's tape and pool last one batch.
                thread_local! {
                    static TAPE: std::cell::RefCell<Graph> = std::cell::RefCell::new(Graph::new());
                }
                TAPE.with(|tape| {
                    let mut g = tape.borrow_mut();
                    g.reset();
                    let mut rng = SmallRng::seed_from_u64(sample_seed(cfg.seed, epoch, i));
                    let (loss, loss_value) = {
                        let _s = valuenet_obs::span("train.forward");
                        let loss =
                            model.loss(&mut g, &sample.input, &sample.actions, Some(&mut rng));
                        let v = g.value(loss).scalar_value();
                        (loss, v)
                    };
                    let _s = valuenet_obs::span("train.backward");
                    let grads = g.backward(loss);
                    let collected = model.params.collect_grads(&grads);
                    // Drop the nodes now, not at the next pass, so that no
                    // tape holds the packed panels when Adam repacks them.
                    g.reset();
                    (loss_value, collected)
                })
            });
            // Reduce in sample order so f32 sums are canonical. The slot map
            // is indexed by `ParamId::index()`, making each accumulation an
            // O(1) lookup instead of a linear scan over the parameters seen
            // so far (which made batch reduction quadratic in model size).
            let mut slots: Vec<Option<(ParamId, Tensor)>> = Vec::new();
            slots.resize_with(model.params.len(), || None);
            let mut touched: Vec<usize> = Vec::new();
            for (loss_value, grads) in passes {
                epoch_loss += loss_value;
                for (id, grad) in grads {
                    match &mut slots[id.index()] {
                        Some((_, acc)) => acc.add_assign(&grad),
                        slot @ None => {
                            touched.push(id.index());
                            *slot = Some((id, grad));
                        }
                    }
                }
            }
            // First-seen order equals the old push order, so the f32 sums —
            // and therefore training — are unchanged.
            let mut batch_grads: Vec<(ParamId, Tensor)> = Vec::with_capacity(touched.len());
            for idx in touched {
                batch_grads.push(slots[idx].take().expect("touched slot is filled"));
            }
            // Average over the batch before the Adam step.
            let scale = 1.0 / batch.len() as f32;
            for (_, grad) in &mut batch_grads {
                for x in grad.as_mut_slice() {
                    *x *= scale;
                }
            }
            if valuenet_obs::enabled() {
                for (id, grad) in &batch_grads {
                    let group = model.params.group(*id).min(2);
                    group_sq[group] += grad.as_slice().iter().map(|&x| (x as f64) * x as f64).sum::<f64>();
                }
            }
            opt.step_collected(&mut model.params, batch_grads);
        }
        let mean = epoch_loss / prepared.len().max(1) as f32;
        epoch_losses.push(mean);
        drop(epoch_span);
        let e = epoch as u64;
        valuenet_obs::metric("train.epoch_loss", e, mean as f64);
        let secs = epoch_start.elapsed().as_secs_f64();
        if secs > 0.0 {
            valuenet_obs::metric("train.examples_per_sec", e, prepared.len() as f64 / secs);
        }
        valuenet_obs::metric("train.grad_norm", e, group_sq.iter().sum::<f64>().sqrt());
        valuenet_obs::metric("train.grad_norm.encoder", e, group_sq[0].sqrt());
        valuenet_obs::metric("train.grad_norm.decoder", e, group_sq[1].sqrt());
        valuenet_obs::metric("train.grad_norm.connection", e, group_sq[2].sqrt());
        if cfg.verbose {
            eprintln!("epoch {:>2}/{}: mean loss {mean:.4}", epoch + 1, cfg.epochs);
        }
    }

    let report = TrainReport {
        epoch_losses,
        trained_samples: prepared.len(),
        skipped_samples: skipped,
    };
    let mut pipeline = Pipeline::new(model, mode, ner);
    pipeline.cand_cfg = cand_cfg;
    (pipeline, report)
}
