//! Workload set-up: corpus generation, training, and the in-process
//! reference translations that the correctness gate compares against.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use valuenet_core::{train, ModelConfig, Pipeline, TrainConfig, ValueMode, ValueNetModel};
use valuenet_dataset::{generate, Corpus, CorpusConfig};
use valuenet_eval::{execution_accuracy, ExecOutcome};
use valuenet_sql::parse_select;

use crate::Gate;

/// Corpus and training size of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub train: usize,
    pub dev: usize,
    pub rows: usize,
    pub epochs: usize,
}

/// What every workload decodes with: the CLI's `train` configuration at
/// beam width 4, where batching and execution-guided selection have work.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        beam_width: 4,
        ..ModelConfig::default()
    }
}

/// Every run measures the same dataset (databases, training and dev
/// questions) and the same trained model, like a benchmark built on a fixed
/// dataset; the workload seed drives the request stream instead (see
/// [`shuffle`]). Across seeds, a run then differs in what it is asked and in
/// what order, not in which system answers.
pub const DATASET_SEED: u64 = 42;

/// The trainer's seed (initial weights, shuffling, dropout).
pub const TRAIN_SEED: u64 = 1;

pub fn corpus(scale: Scale) -> Corpus {
    generate(&CorpusConfig {
        seed: DATASET_SEED,
        train_size: scale.train,
        dev_size: scale.dev,
        rows_per_table: scale.rows,
        ..CorpusConfig::default()
    })
}

pub fn train_config(epochs: usize, threads: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        threads,
        seed: TRAIN_SEED,
        ..TrainConfig::default()
    }
}

/// A seeded permutation: the workload seed's say over a run's inputs.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    items.shuffle(&mut SmallRng::seed_from_u64(seed));
}

/// A fingerprint of the request stream (questions in order), stamped on the
/// record so two runs can tell whether they were asked the same things.
pub fn digest(requests: &[Request]) -> String {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    for r in requests {
        r.question.hash(&mut h);
    }
    format!("{:016x}", h.finish())
}

/// One dev question with the SQL the in-process pipeline produced for it
/// (`None` when `try_translate` synthesized no SQL).
#[derive(Debug, Clone)]
pub struct Request {
    pub db_index: usize,
    pub db: String,
    pub question: String,
    pub reference: Option<String>,
}

/// A trained pipeline over its corpus, with the dev questions' references.
pub struct Ready {
    pub corpus: Corpus,
    pub pipeline: Pipeline,
    pub requests: Vec<Request>,
    /// Dev execution accuracy, %.
    pub accuracy: f64,
    pub generate_s: f64,
}

/// Translates every dev question, keeping the SQL as the reference and
/// scoring execution accuracy against the gold query.
pub fn references(pipeline: &Pipeline, corpus: &Corpus) -> Result<(Vec<Request>, f64), Gate> {
    let mut requests = Vec::with_capacity(corpus.dev.len());
    let (mut correct, mut scored) = (0usize, 0usize);
    for s in &corpus.dev {
        let db = &corpus.databases[s.db_index];
        let pred = pipeline
            .try_translate(db, &s.question, None)
            .map_err(|e| Gate::new(&s.question, format!("try_translate failed: {e}")))?;
        let gold = parse_select(&s.sql).expect("gold SQL parses by construction");
        let outcome = match &pred.sql {
            Some(sql) => execution_accuracy(db, sql, &gold),
            None => ExecOutcome::PredictionFailed,
        };
        if outcome != ExecOutcome::GoldFailed {
            scored += 1;
            correct += usize::from(outcome.is_correct());
        }
        requests.push(Request {
            db_index: s.db_index,
            db: s.db_id.clone(),
            question: s.question.clone(),
            reference: pred.sql.map(|q| q.to_string()),
        });
    }
    Ok((requests, 100.0 * correct as f64 / scored.max(1) as f64))
}

/// Generates the corpus, trains the pipeline and computes the references.
pub fn build(scale: Scale, threads: usize) -> Result<Ready, Gate> {
    let t = Instant::now();
    let corpus = corpus(scale);
    let generate_s = t.elapsed().as_secs_f64();
    let (pipeline, _) = train(
        &corpus,
        ValueMode::Full,
        model_config(),
        &train_config(scale.epochs, threads),
    );
    let (requests, accuracy) = references(&pipeline, &corpus)?;
    Ok(Ready {
        corpus,
        pipeline,
        requests,
        accuracy,
        generate_s,
    })
}

/// A bit-identical second pipeline (model JSON round trip), for replays
/// that must run while the first one is owned by the serving engine.
pub fn clone_pipeline(p: &Pipeline) -> Pipeline {
    let model = ValueNetModel::from_json(&p.model.to_json()).expect("model JSON round-trips");
    let mut out = Pipeline::new(model, p.mode, p.ner.clone());
    out.cand_cfg = p.cand_cfg.clone();
    out
}

/// Repeated set-ups must agree: training and translation are deterministic
/// for a seed, so a difference is a correctness failure.
pub fn same_references(a: &[Request], b: &[Request]) -> Result<(), Gate> {
    for (x, y) in a.iter().zip(b) {
        if x.reference != y.reference {
            return Err(Gate::new(
                &x.question,
                format!(
                    "repeated set-up changed the SQL: {:?} vs {:?}",
                    x.reference, y.reference
                ),
            ));
        }
    }
    Ok(())
}
