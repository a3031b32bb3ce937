//! Command-line interface: train a ValueNet model, save it, evaluate it,
//! and translate questions against the corpus databases.
//!
//! ```text
//! valuenet-cli train --out model.json [--mode light|full] [--train 2000]
//!                    [--dev 300] [--epochs 8] [--seed 42] [--threads N]
//! valuenet-cli eval  --model model.json [--threads N]
//! valuenet-cli ask   --model model.json --db student_pets "How many pets ...?"
//! valuenet-cli repl  --model model.json --db student_pets
//! valuenet-cli serve --model model.json --socket valuenet.sock [--workers N]
//! valuenet-cli dbs   [--seed 42]
//! ```
//!
//! `--threads N` caps the worker threads used by training and evaluation
//! (default: all available cores). Results are bit-identical for any value —
//! the flag only changes wall-clock time.

use std::io::{BufRead, Write};
use valuenet::core::{
    evaluate_with_threads, train, ModelConfig, Pipeline, TrainConfig, ValueMode, ValueNetModel,
};
use valuenet::dataset::{generate, Corpus, CorpusConfig};
use valuenet::eval::ExecOutcome;
use valuenet::preprocess::StatisticalNer;

/// Everything needed to reload a trained pipeline: weights, the trained
/// NER, the mode, and the corpus configuration (seed ⇒ identical DBs).
#[derive(serde::Serialize, serde::Deserialize)]
struct Bundle {
    model: String,
    ner: StatisticalNer,
    mode: String,
    corpus: CorpusConfig,
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// A numeric flag's value, `None` when the flag is absent. A missing or
/// malformed value exits with status 2 rather than falling back silently.
fn arg_usize_opt(args: &[String], name: &str) -> Option<usize> {
    let i = args.iter().position(|a| a == name)?;
    let got = match args.get(i + 1) {
        Some(v) => match v.parse() {
            Ok(n) => return Some(n),
            Err(_) => format!("{v:?}"),
        },
        None => "nothing".to_string(),
    };
    eprintln!("error: {name} expects a non-negative integer, got {got}");
    std::process::exit(2);
}

fn arg_usize(args: &[String], name: &str, default: usize) -> usize {
    arg_usize_opt(args, name).unwrap_or(default)
}

fn load_bundle(path: &str) -> (Pipeline, Corpus) {
    let data = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fatal(&format!("cannot read {path}: {e}")));
    let bundle: Bundle = serde_json::from_str(&data)
        .unwrap_or_else(|e| fatal(&format!("cannot parse {path}: {e}")));
    let model = ValueNetModel::from_json(&bundle.model)
        .unwrap_or_else(|e| fatal(&format!("cannot restore model: {e}")));
    let mode = match bundle.mode.as_str() {
        "light" => ValueMode::Light,
        "novalue" => ValueMode::NoValue,
        _ => ValueMode::Full,
    };
    eprintln!("regenerating corpus (seed {})...", bundle.corpus.seed);
    let corpus = generate(&bundle.corpus);
    (Pipeline::new(model, mode, bundle.ner), corpus)
}

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn cmd_train(args: &[String]) {
    let out = arg(args, "--out").unwrap_or_else(|| "model.json".to_string());
    let mode_name = arg(args, "--mode").unwrap_or_else(|| "full".to_string());
    let mode = match mode_name.as_str() {
        "light" => ValueMode::Light,
        "full" => ValueMode::Full,
        other => fatal(&format!("unknown mode '{other}' (use light|full)")),
    };
    let corpus_cfg = CorpusConfig {
        seed: arg_usize(args, "--seed", 42) as u64,
        train_size: arg_usize(args, "--train", 2000),
        dev_size: arg_usize(args, "--dev", 300),
        rows_per_table: arg_usize(args, "--rows", 30),
        surface_weights: valuenet::dataset::DEFAULT_SURFACE_WEIGHTS,
    };
    eprintln!(
        "generating corpus ({} train / {} dev)...",
        corpus_cfg.train_size, corpus_cfg.dev_size
    );
    let corpus = generate(&corpus_cfg);
    let tc = TrainConfig {
        epochs: arg_usize(args, "--epochs", 8),
        verbose: true,
        threads: arg_usize(args, "--threads", 0),
        ..Default::default()
    };
    eprintln!("training ValueNet ({mode_name} mode, {} epochs)...", tc.epochs);
    let (pipeline, report) = train(&corpus, mode, ModelConfig::default(), &tc);
    eprintln!(
        "trained on {} samples ({} skipped), final loss {:.4}",
        report.trained_samples,
        report.skipped_samples,
        report.epoch_losses.last().copied().unwrap_or(f32::NAN)
    );
    let bundle = Bundle {
        model: pipeline.model.to_json(),
        ner: pipeline.ner.clone(),
        mode: mode_name,
        corpus: corpus_cfg,
    };
    std::fs::write(&out, serde_json::to_string(&bundle).expect("serialisable"))
        .unwrap_or_else(|e| fatal(&format!("cannot write {out}: {e}")));
    println!("saved model bundle to {out}");
    if let Some(ckpt) = arg(args, "--save") {
        valuenet::nn::save_checkpoint(&ckpt, &pipeline.model.params)
            .unwrap_or_else(|e| fatal(&format!("cannot write checkpoint {ckpt}: {e}")));
        println!("saved f32 checkpoint to {ckpt}");
    }
    if let Some(ckpt) = arg(args, "--save-quant") {
        valuenet::nn::save_checkpoint_quantized(&ckpt, &pipeline.model.params)
            .unwrap_or_else(|e| fatal(&format!("cannot write checkpoint {ckpt}: {e}")));
        println!("saved int8 checkpoint to {ckpt}");
    }
}

fn cmd_eval(args: &[String]) {
    let path = arg(args, "--model").unwrap_or_else(|| fatal("--model is required"));
    let threads = arg_usize(args, "--threads", 0);
    let (mut pipeline, corpus) = load_bundle(&path);
    if let Some(ckpt) = arg(args, "--load") {
        let (params, format) = valuenet::nn::load_checkpoint(&ckpt)
            .unwrap_or_else(|e| fatal(&format!("cannot load checkpoint {ckpt}: {e}")));
        pipeline
            .model
            .load_params(params)
            .unwrap_or_else(|e| fatal(&format!("checkpoint {ckpt} does not fit this model: {e}")));
        eprintln!("loaded {format:?} checkpoint from {ckpt}");
    }
    if args.iter().any(|a| a == "--quantized") {
        pipeline.model.params.set_quantized(true);
        eprintln!("evaluating with int8 quantized weights");
    }
    let stats = evaluate_with_threads(&pipeline, &corpus, &corpus.dev, threads);
    let correct = stats.samples.iter().filter(|s| s.outcome.is_correct()).count();
    let failed_exec = stats
        .samples
        .iter()
        .filter(|s| s.outcome == ExecOutcome::PredictionFailed)
        .count();
    println!(
        "dev execution accuracy: {correct}/{} = {:.1}% ({failed_exec} failed to execute)",
        corpus.dev.len(),
        100.0 * correct as f64 / corpus.dev.len().max(1) as f64
    );
}

fn translate_one(pipeline: &Pipeline, corpus: &Corpus, db_id: &str, question: &str) {
    let Some(db_index) =
        corpus.databases.iter().position(|db| db.schema().db_id == db_id)
    else {
        let names: Vec<&str> =
            corpus.databases.iter().map(|d| d.schema().db_id.as_str()).collect();
        fatal(&format!("unknown database '{db_id}'; available: {}", names.join(", ")));
    };
    let db = &corpus.databases[db_index];
    let pred = pipeline.translate(db, question, None);
    match &pred.sql {
        Some(sql) => {
            println!("SQL: {sql}");
            match &pred.result {
                Some(rs) => print!("{rs}"),
                None => println!("(execution failed)"),
            }
        }
        None => println!("(no SQL produced; candidates were {:?})", pred.candidates),
    }
}

fn cmd_ask(args: &[String]) {
    let path = arg(args, "--model").unwrap_or_else(|| fatal("--model is required"));
    let db_id = arg(args, "--db").unwrap_or_else(|| fatal("--db is required"));
    let question = args
        .iter()
        .skip_while(|a| *a != "--db")
        .nth(2)
        .cloned()
        .unwrap_or_else(|| fatal("question text is required"));
    let (pipeline, corpus) = load_bundle(&path);
    translate_one(&pipeline, &corpus, &db_id, &question);
}

fn cmd_repl(args: &[String]) {
    let path = arg(args, "--model").unwrap_or_else(|| fatal("--model is required"));
    let db_id = arg(args, "--db").unwrap_or_else(|| fatal("--db is required"));
    let (pipeline, corpus) = load_bundle(&path);
    println!("ValueNet REPL over '{db_id}' — empty line to quit.");
    let stdin = std::io::stdin();
    loop {
        print!("nl> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let q = line.trim();
        if q.is_empty() {
            break;
        }
        translate_one(&pipeline, &corpus, &db_id, q);
    }
}

fn cmd_serve(args: &[String]) {
    use valuenet::serve::{serve_unix, Engine, ServeConfig};
    let path = arg(args, "--model").unwrap_or_else(|| fatal("--model is required"));
    let socket = arg(args, "--socket").unwrap_or_else(|| "valuenet.sock".to_string());
    let (mut pipeline, corpus) = load_bundle(&path);
    if let Some(ckpt) = arg(args, "--load") {
        let (params, format) = valuenet::nn::load_checkpoint(&ckpt)
            .unwrap_or_else(|e| fatal(&format!("cannot load checkpoint {ckpt}: {e}")));
        pipeline
            .model
            .load_params(params)
            .unwrap_or_else(|e| fatal(&format!("checkpoint {ckpt} does not fit this model: {e}")));
        eprintln!("loaded {format:?} checkpoint from {ckpt}");
    }
    if args.iter().any(|a| a == "--quantized") {
        pipeline.model.params.set_quantized(true);
        eprintln!("serving with int8 quantized weights");
    }
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        workers: arg_usize(args, "--workers", defaults.workers),
        queue_capacity: arg_usize(args, "--queue", defaults.queue_capacity),
        default_deadline_ms: arg_usize(args, "--deadline-ms", 0) as u64,
        allow_fault_injection: args.iter().any(|a| a == "--allow-faults"),
        batch_window_us: arg_usize(args, "--batch-window", defaults.batch_window_us as usize)
            as u64,
        batch_max: arg_usize(args, "--batch-max", defaults.batch_max),
        ..defaults
    };
    let engine = Engine::start(pipeline, corpus.databases, cfg);
    eprintln!(
        "serving {} databases on {socket} ({} workers, queue {}, batch window {}µs × {}); \
         send {{\"verb\":\"shutdown\"}} to stop",
        engine.database_names().len(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.batch_window_us,
        cfg.batch_max
    );
    serve_unix(engine, std::path::Path::new(&socket))
        .unwrap_or_else(|e| fatal(&format!("serve failed: {e}")));
    eprintln!("serve: drained and shut down");
}

fn cmd_dbs(args: &[String]) {
    let cfg = CorpusConfig {
        seed: arg_usize(args, "--seed", 42) as u64,
        train_size: 1,
        dev_size: 1,
        rows_per_table: arg_usize(args, "--rows", 30),
        surface_weights: valuenet::dataset::DEFAULT_SURFACE_WEIGHTS,
    };
    let corpus = generate(&cfg);
    for db in &corpus.databases {
        let schema = db.schema();
        println!("{} ({} tables, {} rows)", schema.db_id, schema.tables.len(), db.num_rows());
        for t in &schema.tables {
            let cols: Vec<&str> =
                t.columns.iter().map(|&c| schema.column(c).name.as_str()).collect();
            println!("  {}({})", t.name, cols.join(", "));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Make --threads the process-wide default so every fan-out (training,
    // evaluation) respects it even where no explicit count is plumbed.
    if let Some(t) = arg_usize_opt(&args, "--threads") {
        valuenet::par::set_threads(t);
    }
    // Observability is opt-in via environment: OBS=1 prints a span/counter
    // summary on exit; OBS_JSONL / OBS_CHROME_TRACE stream or trace the run.
    valuenet::obs::init_from_env();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("ask") => cmd_ask(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("dbs") => cmd_dbs(&args[1..]),
        _ => {
            eprintln!(
                "usage: valuenet-cli <train|eval|ask|repl|serve|dbs> [options]\n\
                 \x20 train --out model.json [--mode light|full] [--train N] [--dev N] [--epochs N] [--seed N] [--threads N]\n\
                 \x20       [--save ckpt.jsonl] [--save-quant ckpt.int8.jsonl]\n\
                 \x20 eval  --model model.json [--threads N] [--load ckpt.jsonl] [--quantized]\n\
                 \x20 ask   --model model.json --db <db_id> \"question\"\n\
                 \x20 repl  --model model.json --db <db_id>\n\
                 \x20 serve --model model.json --socket valuenet.sock [--load ckpt.jsonl] [--quantized]\n\
                 \x20       [--workers N] [--queue N] [--deadline-ms N] [--allow-faults]\n\
                 \x20       [--batch-window US] [--batch-max N]\n\
                 \x20 dbs   [--seed N]"
            );
            std::process::exit(2);
        }
    }
    valuenet::obs::finish();
}
