//! Command-line interface: train a ValueNet model, save it, evaluate it,
//! and translate questions against the corpus databases.
//!
//! Run it without arguments for the usage. Each subcommand accepts only its
//! own flags, each at most once: an unknown or repeated flag exits with
//! status 2, naming it, before any work. `ask`'s question is its one
//! positional argument, wherever it sits among the flags.
//!
//! The model file is one checkpoint (`valuenet::nn::checkpoint`): the f32
//! weights plus a meta record carrying the model config and vocabulary, the
//! trained NER, the value mode and the corpus config, so `--model` alone
//! restores the pipeline and regenerates the corpus from its seed.
//!
//! `--threads N` caps the worker threads used by training and evaluation
//! (default: all available cores). Results are bit-identical for any value —
//! the flag only changes wall-clock time.

use std::io::{BufRead, Write};
use valuenet::core::{
    evaluate_with_threads, train, ModelConfig, Pipeline, PipelineError, TrainConfig, ValueMode,
    ValueNetModel,
};
use valuenet::dataset::{generate, Corpus, CorpusConfig};
use valuenet::eval::ExecOutcome;
use valuenet::nn::{read_checkpoint, CheckpointError};
use valuenet::obs::json::Json;
use valuenet::preprocess::StatisticalNer;

/// The flags a subcommand accepts. Every list has `--threads`, which
/// `main` applies to every subcommand.
fn flags_of(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "train" => &[
            "--out", "--mode", "--train", "--dev", "--epochs", "--seed", "--rows", "--threads",
        ],
        "eval" => &["--model", "--threads"],
        "ask" | "repl" => &["--model", "--db", "--threads"],
        "serve" => &[
            "--model", "--socket", "--workers", "--queue", "--deadline-ms", "--allow-faults",
            "--threads",
        ],
        "dbs" => &["--seed", "--rows", "--threads"],
        _ => return None,
    })
}

/// Checks every flag in `args` against `flags` and returns the positional
/// arguments. An unknown flag, or one given twice, exits with status 2,
/// naming it. Every flag but the `--allow-faults` switch takes a value.
fn positionals<'a>(cmd: &str, args: &'a [String], flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            out.push(a);
            continue;
        }
        if !flags.contains(&a) {
            eprintln!("error: unknown flag {a} for `{cmd}`");
            std::process::exit(2);
        }
        if seen.contains(&a) {
            eprintln!("error: flag {a} given twice for `{cmd}`");
            std::process::exit(2);
        }
        seen.push(a);
        if a != "--allow-faults" {
            it.next();
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: valuenet-cli <train|eval|ask|repl|serve|dbs> [options] [--threads N]\n\
         \x20 train --out model.jsonl [--mode light|full] [--train N] [--dev N] [--epochs N] [--seed N]\n\
         \x20       [--rows N] [--threads N]\n\
         \x20 eval  --model model.jsonl [--threads N]\n\
         \x20 ask   --model model.jsonl --db <db_id> \"question\"\n\
         \x20 repl  --model model.jsonl --db <db_id>\n\
         \x20 serve --model model.jsonl --socket valuenet.sock\n\
         \x20       [--workers N] [--queue N] [--deadline-ms N] [--allow-faults]\n\
         \x20 dbs   [--seed N] [--rows N]"
    );
    std::process::exit(2);
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

/// [`arg_usize`] for a count that must be at least 1.
fn arg_positive(args: &[String], name: &str, default: usize) -> usize {
    let n = arg_usize(args, name, default);
    if n == 0 {
        eprintln!("error: {name} must be at least 1, got 0");
        std::process::exit(2);
    }
    n
}

/// The value modes `train --mode` accepts, by name.
fn mode_named(name: &str) -> Option<ValueMode> {
    match name {
        "light" => Some(ValueMode::Light),
        "full" => Some(ValueMode::Full),
        _ => None,
    }
}

/// Restores the pipeline a model file describes and the corpus config it
/// was trained on.
fn read_model(path: &str) -> Result<(Pipeline, CorpusConfig), CheckpointError> {
    let ck = read_checkpoint(&std::fs::read_to_string(path)?)?;
    let ner = ck.meta_field("ner", StatisticalNer::from_json)?;
    let mode = ck.meta_field("mode", |v| {
        let name = v.as_str().ok_or("expected a string")?;
        mode_named(name).ok_or_else(|| format!("unknown mode `{name}` (expected light|full)"))
    })?;
    let corpus = ck.meta_field("corpus", CorpusConfig::from_json)?;
    let model = ValueNetModel::from_checkpoint(ck)?;
    Ok((Pipeline::new(model, mode, ner), corpus))
}

/// [`read_model`] for the `--model` flag, then the corpus regenerated from
/// the stored seed.
fn load_model(args: &[String]) -> (Pipeline, Corpus) {
    let path = arg(args, "--model").unwrap_or_else(|| fatal("--model is required"));
    let (pipeline, corpus_cfg) =
        read_model(&path).unwrap_or_else(|e| fatal(&format!("cannot load {path}: {e}")));
    eprintln!("loaded model from {path}");
    eprintln!("regenerating corpus (seed {})...", corpus_cfg.seed);
    (pipeline, generate(&corpus_cfg))
}

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn cmd_train(args: &[String]) {
    let out = arg(args, "--out").unwrap_or_else(|| "model.jsonl".to_string());
    let mode_name = arg(args, "--mode").unwrap_or_else(|| "full".to_string());
    let mode = mode_named(&mode_name)
        .unwrap_or_else(|| fatal(&format!("unknown mode '{mode_name}' (use light|full)")));
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
    let extra = vec![
        ("ner", pipeline.ner.to_json()),
        ("mode", Json::Str(mode_name)),
        ("corpus", corpus_cfg.to_json()),
    ];
    let text = pipeline
        .model
        .to_checkpoint(extra)
        .unwrap_or_else(|e| fatal(&format!("cannot save {out}: {e}")));
    std::fs::write(&out, text).unwrap_or_else(|e| fatal(&format!("cannot write {out}: {e}")));
    println!("saved model to {out}");
}

fn cmd_eval(args: &[String]) {
    let threads = arg_usize(args, "--threads", 0);
    let (pipeline, corpus) = load_model(args);
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

/// Translates one question and prints the SQL and its result; a question
/// the pipeline refuses comes back as its typed error.
fn translate_one(
    pipeline: &Pipeline,
    corpus: &Corpus,
    db_id: &str,
    question: &str,
) -> Result<(), PipelineError> {
    let Some(db_index) =
        corpus.databases.iter().position(|db| db.schema().db_id == db_id)
    else {
        let names: Vec<&str> =
            corpus.databases.iter().map(|d| d.schema().db_id.as_str()).collect();
        fatal(&format!("unknown database '{db_id}'; available: {}", names.join(", ")));
    };
    let db = &corpus.databases[db_index];
    let pred = pipeline.try_translate(db, question, None)?;
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
    Ok(())
}

fn cmd_ask(args: &[String], question: &str) {
    let db_id = arg(args, "--db").unwrap_or_else(|| fatal("--db is required"));
    let (pipeline, corpus) = load_model(args);
    translate_one(&pipeline, &corpus, &db_id, question).unwrap_or_else(|e| fatal(&e.to_string()));
}

fn cmd_repl(args: &[String]) {
    let db_id = arg(args, "--db").unwrap_or_else(|| fatal("--db is required"));
    let (pipeline, corpus) = load_model(args);
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
        if let Err(e) = translate_one(&pipeline, &corpus, &db_id, q) {
            println!("error: {e}");
        }
    }
}

fn cmd_serve(args: &[String]) {
    use valuenet::serve::{serve_unix, Engine, ServeConfig};
    let socket = arg(args, "--socket").unwrap_or_else(|| "valuenet.sock".to_string());
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        workers: arg_positive(args, "--workers", defaults.workers),
        queue_capacity: arg_positive(args, "--queue", defaults.queue_capacity),
        default_deadline_ms: arg_usize(args, "--deadline-ms", 0) as u64,
        allow_fault_injection: args.iter().any(|a| a == "--allow-faults"),
    };
    let (pipeline, corpus) = load_model(args);
    let engine = Engine::start(pipeline, corpus.databases, cfg);
    eprintln!(
        "serving {} databases on {socket} ({} workers, queue {}); \
         send {{\"verb\":\"shutdown\"}} to stop",
        engine.database_names().len(),
        cfg.workers,
        cfg.queue_capacity
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
    let Some((cmd, args)) = args.split_first() else { usage() };
    let Some(flags) = flags_of(cmd) else { usage() };
    let positional = positionals(cmd, args, flags);
    // `ask` takes its question; no other subcommand takes a positional.
    let wanted = usize::from(cmd == "ask");
    if positional.len() != wanted {
        eprintln!("error: `{cmd}` takes {wanted} argument(s) besides flags, got {positional:?}");
        std::process::exit(2);
    }
    // Make --threads the process-wide default so every fan-out (training,
    // evaluation) respects it even where no explicit count is plumbed.
    if let Some(t) = arg_usize_opt(args, "--threads") {
        valuenet::par::set_threads(t);
    }
    // Observability is opt-in via environment: OBS=1 prints a span/counter
    // summary on exit; OBS_JSONL / OBS_CHROME_TRACE stream or trace the run.
    valuenet::obs::init_from_env();
    match cmd.as_str() {
        "train" => cmd_train(args),
        "eval" => cmd_eval(args),
        "ask" => cmd_ask(args, positional[0]),
        "repl" => cmd_repl(args),
        "serve" => cmd_serve(args),
        "dbs" => cmd_dbs(args),
        _ => usage(),
    }
    valuenet::obs::finish();
}
