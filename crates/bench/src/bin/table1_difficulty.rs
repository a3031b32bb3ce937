//! Regenerates **Table I**: Execution Accuracy of ValueNet grouped by the
//! Spider query-difficulty heuristic.
//!
//! Paper: Easy 0.77, Medium 0.62, Hard 0.57, Extra-hard 0.43.
//!
//! ```text
//! OBS=1 OBS_CHROME_TRACE=trace.json \
//!   cargo run --release -p valuenet-bench --bin table1_difficulty
//! ```
//!
//! Outputs, all written to the working directory:
//!
//! * `results_table1.txt` — the accuracy table (also printed to stdout);
//! * `run_report.json` (path overridable via `OBS_REPORT`) — the structured
//!   run report joining per-difficulty Execution Accuracy with the
//!   per-stage latency distribution of the run (train + eval spans,
//!   counters, per-epoch metrics);
//! * optionally a Chrome trace / JSONL event stream via the standard
//!   `OBS_CHROME_TRACE` / `OBS_JSONL` variables.

use valuenet_bench::{evaluate, BenchConfig};
use valuenet_core::{train, ModelConfig, ValueMode};
use valuenet_dataset::generate;
use valuenet_eval::{Difficulty, TextTable};
use valuenet_obs::DifficultyRow;

fn main() {
    // The run report needs span aggregates even when no sink is requested,
    // so collection is always on for this binary; env vars add sinks.
    if !valuenet_obs::init_from_env() {
        valuenet_obs::set_enabled(true);
    }
    let cfg = BenchConfig::from_env();
    let corpus = generate(&cfg.corpus(0));
    eprintln!("training ValueNet (full mode)...");
    let (pipeline, _) =
        train(&corpus, ValueMode::Full, ModelConfig::default(), &cfg.train_cfg(0));
    let stats = evaluate(&pipeline, &corpus, &corpus.dev);
    let by_diff = stats.by_difficulty();

    let mut out = format!(
        "Table I — ValueNet Execution Accuracy by query difficulty \
         ({} dev questions)\n\n",
        corpus.dev.len()
    );
    let paper = [("Easy", 0.77), ("Medium", 0.62), ("Hard", 0.57), ("Extra-Hard", 0.43)];
    let mut table = TextTable::new(vec!["Difficulty", "Accuracy", "n", "paper"]);
    let mut rows: Vec<DifficultyRow> = Vec::new();
    for (i, d) in Difficulty::ALL.iter().enumerate() {
        let (correct, total) = by_diff.get(d).copied().unwrap_or((0, 0));
        let acc = if total > 0 { correct as f64 / total as f64 } else { f64::NAN };
        table.row(vec![
            d.label().to_string(),
            if total > 0 { format!("{acc:.2}") } else { "-".into() },
            total.to_string(),
            format!("{:.2}", paper[i].1),
        ]);
        rows.push(DifficultyRow {
            label: d.label().to_string(),
            correct: correct as u64,
            total: total as u64,
        });
    }
    out.push_str(&table.to_string());
    out.push_str(&format!(
        "\noverall: {:.1}% execution accuracy, {:.1}% exact-match\n",
        100.0 * stats.execution_accuracy(),
        100.0 * stats.exact_match_accuracy()
    ));
    out.push_str("shape check: accuracy should decay monotonically with difficulty.\n");
    print!("{out}");
    if let Err(e) = std::fs::write("results_table1.txt", &out) {
        eprintln!("cannot write results_table1.txt: {e}");
    }

    // Drive the sinks, then join the accuracy table with the per-stage
    // latency snapshot of this exact run.
    let snap = valuenet_obs::finish();
    let report_path =
        std::env::var("OBS_REPORT").unwrap_or_else(|_| "run_report.json".to_string());
    match valuenet_obs::write_run_report(&report_path, &rows, &snap) {
        Ok(()) => eprintln!("run report written to {report_path}"),
        Err(e) => eprintln!("cannot write {report_path}: {e}"),
    }
}
