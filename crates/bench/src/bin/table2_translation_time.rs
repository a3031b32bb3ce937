//! Regenerates **Table II**: per-stage translation time over the dev split.
//!
//! Paper (1,034 dev samples on their testbed, milliseconds):
//! pre-processing 80±5, value lookup 234±43, encoder/decoder 76±14,
//! post-processing 13±2, query execution 15±3; total ≈ 418 ms.
//!
//! Absolute numbers are incomparable (different hardware, a small
//! from-scratch model instead of BERT). In the paper the value lookup takes
//! 56% of a translation. Here the inverted index blocks on length and
//! character set before it computes any distance, so the run prints the
//! lookup's measured share beside the paper's rather than expecting the
//! two to match. `VN_ROWS` scales the bases; the default here (2000) is
//! larger than the other binaries' so that the stages whose cost grows with
//! the data show.
//!
//! ```text
//! cargo run --release -p valuenet-bench --bin table2_translation_time
//! ```

use valuenet_bench::{evaluate, mean_std, BenchConfig};
use valuenet_core::{train, ModelConfig, ValueMode};
use valuenet_dataset::generate;
use valuenet_eval::TextTable;

fn main() {
    let mut cfg = BenchConfig::from_env();
    if std::env::var("VN_ROWS").is_err() {
        cfg.rows_per_table = 2000;
    }
    let corpus = generate(&cfg.corpus(0));
    eprintln!("training ValueNet (full mode) on {}-row tables...", cfg.rows_per_table);
    let (pipeline, _) =
        train(&corpus, ValueMode::Full, ModelConfig::default(), &cfg.train_cfg(0));
    let stats = evaluate(&pipeline, &corpus, &corpus.dev);

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut pre = Vec::new();
    let mut lookup = Vec::new();
    let mut encdec = Vec::new();
    let mut post = Vec::new();
    let mut exec = Vec::new();
    for s in &stats.samples {
        let t = s.prediction.timings;
        pre.push(ms(t.pre_processing));
        lookup.push(ms(t.value_lookup));
        encdec.push(ms(t.encoder_decoder));
        post.push(ms(t.post_processing));
        exec.push(ms(t.query_execution));
    }

    println!(
        "Table II — translation time per stage over {} dev samples \
         (rows per table: {})\n",
        stats.samples.len(),
        cfg.rows_per_table
    );
    let paper = [(80.0, 5.0), (234.0, 43.0), (76.0, 14.0), (13.0, 2.0), (15.0, 3.0)];
    let rows = [
        ("Pre-Processing", &pre),
        ("Value lookup", &lookup),
        ("Encoder/Decoder", &encdec),
        ("Post-Processing", &post),
        ("Query-Execution", &exec),
    ];
    let mut table = TextTable::new(vec![
        "Step",
        "Average Time [ms]",
        "Std Dev [ms]",
        "paper avg [ms]",
    ]);
    let mut total = 0.0;
    for (i, (name, series)) in rows.iter().enumerate() {
        let (m, s) = mean_std(series);
        total += m;
        table.row(vec![
            name.to_string(),
            format!("{m:.3}"),
            format!("{s:.3}"),
            format!("{:.0}", paper[i].0),
        ]);
    }
    print!("{table}");
    println!("\ntotal: {total:.3} ms per query (paper: ~418 ms on a Tesla V100 testbed)");
    let (lm, _) = mean_std(&lookup);
    println!("value lookup share: {:.1}% of the total (paper: 56%)", 100.0 * lm / total);
}
