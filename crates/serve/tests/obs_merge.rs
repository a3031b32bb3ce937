//! A served run's worker spans are in the observability registry by the
//! time `Engine::shutdown()` returns, so a `finish()` right after it (as
//! `valuenet_cli serve` does) writes every request. The registry is
//! process-wide, so this is a test binary of its own.

use valuenet_core::{ModelConfig, Pipeline, ValueMode, ValueNetModel, Vocab};
use valuenet_dataset::{generate, CorpusConfig};
use valuenet_preprocess::StatisticalNer;
use valuenet_serve::{Engine, ServeConfig, TranslateJob};

#[test]
fn worker_spans_are_merged_when_shutdown_returns() {
    let sizes =
        CorpusConfig { train_size: 8, dev_size: 4, rows_per_table: 10, ..CorpusConfig::default() };
    valuenet_obs::set_enabled(true);
    for round in 0..20 {
        // The engine takes the databases, so each round generates its own.
        let corpus = generate(&sizes);
        let vocab = Vocab::build(corpus.train.iter().map(|s| s.question.as_str()));
        let model = ValueNetModel::new(ModelConfig::tiny(), vocab, 7);
        let pipeline = Pipeline::new(model, ValueMode::Light, StatisticalNer::new());
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        let engine = Engine::start(pipeline, corpus.databases, cfg);
        valuenet_obs::reset();
        for sample in &corpus.dev {
            // Answered or `translate_failed`, each runs one `serve.request`.
            engine.translate_blocking(TranslateJob {
                db: sample.db_id.clone(),
                question: sample.question.clone(),
                gold_values: Some(sample.values.clone()),
                ..TranslateJob::default()
            });
        }
        engine.shutdown();
        let served = valuenet_obs::snapshot().span_named("serve.request").map_or(0, |s| s.count);
        assert_eq!(served, corpus.dev.len() as u64, "round {round}: worker spans not merged");
    }
}
