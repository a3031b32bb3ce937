//! A request trace charges each stretch of a translation to the stage
//! `StageTimings` charges it to: hint classification to pre-processing,
//! and the lowering of every hypothesis to post-processing.

use valuenet_core::{ModelConfig, Pipeline, ValueMode, ValueNetModel, Vocab};
use valuenet_dataset::{generate, CorpusConfig};
use valuenet_obs::trace::{install_ctx, SpanCtx, TraceId};
use valuenet_preprocess::StatisticalNer;

#[test]
fn trace_stages_match_stage_timings() {
    let corpus = generate(&CorpusConfig {
        seed: 11,
        train_size: 24,
        dev_size: 24,
        rows_per_table: 10,
        ..CorpusConfig::default()
    });
    let vocab = Vocab::build(corpus.train.iter().map(|s| s.question.as_str()));
    // Untrained at beam width 4: most hypotheses fail to lower, so the
    // selection loop lowers several of them.
    let model = ValueNetModel::new(ModelConfig { beam_width: 4, ..ModelConfig::tiny() }, vocab, 7);
    let pipeline = Pipeline::new(model, ValueMode::Light, StatisticalNer::new());

    let mut several = 0;
    for sample in &corpus.dev {
        let ctx = SpanCtx::new(TraceId::next(), 0);
        {
            let _guard = install_ctx(&ctx);
            pipeline
                .try_translate(corpus.db(sample), &sample.question, Some(&sample.values))
                .expect("light mode with gold values");
        }
        let stages: Vec<&str> = ctx.take_events().iter().map(|e| e.stage).collect();
        let lookup = stages.iter().position(|s| *s == "value_lookup").expect("value lookup ran");
        assert_eq!(stages.get(lookup + 1), Some(&"preprocess"), "hints not in preprocess: {stages:?}");
        for (i, stage) in stages.iter().enumerate() {
            if *stage == "execute" {
                assert_eq!(stages[i - 1], "post_process", "lowering charged to execute: {stages:?}");
            }
        }
        several += usize::from(stages.iter().filter(|s| **s == "execute").count() >= 2);
    }
    assert!(several > 0, "no question lowered two hypotheses; the second check is vacuous");
}
