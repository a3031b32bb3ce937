//! A request trace charges each stretch of a translation to the stage
//! `StageTimings` charges it to: hint classification to pre-processing,
//! the lowering of every hypothesis to post-processing, and a guard to the
//! stage it guards. The stage clock closes its last stage before it
//! returns, so prepared requests hold no open span, and each member of a
//! `decode_batch` call finishes as its question would alone.

use std::time::Duration;
use valuenet_core::{ModelConfig, Pipeline, Prediction, Stage, ValueMode, ValueNetModel, Vocab};
use valuenet_dataset::{generate, Corpus, CorpusConfig, Sample};
use valuenet_obs::trace::{install_ctx, SpanCtx, TraceId};
use valuenet_preprocess::StatisticalNer;

fn corpus() -> Corpus {
    generate(&CorpusConfig {
        seed: 11,
        train_size: 24,
        dev_size: 24,
        rows_per_table: 10,
        ..CorpusConfig::default()
    })
}

/// Untrained at beam width 4: most hypotheses fail to lower, so the
/// selection loop lowers several of them.
fn pipeline(corpus: &Corpus) -> Pipeline {
    let vocab = Vocab::build(corpus.train.iter().map(|s| s.question.as_str()));
    let model = ValueNetModel::new(ModelConfig { beam_width: 4, ..ModelConfig::tiny() }, vocab, 7);
    Pipeline::new(model, ValueMode::Light, StatisticalNer::new())
}

#[test]
fn trace_stages_match_stage_timings() {
    let corpus = corpus();
    let pipeline = pipeline(&corpus);

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

#[test]
fn a_guard_is_charged_to_the_stage_it_guards() {
    let corpus = corpus();
    let pipeline = pipeline(&corpus);
    let sample = &corpus.dev[0];
    let ctx = SpanCtx::new(TraceId::next(), 0);
    let mut slow_lookup = |stage: Stage| {
        if stage == Stage::ValueLookup {
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    };
    let pred = {
        let _guard = install_ctx(&ctx);
        let (db, values) = (corpus.db(sample), Some(&sample.values[..]));
        pipeline.try_translate_guarded(db, &sample.question, values, &mut slow_lookup)
    }
    .expect("light mode with gold values");
    assert!(
        pred.timings.value_lookup >= Duration::from_millis(20),
        "StageTimings left the guard out of value lookup: {:?}",
        pred.timings
    );
    let traced_us: u64 =
        ctx.take_events().iter().filter(|e| e.stage == "value_lookup").map(|e| e.dur_us).sum();
    assert!(traced_us >= 20_000, "the trace left the guard out of value lookup: {traced_us} us");
}

#[test]
fn decode_batch_members_finish_as_lone_translations() {
    let corpus = corpus();
    let pipeline = pipeline(&corpus);
    valuenet_obs::set_enabled(true);
    let sql = |p: &Prediction| p.sql.as_ref().map(ToString::to_string);
    // Two questions whose lone translation lowers to SQL, so the check below
    // compares queries rather than two `None`s.
    let alone: Vec<(&Sample, Option<String>)> = corpus
        .dev
        .iter()
        .map(|s| {
            let pred = pipeline.try_translate(corpus.db(s), &s.question, Some(&s.values));
            (s, sql(&pred.expect("light mode with gold values")))
        })
        .filter(|(_, sql)| sql.is_some())
        .take(2)
        .collect();
    assert_eq!(alone.len(), 2, "fewer than two dev questions lower to SQL");
    let prepare = |s: &Sample| {
        let guard = &mut |_| true;
        pipeline.prepare_guarded(corpus.db(s), &s.question, Some(&s.values), guard)
    };
    let mut first = prepare(alone[0].0).expect("light mode with gold values");
    let mut second = prepare(alone[1].0).expect("light mode with gold values");
    pipeline.decode_batch(&mut [&mut first, &mut second]);
    // Finished in reverse order: a span left open by either call would trip
    // the span-stack assertion of a debug build here.
    for (request, (sample, lone)) in [second, first].into_iter().zip([&alone[1], &alone[0]]) {
        let pred = pipeline.finish_guarded(request, &mut |_| true).expect("no guard declines");
        assert_eq!(&sql(&pred), lone, "{:?}: member and lone translation differ", sample.question);
    }
    // Called outside `pipeline.translate`, the stage spans are roots (at
    // least 4: a test on another thread may add some as this one turns
    // observability on): two input assemblies and two decodes.
    let snap = valuenet_obs::snapshot();
    let decode = snap.spans.iter().find(|s| s.path_string() == "pipeline.encode_decode");
    assert!(decode.is_some_and(|s| s.count >= 4), "{:?}", snap.spans);
}
