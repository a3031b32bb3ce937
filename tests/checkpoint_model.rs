//! End-to-end checkpoint integration: a trained model written as a model
//! file and read back into a model must be indistinguishable from the original —
//! bit-identical parameters and identical greedy and beam-4 predictions —
//! and the packed inference path must not change what the model predicts.

use valuenet::core::{
    assemble_candidates, build_input_opts, train, ModelConfig, ModelInput, TrainConfig, ValueMode,
    ValueNetModel,
};
use valuenet::dataset::{generate, Corpus, CorpusConfig};
use valuenet::nn::{read_checkpoint, Checkpoint};
use valuenet::preprocess::preprocess;

fn small_corpus() -> Corpus {
    generate(&CorpusConfig {
        seed: 23,
        train_size: 30,
        dev_size: 10,
        rows_per_table: 6,
        ..CorpusConfig::default()
    })
}

fn trained() -> (valuenet::core::Pipeline, Corpus) {
    let corpus = small_corpus();
    let mut cfg = ModelConfig::tiny();
    cfg.beam_width = 4;
    let (pipeline, _) = train(
        &corpus,
        ValueMode::Light,
        cfg,
        &TrainConfig { epochs: 2, threads: 1, ..Default::default() },
    );
    (pipeline, corpus)
}

fn dev_inputs(pipeline: &valuenet::core::Pipeline, corpus: &Corpus) -> Vec<ModelInput> {
    corpus
        .dev
        .iter()
        .take(6)
        .map(|s| {
            let db = corpus.db(s);
            let pre = preprocess(&s.question, db, &pipeline.ner, &pipeline.cand_cfg);
            let cands = assemble_candidates(db, &pre, ValueMode::Light, Some(&s.values), false);
            build_input_opts(db, &pre, &cands, &pipeline.model.vocab, pipeline.model.input_options())
        })
        .collect()
}

#[test]
fn f32_checkpoint_restores_params_and_predictions() {
    let (mut pipeline, corpus) = trained();
    let inputs = dev_inputs(&pipeline, &corpus);

    let text = pipeline.model.to_checkpoint(Vec::new()).expect("checkpoint saves");
    let greedy_before: Vec<_> = inputs.iter().map(|i| pipeline.model.predict(i)).collect();
    let beam_before: Vec<_> = inputs.iter().map(|i| pipeline.model.predict_beam(i)).collect();

    let Checkpoint { params: restored, .. } = read_checkpoint(&text).expect("checkpoint loads");

    // Every tensor must come back bit-identical before it goes anywhere
    // near the model.
    assert_eq!(restored.len(), pipeline.model.params.len());
    for id in pipeline.model.params.ids() {
        assert_eq!(restored.name(id), pipeline.model.params.name(id));
        assert_eq!(restored.shape(id), pipeline.model.params.shape(id));
        let (a, b) = (restored.data(id), pipeline.model.params.data(id));
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "param {} not bit-identical after round trip",
            pipeline.model.params.name(id)
        );
    }

    pipeline.model.load_params(restored).expect("restored params load into the model");
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(pipeline.model.predict(input), greedy_before[i], "greedy prediction changed");
        let beam = pipeline.model.predict_beam(input);
        assert_eq!(beam.len(), beam_before[i].len());
        for (h, before) in beam.iter().zip(&beam_before[i]) {
            assert_eq!(h.0, before.0, "beam-4 hypothesis changed after checkpoint reload");
            assert!(h.1.to_bits() == before.1.to_bits(), "beam score changed");
        }
    }
}

#[test]
fn packed_inference_path_matches_tape_path() {
    let (pipeline, corpus) = trained();
    for input in &dev_inputs(&pipeline, &corpus) {
        let oracle = pipeline.model.predict_beam_unbatched(input);
        let tape = ValueNetModel::with_tape_fallback(|| pipeline.model.predict_beam(input));
        let packed = pipeline.model.predict_beam(input);
        assert_eq!(tape, packed, "packed inference diverged from the tape path");
        assert_eq!(
            packed.first().map(|h| &h.0),
            oracle.first().map(|h| &h.0),
            "batched beam diverged from the unbatched oracle"
        );
    }
}
