//! End-to-end checkpoint integration: a trained model saved to disk and
//! loaded into a fresh model must be indistinguishable from the original —
//! bit-identical parameters and identical greedy and beam-4 predictions —
//! and the packed/quantized inference paths must not change what the f32
//! model predicts.

use valuenet::core::{
    assemble_candidates, build_input_opts, train, ModelConfig, ModelInput, TrainConfig, ValueMode,
    ValueNetModel,
};
use valuenet::dataset::{generate, Corpus, CorpusConfig};
use valuenet::nn::{load_checkpoint, save_checkpoint, save_checkpoint_quantized, CheckpointFormat};
use valuenet::preprocess::preprocess;

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("vn_ckpt_model_{tag}_{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

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
    let path = tmp_path("f32");

    save_checkpoint(&path, &pipeline.model.params).expect("checkpoint saves");
    let greedy_before: Vec<_> = inputs.iter().map(|i| pipeline.model.predict(i)).collect();
    let beam_before: Vec<_> = inputs.iter().map(|i| pipeline.model.predict_beam(i)).collect();

    let (restored, format) = load_checkpoint(&path).expect("checkpoint loads");
    assert_eq!(format, CheckpointFormat::F32);

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
    let _ = std::fs::remove_file(&path);
}

#[test]
fn packed_inference_path_matches_tape_path() {
    let (pipeline, corpus) = trained();
    for input in &dev_inputs(&pipeline, &corpus) {
        let oracle = pipeline.model.predict_beam_unbatched(input);
        let tape = ValueNetModel::with_scalar_fallback(|| pipeline.model.predict_beam(input));
        let packed = pipeline.model.predict_beam(input);
        assert_eq!(tape, packed, "packed inference diverged from the tape path");
        assert_eq!(
            packed.first().map(|h| &h.0),
            oracle.first().map(|h| &h.0),
            "batched beam diverged from the unbatched oracle"
        );
    }
}

#[test]
fn quantized_checkpoint_round_trips_and_predicts_deterministically() {
    let (mut pipeline, corpus) = trained();
    let inputs = dev_inputs(&pipeline, &corpus);
    let path = tmp_path("int8");

    save_checkpoint_quantized(&path, &pipeline.model.params).expect("int8 checkpoint saves");
    let (restored, format) = load_checkpoint(&path).expect("int8 checkpoint loads");
    assert_eq!(format, CheckpointFormat::Int8);
    pipeline.model.load_params(restored).expect("int8 params load into the model");

    // Quantized inference must be deterministic: two sweeps over the same
    // inputs give identical hypotheses and bit-identical scores.
    pipeline.model.params.set_quantized(true);
    let first: Vec<_> = inputs.iter().map(|i| pipeline.model.predict_beam(i)).collect();
    let second: Vec<_> = inputs.iter().map(|i| pipeline.model.predict_beam(i)).collect();
    pipeline.model.params.set_quantized(false);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "quantized beam search is not deterministic");
    }
    let _ = std::fs::remove_file(&path);
}
