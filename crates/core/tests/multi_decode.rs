//! Cross-request batched decoding invariants on fixed-seed micro models.
//!
//! `Decoder::decode` merges the live hypotheses of *several concurrent
//! requests* into one step batch per LSTM/attention/pointer pass. Every
//! fused kernel is row-stable, so co-batching requests must not change a
//! single bit of any request's output relative to decoding it alone:
//!
//! * each of N co-batched requests reproduces the per-hypothesis
//!   `decode_beam_unbatched` oracle on that request alone (actions and `f32`
//!   score bits), at widths 1 (greedy), 2 and 4,
//! * the model-level `predict_batch` at widths 1 and 4 reproduces `predict`
//!   and `predict_beam` per input across all kernel tiers of the
//!   degradation ladder (SIMD+fused packed weights, int8 quantized, forced
//!   scalar),
//! * a step budget no derivation fits in leaves every co-batched request
//!   without hypotheses, and `predict` reports it as an error.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_core::{
    build_input, Decoder, Encoder, ModelConfig, ModelInput, ValueNetModel, Vocab,
};
use valuenet_nn::ParamStore;
use valuenet_preprocess::{preprocess, CandidateConfig, HeuristicNer};
use valuenet_schema::{ColumnType, SchemaBuilder};
use valuenet_storage::Database;
use valuenet_tensor::Graph;

// Untrained weights can wander through deeply nested derivations before
// completing, so the cap is well above anything a trained model needs.
const MAX_STEPS: usize = 200;

fn demo_db() -> Database {
    let schema = SchemaBuilder::new("d")
        .table(
            "student",
            &[
                ("stu_id", ColumnType::Number),
                ("name", ColumnType::Text),
                ("age", ColumnType::Number),
                ("home_country", ColumnType::Text),
            ],
        )
        .build();
    let mut db = Database::new(schema);
    let s = db.schema().table_by_name("student").unwrap();
    db.insert(s, vec![1.into(), "Alice".into(), 20.into(), "France".into()]);
    db.insert(s, vec![2.into(), "Bob".into(), 23.into(), "Peru".into()]);
    db.rebuild_index();
    db
}

fn micro_config() -> ModelConfig {
    ModelConfig {
        d_model: 8,
        summary_hidden: 4,
        heads: 2,
        encoder_layers: 1,
        ffn_inner: 12,
        action_dim: 6,
        decoder_hidden: 12,
        dropout: 0.0,
        max_decode_steps: MAX_STEPS,
        beam_width: 1,
        use_hints: true,
        encode_value_location: true,
    }
}

/// Three distinct requests against the same database: different questions,
/// different value candidates, different pointer targets. Co-batched beams
/// therefore diverge in shape almost immediately, which is exactly the
/// regime the block-diagonal batching has to get right.
const REQUESTS: [(&str, &str, &str); 3] = [
    ("How many students are from France?", "France", "home_country"),
    ("List the name of every student from Peru", "Peru", "home_country"),
    ("What is the age of Alice", "Alice", "name"),
];

fn build_vocab() -> Vocab {
    Vocab::build(
        REQUESTS
            .iter()
            .map(|(q, _, _)| *q)
            .chain(["student name age home country france peru alice"]),
    )
}

fn build_inputs(db: &Database, vocab: &Vocab) -> Vec<ModelInput> {
    REQUESTS
        .iter()
        .map(|(q, value, col)| {
            let pre = preprocess(q, db, &HeuristicNer::new(), &CandidateConfig::default());
            let col = db.schema().any_column_by_name(col).map(|(_, c)| c).unwrap();
            let cands = vec![(value.to_string(), vec![col])];
            build_input(db, &pre, &cands, vocab)
        })
        .collect()
}

/// Fixed-seed encoder/decoder pair plus the three encodable inputs. Seeds
/// vary per test so invariants are not an artefact of one weight draw.
fn setup(seed: u64) -> (ParamStore, Encoder, Decoder, Vec<ModelInput>) {
    let db = demo_db();
    let vocab = build_vocab();
    let cfg = micro_config();
    let mut ps = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let encoder = Encoder::new(&mut ps, &mut rng, &cfg, vocab.len());
    let decoder = Decoder::new(&mut ps, &mut rng, &cfg);
    let inputs = build_inputs(&db, &vocab);
    (ps, encoder, decoder, inputs)
}

fn model_setup(seed: u64, cfg: ModelConfig) -> (ValueNetModel, Vec<ModelInput>) {
    let db = demo_db();
    let vocab = build_vocab();
    let model = ValueNetModel::new(cfg, vocab.clone(), seed);
    let inputs = build_inputs(&db, &vocab);
    (model, inputs)
}

fn assert_beams_identical(
    multi: &[(Vec<valuenet_semql::Action>, f32)],
    single: &[(Vec<valuenet_semql::Action>, f32)],
    what: &str,
) {
    assert_eq!(multi.len(), single.len(), "{what}: completion counts differ");
    for (i, (m, s)) in multi.iter().zip(single).enumerate() {
        assert_eq!(m.0, s.0, "{what}: hypothesis {i} actions differ");
        assert_eq!(
            m.1.to_bits(),
            s.1.to_bits(),
            "{what}: hypothesis {i} score differs ({} vs {})",
            m.1,
            s.1
        );
    }
}

#[test]
fn co_batched_requests_match_the_unbatched_oracle_exactly() {
    let mut nonempty = 0;
    for seed in [3u64, 17, 29, 41] {
        for width in [1usize, 2, 4] {
            let (ps, encoder, decoder, inputs) = setup(seed);

            let mut g = Graph::new();
            let encs: Vec<_> =
                inputs.iter().map(|i| encoder.forward(&mut g, &ps, i, 0.0, None)).collect();
            let multi = decoder.decode(&mut g, &ps, &encs, MAX_STEPS, width);
            assert_eq!(multi.len(), inputs.len());

            for (ri, input) in inputs.iter().enumerate() {
                let mut g = Graph::new();
                let enc = encoder.forward(&mut g, &ps, input, 0.0, None);
                let single = decoder.decode_beam_unbatched(&mut g, &ps, &enc, MAX_STEPS, width);
                assert_beams_identical(
                    &multi[ri],
                    &single,
                    &format!("seed {seed} width {width} request {ri}"),
                );
                nonempty += usize::from(!single.is_empty());
            }
        }
    }
    assert!(nonempty >= 6, "too few runs completed ({nonempty}) — the check is vacuous");
}

#[test]
fn predict_batch_matches_lone_predictions_across_kernel_tiers() {
    let (model, inputs) = model_setup(17, ModelConfig { beam_width: 4, ..micro_config() });
    let refs: Vec<&ModelInput> = inputs.iter().collect();

    let run_tier = |tier: &str| {
        let greedy = model.predict_batch(&refs, 1);
        let beam = model.predict_batch(&refs, 4);
        assert_eq!((greedy.len(), beam.len()), (inputs.len(), inputs.len()));
        for (ri, input) in inputs.iter().enumerate() {
            let what = format!("tier {tier} request {ri}");
            assert!(greedy[ri].len() <= 1, "{what}: width 1 kept {} hypotheses", greedy[ri].len());
            assert_eq!(
                greedy[ri].first().map(|(a, _)| a.clone()),
                model.predict(input).ok(),
                "{what}: width-1 batch differs from predict()"
            );
            assert_beams_identical(&beam[ri], &model.predict_beam(input), &what);
        }
    };

    // Default tier: SIMD + fused graph ops + packed weights.
    run_tier("default");

    model.params.set_quantized(true);
    run_tier("int8");
    model.params.set_quantized(false);

    // The degradation ladder's last rung — the engine only ever runs this
    // tier on singleton batches, but the identity must hold regardless.
    ValueNetModel::with_scalar_fallback(|| run_tier("scalar"));
}

#[test]
fn exhausted_step_budget_leaves_every_request_without_hypotheses() {
    // No derivation completes in two steps, so every co-batched request
    // must come back empty at any width, and `predict` must say so.
    let (ps, encoder, decoder, inputs) = setup(3);
    for width in [1usize, 4] {
        let mut g = Graph::new();
        let encs: Vec<_> =
            inputs.iter().map(|i| encoder.forward(&mut g, &ps, i, 0.0, None)).collect();
        let multi = decoder.decode(&mut g, &ps, &encs, 2, width);
        assert_eq!(multi.len(), inputs.len());
        for (ri, hyps) in multi.iter().enumerate() {
            assert!(hyps.is_empty(), "width {width} request {ri}: {} hypotheses", hyps.len());
        }
    }
    let (model, inputs) = model_setup(3, ModelConfig { max_decode_steps: 2, ..micro_config() });
    for (ri, input) in inputs.iter().enumerate() {
        let err = model.predict(input).expect_err("two steps cannot complete a derivation");
        assert!(err.contains("2 steps"), "request {ri}: unexpected error {err:?}");
    }
}
