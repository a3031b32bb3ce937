//! Beam-search decoding invariants of `Decoder::decode` on a lone request
//! (a batch of one) from a fixed-seed micro model:
//!
//! * at widths 1 (greedy), 2 and 4 it reproduces the per-hypothesis
//!   `decode_beam_unbatched` oracle exactly,
//! * completed hypotheses come back ranked by length-normalised score,
//! * every returned hypothesis is a grammar-complete derivation that
//!   parses back into a SemQL tree.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_core::{build_input, Decoder, Encoder, Encodings, ModelConfig, ModelInput, Vocab};
use valuenet_nn::ParamStore;
use valuenet_preprocess::{preprocess, CandidateConfig, HeuristicNer};
use valuenet_schema::{ColumnType, SchemaBuilder};
use valuenet_semql::{actions_to_ast, Action};
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

/// Fixed-seed encoder/decoder pair plus an encodable input. Seeds vary per
/// test so invariants are not an artefact of one particular weight draw.
fn setup(seed: u64) -> (ParamStore, Encoder, Decoder, ModelInput) {
    let db = demo_db();
    let vocab = Vocab::build(
        ["How many students are from France?", "student name age home country france"]
            .into_iter(),
    );
    let cfg = micro_config();
    let mut ps = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let encoder = Encoder::new(&mut ps, &mut rng, &cfg, vocab.len());
    let decoder = Decoder::new(&mut ps, &mut rng, &cfg);
    let q = "How many students are from France?";
    let pre = preprocess(q, &db, &HeuristicNer::new(), &CandidateConfig::default());
    let country = db.schema().any_column_by_name("home_country").map(|(_, c)| c).unwrap();
    let cands = vec![("France".to_string(), vec![country])];
    let input = build_input(&db, &pre, &cands, &vocab);
    (ps, encoder, decoder, input)
}

/// Decodes `enc` as a batch of one and returns its hypotheses.
fn decode_one(
    decoder: &Decoder,
    g: &mut Graph,
    ps: &ParamStore,
    enc: Encodings,
    width: usize,
) -> Vec<(Vec<Action>, f32)> {
    let mut out = decoder.decode(g, ps, &[enc], MAX_STEPS, width);
    assert_eq!(out.len(), 1, "one result per request");
    out.remove(0)
}

#[test]
fn batched_beam_matches_unbatched_exactly() {
    // The batched search stacks all live hypotheses into one LSTM + attention
    // step. Every kernel involved (matmul, LSTM gates, fused attention,
    // log-softmax) computes each output row independently in a fixed order,
    // so batching must not change a single bit: we demand exact f32 equality
    // of both the action sequences and the scores, across widths (width 1 is
    // greedy decoding) and seeds.
    let mut nonempty = 0;
    for seed in [3u64, 17, 29, 41] {
        for width in [1usize, 2, 4] {
            let (ps, encoder, decoder, input) = setup(seed);

            let mut g = Graph::new();
            let enc = encoder.forward(&mut g, &ps, &input, 0.0, None);
            let batched = decode_one(&decoder, &mut g, &ps, enc, width);

            let mut g = Graph::new();
            let enc = encoder.forward(&mut g, &ps, &input, 0.0, None);
            let unbatched = decoder.decode_beam_unbatched(&mut g, &ps, &enc, MAX_STEPS, width);

            assert_eq!(
                batched.len(),
                unbatched.len(),
                "seed {seed} width {width}: completion counts differ"
            );
            for (i, (b, u)) in batched.iter().zip(&unbatched).enumerate() {
                assert_eq!(
                    b.0, u.0,
                    "seed {seed} width {width}: hypothesis {i} actions differ"
                );
                assert_eq!(
                    b.1.to_bits(),
                    u.1.to_bits(),
                    "seed {seed} width {width}: hypothesis {i} score differs ({} vs {})",
                    b.1,
                    u.1
                );
            }
            nonempty += usize::from(!batched.is_empty());
        }
    }
    assert!(nonempty >= 4, "too few runs completed ({nonempty}) — the check is vacuous");
}

#[test]
fn completed_hypotheses_are_ranked_by_normalised_score() {
    let mut nonempty = 0;
    for seed in [3u64, 17, 29, 41] {
        let (ps, encoder, decoder, input) = setup(seed);
        let mut g = Graph::new();
        let enc = encoder.forward(&mut g, &ps, &input, 0.0, None);
        let width = 4;
        let beam = decode_one(&decoder, &mut g, &ps, enc, width);
        if beam.is_empty() {
            continue; // nothing completed for this weight draw
        }
        nonempty += 1;
        assert!(beam.len() <= width);
        let norm = |(actions, score): &(Vec<_>, f32)| score / actions.len().max(1) as f32;
        for pair in beam.windows(2) {
            assert!(
                norm(&pair[0]) >= norm(&pair[1]),
                "seed {seed}: hypotheses are not sorted by length-normalised score: \
                 {} vs {}",
                norm(&pair[0]),
                norm(&pair[1])
            );
        }
        // Scores are log-probability sums, so they are never positive.
        for (actions, score) in &beam {
            assert!(*score <= 0.0, "seed {seed}: positive log-prob sum {score}");
            assert!(!actions.is_empty());
        }
    }
    assert!(nonempty >= 2, "too few seeds completed ({nonempty}) — the check is vacuous");
}

#[test]
fn beam_hypotheses_parse_back_to_semql() {
    let mut parsed = 0;
    for seed in [3u64, 17, 29, 41] {
        let (ps, encoder, decoder, input) = setup(seed);
        let mut g = Graph::new();
        let enc = encoder.forward(&mut g, &ps, &input, 0.0, None);
        for (actions, _) in &decode_one(&decoder, &mut g, &ps, enc, 4) {
            let tree = actions_to_ast(actions).unwrap_or_else(|e| {
                panic!("hypothesis is not grammar-complete: {e}\n{actions:?}")
            });
            // Round-tripping the tree reproduces the action sequence.
            assert_eq!(&valuenet_semql::ast_to_actions(&tree), actions);
            parsed += 1;
        }
    }
    assert!(parsed >= 2, "too few hypotheses completed ({parsed}) — the check is vacuous");
}
