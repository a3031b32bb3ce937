//! Beam-search decoding invariants of `Decoder::decode` from fixed-seed
//! micro models:
//!
//! * at widths 1 (greedy), 2 and 4 it reproduces the per-hypothesis
//!   `decode_beam_unbatched` oracle exactly (actions and `f32` score bits),
//!   on the first request and on two more that differ from it in question,
//!   value candidate and pointer target,
//! * completed hypotheses come back ranked by length-normalised score,
//! * every returned hypothesis is a grammar-complete derivation that
//!   parses back into a SemQL tree,
//! * a step budget no derivation fits in leaves no hypotheses, and
//!   `predict` reports it as an error.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_core::{build_input, Decoder, Encoder, ModelConfig, ModelInput, ValueNetModel, Vocab};
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

/// Three requests against the same database: different questions,
/// different value candidates, different pointer targets.
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
/// vary per test so invariants are not an artefact of one particular weight
/// draw.
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

/// Decodes each request in `requests` with the search and with the
/// per-hypothesis `decode_beam_unbatched` oracle, across widths (width 1 is
/// greedy decoding) and seeds, and demands exact equality of both the action
/// sequences and the `f32` score bits. Returns how many runs completed a
/// hypothesis, so callers can reject a vacuous check.
fn assert_search_matches_oracle(requests: std::ops::Range<usize>) -> usize {
    let mut nonempty = 0;
    for seed in [3u64, 17, 29, 41] {
        for width in [1usize, 2, 4] {
            let (ps, encoder, decoder, inputs) = setup(seed);
            for ri in requests.clone() {
                let what = format!("seed {seed} width {width} request {ri}");
                let mut g = Graph::new();
                let enc = encoder.forward(&mut g, &ps, &inputs[ri], 0.0, None);
                let batched = decoder.decode(&mut g, &ps, &enc, MAX_STEPS, width);

                let mut g = Graph::new();
                let enc = encoder.forward(&mut g, &ps, &inputs[ri], 0.0, None);
                let unbatched = decoder.decode_beam_unbatched(&mut g, &ps, &enc, MAX_STEPS, width);

                assert_eq!(batched.len(), unbatched.len(), "{what}: completion counts differ");
                for (i, (b, u)) in batched.iter().zip(&unbatched).enumerate() {
                    assert_eq!(b.0, u.0, "{what}: hypothesis {i} actions differ");
                    assert_eq!(
                        b.1.to_bits(),
                        u.1.to_bits(),
                        "{what}: hypothesis {i} score differs ({} vs {})",
                        b.1,
                        u.1
                    );
                }
                nonempty += usize::from(!batched.is_empty());
            }
        }
    }
    nonempty
}

#[test]
fn batched_beam_matches_unbatched_exactly() {
    // The search stacks a request's live hypotheses into one LSTM + attention
    // step. Every kernel involved (matmul, LSTM gates, fused attention,
    // log-softmax) computes each output row independently in a fixed order,
    // so stacking must not change a single bit.
    let nonempty = assert_search_matches_oracle(0..1);
    assert!(nonempty >= 4, "too few runs completed ({nonempty}) — the check is vacuous");
}

#[test]
fn distinct_requests_match_the_unbatched_oracle_exactly() {
    // The other two requests differ from the first in question, value
    // candidate and pointer target, so their beams take other shapes.
    let nonempty = assert_search_matches_oracle(1..REQUESTS.len());
    assert!(nonempty >= 6, "too few runs completed ({nonempty}) — the check is vacuous");
}

/// Encodes the first request and decodes it at `width`.
fn decode_first(seed: u64, width: usize) -> Vec<(Vec<Action>, f32)> {
    let (ps, encoder, decoder, inputs) = setup(seed);
    let mut g = Graph::new();
    let enc = encoder.forward(&mut g, &ps, &inputs[0], 0.0, None);
    decoder.decode(&mut g, &ps, &enc, MAX_STEPS, width)
}

#[test]
fn completed_hypotheses_are_ranked_by_normalised_score() {
    let mut nonempty = 0;
    for seed in [3u64, 17, 29, 41] {
        let width = 4;
        let beam = decode_first(seed, width);
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
        for (actions, _) in &decode_first(seed, 4) {
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

#[test]
fn exhausted_step_budget_leaves_no_hypotheses() {
    // No derivation completes in two steps, so every request must come back
    // empty at any width, and `predict` must say so.
    let (ps, encoder, decoder, inputs) = setup(3);
    for width in [1usize, 4] {
        for (ri, input) in inputs.iter().enumerate() {
            let mut g = Graph::new();
            let enc = encoder.forward(&mut g, &ps, input, 0.0, None);
            let hyps = decoder.decode(&mut g, &ps, &enc, 2, width);
            assert!(hyps.is_empty(), "width {width} request {ri}: {} hypotheses", hyps.len());
        }
    }
    let db = demo_db();
    let vocab = build_vocab();
    let cfg = ModelConfig { max_decode_steps: 2, ..micro_config() };
    let model = ValueNetModel::new(cfg, vocab.clone(), 3);
    for (ri, input) in build_inputs(&db, &vocab).iter().enumerate() {
        let err = model.predict(input).expect_err("two steps cannot complete a derivation");
        assert!(err.contains("2 steps"), "request {ri}: unexpected error {err:?}");
    }
}
