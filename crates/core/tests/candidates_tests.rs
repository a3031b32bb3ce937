//! Unit tests for candidate assembly and mode semantics (no training).

use valuenet_core::{
    assemble_candidates, ModelConfig, Pipeline, PipelineError, ValueMode, ValueNetModel, Vocab,
};
use valuenet_preprocess::{preprocess, CandidateConfig, HeuristicNer, StatisticalNer};
use valuenet_schema::{ColumnType, SchemaBuilder};
use valuenet_storage::Database;

fn db() -> Database {
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
    db.insert(s, vec![1.into(), "Alice".into(), 21.into(), "France".into()]);
    db.insert(s, vec![2.into(), "Bob".into(), 19.into(), "Germany".into()]);
    db.rebuild_index();
    db
}

fn pre(db: &Database, q: &str) -> valuenet_preprocess::Preprocessed {
    preprocess(q, db, &HeuristicNer::new(), &CandidateConfig::default())
}

#[test]
fn light_mode_uses_exactly_the_gold_values() {
    let db = db();
    let p = pre(&db, "How many students are from France older than 20?");
    let gold = vec!["France".to_string(), "20".to_string()];
    let cands = assemble_candidates(&db, &p, ValueMode::Light, Some(&gold), false);
    let texts: Vec<&str> = cands.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(texts, vec!["France", "20"]);
    // Gold values present in the DB get located.
    assert!(!cands[0].1.is_empty(), "France should be located in home_country");
}

#[test]
fn light_mode_dedupes_gold_values() {
    let db = db();
    let p = pre(&db, "students between 20 and 20");
    let gold = vec!["20".to_string(), "20".to_string()];
    let cands = assemble_candidates(&db, &p, ValueMode::Light, Some(&gold), false);
    assert_eq!(cands.len(), 1);
}

#[test]
#[should_panic(expected = "requires the gold value options")]
fn light_mode_without_gold_panics() {
    let db = db();
    let p = pre(&db, "How many students?");
    assemble_candidates(&db, &p, ValueMode::Light, None, false);
}

#[test]
fn full_mode_includes_pipeline_candidates_and_constant_one() {
    let db = db();
    let p = pre(&db, "How many students are from France?");
    let cands = assemble_candidates(&db, &p, ValueMode::Full, None, false);
    let texts: Vec<&str> = cands.iter().map(|(t, _)| t.as_str()).collect();
    assert!(texts.contains(&"France"));
    assert!(texts.contains(&"1"), "the implicit LIMIT-1 candidate is always present");
}

#[test]
fn full_mode_training_appends_missing_gold() {
    let db = db();
    let p = pre(&db, "students from nowhere in particular");
    let gold = vec!["Germany".to_string()];
    // At inference time the gold is not injected...
    let eval_cands = assemble_candidates(&db, &p, ValueMode::Full, Some(&gold), false);
    assert!(!eval_cands.iter().any(|(t, _)| t == "Germany"));
    // ...but during training it is, so the value pointer has a target.
    let train_cands = assemble_candidates(&db, &p, ValueMode::Full, Some(&gold), true);
    assert!(train_cands.iter().any(|(t, _)| t == "Germany"));
}

#[test]
fn novalue_mode_is_only_the_placeholder() {
    let db = db();
    let p = pre(&db, "How many students are from France?");
    let cands = assemble_candidates(&db, &p, ValueMode::NoValue, None, false);
    assert_eq!(cands.len(), 1);
    assert_eq!(cands[0].0, "1");
}

#[test]
fn mode_labels() {
    assert_eq!(ValueMode::Light.label(), "ValueNet light");
    assert_eq!(ValueMode::Full.label(), "ValueNet");
    assert_eq!(ValueMode::NoValue.label(), "NoValue baseline");
}

#[test]
fn candidate_case_insensitive_dedup() {
    let db = db();
    let p = pre(&db, "q");
    let gold = vec!["france".to_string(), "FRANCE".to_string()];
    let cands = assemble_candidates(&db, &p, ValueMode::Light, Some(&gold), false);
    assert_eq!(cands.len(), 1);
}

/// A question of punctuation alone has no word tokens: `try_translate`
/// refuses it with a typed error in every mode instead of panicking in
/// the encoder.
#[test]
fn a_question_with_no_word_tokens_is_a_typed_error() {
    let db = db();
    let gold = vec!["France".to_string()];
    for mode in [ValueMode::Light, ValueMode::Full, ValueMode::NoValue] {
        let vocab = Vocab::build(["How many students are from France?"].into_iter());
        let model = ValueNetModel::new(ModelConfig::tiny(), vocab, 7);
        let pipeline = Pipeline::new(model, mode, StatisticalNer::new());
        for question in ["?!", "...", ",", " ? "] {
            let got = pipeline.try_translate(&db, question, Some(&gold)).map(|_| ());
            assert_eq!(got, Err(PipelineError::NoWordTokens), "{question:?} in {}", mode.label());
        }
        assert!(pipeline.try_translate(&db, "How many students?", Some(&gold)).is_ok());
    }
}
