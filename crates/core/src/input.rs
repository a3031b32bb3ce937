//! Model-input construction: question + hints, schema items, and value
//! candidates with their locations (paper Figs. 6–8).

use crate::vocab::Vocab;
use valuenet_preprocess::{Preprocessed, QuestionHint, SchemaHint};
use valuenet_schema::ColumnId;
use valuenet_storage::Database;

/// Word-id sequence of one encodable item (column / table / value).
#[derive(Debug, Clone)]
pub struct ItemTokens {
    /// Word ids (never empty).
    pub word_ids: Vec<usize>,
}

/// Everything the encoder consumes for one question.
#[derive(Debug, Clone)]
pub struct ModelInput {
    /// Question word ids.
    pub question_ids: Vec<usize>,
    /// Question-hint class per token.
    pub question_hints: Vec<usize>,
    /// One entry per schema column (index = `ColumnId.0`).
    pub columns: Vec<ItemTokens>,
    /// Schema-hint class per column.
    pub column_hints: Vec<usize>,
    /// Column-type class per column (5 = the `*` pseudo-column).
    pub column_types: Vec<usize>,
    /// One entry per schema table.
    pub tables: Vec<ItemTokens>,
    /// Schema-hint class per table.
    pub table_hints: Vec<usize>,
    /// One entry per value candidate: value words ⊕ its location's table and
    /// column words (Fig. 8).
    pub values: Vec<ItemTokens>,
    /// Candidate texts, parallel to `values` (resolves `V` pointers).
    pub candidates: Vec<String>,
}

/// Number of question-hint classes.
pub const NUM_QUESTION_HINTS: usize = 6;
/// Number of schema-hint classes.
pub const NUM_SCHEMA_HINTS: usize = 4;
/// Number of column-type classes (five logical types + `*`).
pub const NUM_COLUMN_TYPES: usize = 6;

fn qhint_id(h: QuestionHint) -> usize {
    match h {
        QuestionHint::None => 0,
        QuestionHint::Table => 1,
        QuestionHint::Column => 2,
        QuestionHint::Value => 3,
        QuestionHint::Agg => 4,
        QuestionHint::Superlative => 5,
    }
}

fn shint_id(h: SchemaHint) -> usize {
    match h {
        SchemaHint::None => 0,
        SchemaHint::Partial => 1,
        SchemaHint::Exact => 2,
        SchemaHint::ValueCandidate => 3,
    }
}

fn ctype_id(ty: valuenet_schema::ColumnType) -> usize {
    match ty {
        valuenet_schema::ColumnType::Text => 0,
        valuenet_schema::ColumnType::Number => 1,
        valuenet_schema::ColumnType::Time => 2,
        valuenet_schema::ColumnType::Boolean => 3,
        valuenet_schema::ColumnType::Others => 4,
    }
}

/// Ablation switches for input construction (`DESIGN.md` Section 5).
#[derive(Debug, Clone, Copy)]
pub struct InputOptions {
    /// Feed the question/schema hint classes to the encoder (Figs. 6–7).
    pub use_hints: bool,
    /// Encode each value candidate together with its table/column location
    /// (Fig. 8) rather than the bare value text.
    pub encode_value_location: bool,
}

impl Default for InputOptions {
    fn default() -> Self {
        InputOptions { use_hints: true, encode_value_location: true }
    }
}

/// Builds the encoder input. `candidates` supplies the value options —
/// ground truth for *ValueNet light*, the candidate pipeline's output for
/// *ValueNet* — each with the columns it was located in.
pub fn build_input(
    db: &Database,
    pre: &Preprocessed,
    candidates: &[(String, Vec<ColumnId>)],
    vocab: &Vocab,
) -> ModelInput {
    build_input_opts(db, pre, candidates, vocab, InputOptions::default())
}

/// [`build_input`] with explicit ablation options.
pub fn build_input_opts(
    db: &Database,
    pre: &Preprocessed,
    candidates: &[(String, Vec<ColumnId>)],
    vocab: &Vocab,
    opts: InputOptions,
) -> ModelInput {
    let schema = db.schema();
    let question_ids: Vec<usize> = pre.tokens.iter().map(|t| vocab.id(&t.lower)).collect();
    let question_hints: Vec<usize> = if opts.use_hints {
        pre.question_hints.iter().map(|&h| qhint_id(h)).collect()
    } else {
        vec![0; pre.question_hints.len()]
    };

    let mut columns = Vec::with_capacity(schema.columns.len());
    let mut column_hints = Vec::with_capacity(schema.columns.len());
    let mut column_types = Vec::with_capacity(schema.columns.len());
    for (i, col) in schema.columns.iter().enumerate() {
        columns.push(ItemTokens { word_ids: vocab.ids(&col.display) });
        column_hints.push(if opts.use_hints { shint_id(pre.schema_hints.columns[i]) } else { 0 });
        column_types.push(if i == 0 { 5 } else { ctype_id(col.ty) });
    }

    let mut tables = Vec::with_capacity(schema.tables.len());
    let mut table_hints = Vec::with_capacity(schema.tables.len());
    for (i, t) in schema.tables.iter().enumerate() {
        tables.push(ItemTokens { word_ids: vocab.ids(&t.display) });
        table_hints.push(if opts.use_hints { shint_id(pre.schema_hints.tables[i]) } else { 0 });
    }

    let mut values = Vec::with_capacity(candidates.len());
    let mut cand_texts = Vec::with_capacity(candidates.len());
    for (text, locations) in candidates {
        // Value words first, then the location (table ⊕ column) words, so the
        // encoder can attend to where the value was found (Fig. 8).
        let mut word_ids = vocab.ids(text);
        if !opts.encode_value_location {
            values.push(ItemTokens { word_ids });
            cand_texts.push(text.clone());
            continue;
        }
        if let Some(&col) = locations.first() {
            if !col.is_star() && col.0 < schema.columns.len() {
                let c = schema.column(col);
                if let Some(t) = c.table {
                    word_ids.extend(vocab.ids(&schema.table(t).display));
                }
                word_ids.extend(vocab.ids(&c.display));
            }
        }
        values.push(ItemTokens { word_ids });
        cand_texts.push(text.clone());
    }

    ModelInput {
        question_ids,
        question_hints,
        columns,
        column_hints,
        column_types,
        tables,
        table_hints,
        values,
        candidates: cand_texts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valuenet_preprocess::{preprocess, CandidateConfig, HeuristicNer};
    use valuenet_schema::{ColumnType, SchemaBuilder};

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
        db.rebuild_index();
        db
    }

    #[test]
    fn builds_aligned_input() {
        let db = demo_db();
        let q = "How many students are from France?";
        let pre = preprocess(q, &db, &HeuristicNer::new(), &CandidateConfig::default());
        let vocab = Vocab::build([q, "student name age home country france"].into_iter());
        let country = db.schema().any_column_by_name("home_country").map(|(_, c)| c).unwrap();
        let cands = vec![("France".to_string(), vec![country])];
        let input = build_input(&db, &pre, &cands, &vocab);

        assert_eq!(input.question_ids.len(), input.question_hints.len());
        assert_eq!(input.columns.len(), db.schema().columns.len());
        assert_eq!(input.tables.len(), 1);
        assert_eq!(input.values.len(), 1);
        assert_eq!(input.candidates, vec!["France"]);
        // The value item must include its location words (student, home, country).
        let val_ids = &input.values[0].word_ids;
        assert!(val_ids.len() >= 3, "location words missing: {val_ids:?}");
        assert!(val_ids.contains(&vocab.id("student")));
        assert!(val_ids.contains(&vocab.id("country")));
        // Star column typed as class 5.
        assert_eq!(input.column_types[0], 5);
    }

    #[test]
    fn ablation_options_strip_features() {
        let db = demo_db();
        let q = "How many students are from France?";
        let pre = preprocess(q, &db, &HeuristicNer::new(), &CandidateConfig::default());
        let vocab = Vocab::build([q, "student name age home country france"].into_iter());
        let country = db.schema().any_column_by_name("home_country").map(|(_, c)| c).unwrap();
        let cands = vec![("France".to_string(), vec![country])];

        let no_hints = build_input_opts(
            &db,
            &pre,
            &cands,
            &vocab,
            InputOptions { use_hints: false, encode_value_location: true },
        );
        assert!(no_hints.question_hints.iter().all(|&h| h == 0));
        assert!(no_hints.column_hints.iter().all(|&h| h == 0));
        assert!(no_hints.table_hints.iter().all(|&h| h == 0));

        let no_loc = build_input_opts(
            &db,
            &pre,
            &cands,
            &vocab,
            InputOptions { use_hints: true, encode_value_location: false },
        );
        // Without the location, the value item is just the value's words.
        assert_eq!(no_loc.values[0].word_ids, vocab.ids("France"));
        let with_loc = build_input(&db, &pre, &cands, &vocab);
        assert!(with_loc.values[0].word_ids.len() > no_loc.values[0].word_ids.len());
    }

    #[test]
    fn empty_candidate_list_ok() {
        let db = demo_db();
        let q = "How many students are there?";
        let pre = preprocess(q, &db, &HeuristicNer::new(), &CandidateConfig::default());
        let vocab = Vocab::build([q].into_iter());
        let input = build_input(&db, &pre, &[], &vocab);
        assert!(input.values.is_empty());
        assert!(input.candidates.is_empty());
    }
}
