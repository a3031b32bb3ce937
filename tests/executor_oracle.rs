//! The executor against the naive reference interpreter, over the generated
//! corpus and hand-built joins: both must agree on success or failure and
//! return the same rows in the same order, which is stricter than Execution
//! Accuracy's `result_eq`.

use valuenet::dataset::{generate, CorpusConfig};
use valuenet::exec::{execute, ResultSet};
use valuenet::schema::{ColumnType, SchemaBuilder};
use valuenet::sql::parse_select;
use valuenet::storage::{Database, Datum};
use valuenet_verify::reference_execute;

fn assert_same(db: &Database, sql: &str) -> Option<ResultSet> {
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{sql} does not parse: {e}"));
    match (execute(db, &stmt), reference_execute(db, &stmt)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.headers, want.headers, "headers differ for {sql}");
            assert_eq!(got.rows, want.rows, "rows differ for {sql}");
            assert_eq!(got.ordered, want.ordered, "ordering differs for {sql}");
            Some(got)
        }
        (Err(_), Err(_)) => None,
        (got, want) => panic!("outcomes differ for {sql}: executor {got:?}, oracle {want:?}"),
    }
}

#[test]
fn executor_matches_oracle_row_for_row_over_gold_corpus() {
    let corpus = generate(&CorpusConfig {
        seed: 99,
        train_size: 150,
        dev_size: 50,
        rows_per_table: 60,
        ..CorpusConfig::default()
    });
    let mut joins = 0;
    for s in corpus.train.iter().chain(&corpus.dev) {
        assert!(assert_same(corpus.db(s), &s.sql).is_some(), "gold SQL fails: {}", s.sql);
        joins += usize::from(s.sql.contains(" JOIN "));
    }
    assert!(joins > 0, "the corpus must exercise joins");
}

fn joined_db(b_rows: usize) -> Database {
    let schema = SchemaBuilder::new("lazy")
        .table("a", &[("id", ColumnType::Number)])
        .table("b", &[("id", ColumnType::Number), ("a_ref", ColumnType::Number)])
        .build();
    let a = vec![vec![Datum::Int(1)], vec![Datum::Int(2)]];
    let b = vec![
        vec![Datum::Int(10), Datum::Int(1)],
        vec![Datum::Int(11), Datum::Int(2)],
        vec![Datum::Int(12), Datum::Int(1)],
    ];
    Database::with_rows(schema, vec![a, b.into_iter().take(b_rows).collect()])
}

#[test]
fn join_rows_are_left_major_with_right_rows_in_table_order() {
    // Key 1 matches two rows of `b`; no ORDER BY, so the order is the join's.
    let want: Vec<Vec<Datum>> = [(1, 10), (1, 12), (2, 11)]
        .iter()
        .map(|&(a, b)| vec![Datum::Int(a), Datum::Int(b)])
        .collect();
    for on in ["T1.id = T2.a_ref", "T2.a_ref = T1.id"] {
        let sql = format!("SELECT T1.id, T2.id FROM a AS T1 JOIN b AS T2 ON {on}");
        let rs = assert_same(&joined_db(3), &sql).expect("the join executes");
        assert_eq!(rs.rows, want, "{sql}");
    }
}

#[test]
fn failing_where_after_join_is_lazy_on_both_sides() {
    let sql = "SELECT count(*) FROM a AS T1 JOIN b AS T2 ON T1.id = T2.a_ref WHERE T2.* > 2";
    assert!(assert_same(&joined_db(2), sql).is_none(), "bare * in WHERE must fail on joined rows");
    let rs = assert_same(&joined_db(0), sql).expect("an empty join never evaluates WHERE");
    assert_eq!(rs.rows, vec![vec![Datum::Int(0)]]);
}

#[test]
fn rows_cut_by_limit_still_raise_their_projection_errors() {
    // Only the second row in order reaches the bare `*`, and LIMIT 1 cuts it.
    let sql = "SELECT T1.id > 1 AND T2.* > 2 FROM a AS T1 JOIN b AS T2 ON T1.id = T2.a_ref \
               ORDER BY T1.id LIMIT 1";
    assert!(assert_same(&joined_db(2), sql).is_none());
    assert!(assert_same(&joined_db(1), sql).is_some());
}
