//! Integration tests for the differential fuzz harness itself.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_exec::execute;
use valuenet_schema::{ColumnType, SchemaBuilder};
use valuenet_sql::parse_select;
use valuenet_storage::{Database, Datum};
use valuenet_verify::{
    case_seed, gen_database, gen_semql, reference_execute, run_case, run_fuzz, CaseOutcome,
    FuzzConfig,
};

#[test]
fn fuzz_smoke_has_no_divergences() {
    let report = run_fuzz(&FuzzConfig { cases: 300, seed: 42, inject_divergence: false });
    assert_eq!(report.cases, 300);
    assert!(
        report.divergences.is_empty(),
        "executor and oracle diverged:\n{}",
        report.divergences[0].1
    );
    // The generator must mostly produce executable queries; a run where
    // everything errors would silently test nothing.
    assert!(report.agreements > 250, "only {} agreements", report.agreements);
}

#[test]
fn case_seeds_are_spread_and_deterministic() {
    let a: Vec<u64> = (0..50).map(|i| case_seed(42, i)).collect();
    let b: Vec<u64> = (0..50).map(|i| case_seed(42, i)).collect();
    assert_eq!(a, b);
    let mut uniq = a.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), a.len(), "case seeds collide");
    assert_ne!(case_seed(42, 0), case_seed(43, 0), "base seed must matter");
}

#[test]
fn injected_divergence_is_caught_and_replays_bit_identically() {
    let seed = case_seed(7, 0);
    let first = run_case(seed, true);
    let CaseOutcome::Divergence { seed: s1, report: r1 } = first else {
        panic!("injected corruption must diverge, got {first:?}");
    };
    assert_eq!(s1, seed);
    // Replaying the same case seed reproduces the failure byte for byte —
    // the property `vn-fuzz --replay` relies on.
    let CaseOutcome::Divergence { seed: s2, report: r2 } = run_case(seed, true) else {
        panic!("replay lost the divergence");
    };
    assert_eq!(s1, s2);
    assert_eq!(r1, r2, "replayed report differs from the original");
}

#[test]
fn injected_divergence_reports_are_shrunk() {
    // Every injected failure must come back with a reproducer: a seed line,
    // a divergence description and a database dump.
    let report = run_fuzz(&FuzzConfig { cases: 5, seed: 7, inject_divergence: true });
    assert_eq!(report.divergences.len(), 5);
    for (seed, failure) in &report.divergences {
        assert!(failure.contains(&format!("seed: {seed}")), "missing seed line:\n{failure}");
        assert!(failure.contains("database:"), "missing database dump:\n{failure}");
        assert!(!failure.contains("shrinker bug"), "shrinker broke the case:\n{failure}");
    }
}

#[test]
fn generated_databases_are_schema_consistent() {
    for i in 0..30 {
        let mut rng = SmallRng::seed_from_u64(case_seed(9, i));
        let db = gen_database(&mut rng);
        let schema = db.schema();
        assert!(!schema.tables.is_empty());
        for (ti, table) in schema.tables.iter().enumerate() {
            for row in db.rows(valuenet_schema::TableId(ti)) {
                assert_eq!(row.len(), table.columns.len(), "row arity mismatch in {}", table.name);
            }
        }
        // Every generated tree must reference values consistently.
        let (tree, values) = gen_semql(&mut rng, &db);
        for r in tree.value_refs() {
            assert!(r.0 < values.len(), "dangling ValueRef {:?}", r);
        }
    }
}

/// The hash join's keys must agree with `Datum::sql_eq`, the equality the
/// oracle's nested loop applies: numbers equal only at full precision,
/// `Int` against `Float` by value, `-0.0` with `0.0`, and never NaN, NULL
/// or text against a number.
#[test]
fn hash_join_keys_agree_with_sql_equality() {
    let schema = SchemaBuilder::new("keys")
        .table("a", &[("id", ColumnType::Number)])
        .table("b", &[("id", ColumnType::Number), ("a_ref", ColumnType::Number)])
        .build();
    let stmt =
        parse_select("SELECT count(*) FROM a AS T1 JOIN b AS T2 ON T1.id = T2.a_ref").unwrap();
    let cases = [
        (Datum::Int(12345678901), Datum::Int(12345678902), 0),
        (Datum::Float(1.0), Datum::Float(1.0000000001), 0),
        (Datum::Int(2), Datum::Float(2.0), 1),
        (Datum::Float(-0.0), Datum::Float(0.0), 1),
        (Datum::Text("x".into()), Datum::Text("x".into()), 1),
        (Datum::Float(f64::NAN), Datum::Float(f64::NAN), 0),
        (Datum::Null, Datum::Null, 0),
        (Datum::Text("2".into()), Datum::Int(2), 0),
    ];
    for (left, right, joined) in cases {
        let db = Database::with_rows(
            schema.clone(),
            vec![vec![vec![left.clone()]], vec![vec![Datum::Int(1), right.clone()]]],
        );
        let got = execute(&db, &stmt).unwrap();
        let want = reference_execute(&db, &stmt).unwrap();
        assert_eq!(got.rows, vec![vec![Datum::Int(joined)]], "{left:?} against {right:?}");
        assert_eq!(got.rows, want.rows, "executor and oracle differ on {left:?} against {right:?}");
    }
}

/// DISTINCT, GROUP BY, `count(DISTINCT …)` and set operations must key
/// numbers by `Datum::sql_eq` as well: apart at full precision, `Int` with
/// `Float` of the same value, `-0.0` with `0.0`.
#[test]
fn grouping_keys_agree_with_sql_equality() {
    let values = [
        Datum::Int(12345678901),
        Datum::Int(12345678902),
        Datum::Float(1.0),
        Datum::Float(1.0000000001),
        Datum::Int(2),
        Datum::Float(2.0),
        Datum::Float(-0.0),
        Datum::Float(0.0),
    ];
    let mut classes: Vec<&Datum> = Vec::new();
    for v in &values {
        if !classes.iter().any(|c| c.sql_eq(v)) {
            classes.push(v);
        }
    }
    assert_eq!(classes.len(), 6, "sql_eq's groups");

    let schema = SchemaBuilder::new("keys")
        .table("t", &[("id", ColumnType::Number), ("v", ColumnType::Number)])
        .build();
    let rows = values.iter().enumerate().map(|(i, v)| vec![Datum::Int(i as i64), v.clone()]);
    let db = Database::with_rows(schema, vec![rows.collect()]);
    let groups = |rs: &valuenet_exec::ResultSet, counted: bool| {
        if counted {
            rs.rows[0][0].as_number().unwrap() as usize
        } else {
            rs.rows.len()
        }
    };
    for (sql, counted) in [
        ("SELECT DISTINCT v FROM t", false),
        ("SELECT count(DISTINCT v) FROM t", true),
        ("SELECT v, count(*) FROM t GROUP BY v", false),
        ("SELECT v FROM t UNION SELECT v FROM t", false),
        ("SELECT v FROM t INTERSECT SELECT v FROM t", false),
    ] {
        let stmt = parse_select(sql).unwrap();
        let got = execute(&db, &stmt).unwrap();
        let want = reference_execute(&db, &stmt).unwrap();
        assert_eq!(groups(&got, counted), classes.len(), "executor: {sql}");
        assert_eq!(groups(&want, counted), classes.len(), "oracle: {sql}");
    }
}
