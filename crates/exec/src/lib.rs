//! SQL executor over the in-memory database.
//!
//! The Spider *Execution Accuracy* metric — the one ValueNet is evaluated on
//! — requires actually running both the predicted and the gold query and
//! comparing their results. This crate executes the SQL subset produced by
//! the SemQL 2.0 grammar: inner joins with `ON` clauses (a join without one
//! degenerates to the cross join the paper warns about), WHERE with
//! AND/OR/NOT, comparisons against literals and uncorrelated scalar
//! subqueries, BETWEEN / LIKE / IN (list and subquery), GROUP BY + HAVING
//! with the five standard aggregates, DISTINCT, ORDER BY + LIMIT, and
//! UNION / UNION ALL / INTERSECT / EXCEPT.
//!
//! A query reads [`valuenet_storage::Database::rows`] in place: joined rows
//! are tuples of row indices, expressions read cells by reference, a single
//! `ON a = b` is a hash join keyed consistently with `Datum::sql_eq`, and
//! column references are resolved once per query. The naive interpreter in
//! `valuenet-verify` is the oracle it must agree with row for row.
//!
//! ```
//! use valuenet_exec::execute;
//! use valuenet_schema::{ColumnType, SchemaBuilder};
//! use valuenet_sql::parse_select;
//! use valuenet_storage::Database;
//!
//! let schema = SchemaBuilder::new("demo")
//!     .table("t", &[("a", ColumnType::Number), ("b", ColumnType::Text)])
//!     .build();
//! let mut db = Database::new(schema);
//! let t = db.schema().table_by_name("t").unwrap();
//! db.insert(t, vec![1.into(), "x".into()]);
//! db.insert(t, vec![2.into(), "y".into()]);
//! db.rebuild_index();
//!
//! let q = parse_select("SELECT count(*) FROM t WHERE a > 1").unwrap();
//! let rs = execute(&db, &q).unwrap();
//! assert_eq!(rs.rows[0][0].as_number(), Some(1.0));
//! ```

mod error;
mod executor;
mod result;

pub use error::ExecError;
pub use executor::execute;
pub use result::ResultSet;
