//! Row storage typed by a schema.

use crate::{Datum, InvertedIndex};
use valuenet_schema::{ColumnId, DbSchema, TableId};

/// An in-memory database: a schema, one row store per table, and an inverted
/// index over all base data.
///
/// Rows are stored in schema column order. After the last `insert`, call
/// [`Database::rebuild_index`] (or construct via [`Database::with_rows`],
/// which does it for you) before using [`Database::index`].
pub struct Database {
    schema: DbSchema,
    tables: Vec<Vec<Vec<Datum>>>,
    index: Option<InvertedIndex>,
}

impl Database {
    /// An empty database for the given schema.
    pub fn new(schema: DbSchema) -> Self {
        let tables = vec![Vec::new(); schema.tables.len()];
        Database { schema, tables, index: None }
    }

    /// Builds a database and its index in one go. `rows[t]` holds the rows of
    /// table `t` in schema order.
    pub fn with_rows(schema: DbSchema, rows: Vec<Vec<Vec<Datum>>>) -> Self {
        assert_eq!(rows.len(), schema.tables.len(), "one row set per table required");
        let mut db = Database { schema, tables: rows, index: None };
        for (ti, table) in db.schema.tables.iter().enumerate() {
            for row in &db.tables[ti] {
                assert_eq!(
                    row.len(),
                    table.columns.len(),
                    "row arity mismatch in table {}",
                    table.name
                );
            }
        }
        db.rebuild_index();
        db
    }

    /// The schema.
    pub fn schema(&self) -> &DbSchema {
        &self.schema
    }

    /// Inserts a row (schema column order). Invalidates the index.
    ///
    /// # Panics
    /// Panics if the row arity does not match the table.
    pub fn insert(&mut self, table: TableId, row: Vec<Datum>) {
        let expected = self.schema.tables[table.0].columns.len();
        assert_eq!(
            row.len(),
            expected,
            "insert into {}: expected {expected} values, got {}",
            self.schema.tables[table.0].name,
            row.len()
        );
        self.tables[table.0].push(row);
        self.index = None;
    }

    /// All rows of a table.
    pub fn rows(&self, table: TableId) -> &[Vec<Datum>] {
        &self.tables[table.0]
    }

    /// Total number of rows across all tables.
    pub fn num_rows(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// (Re)builds the inverted index from the current contents.
    pub fn rebuild_index(&mut self) {
        // Temporarily take the index out to satisfy the borrow checker: the
        // build only reads schema and rows.
        self.index = None;
        let idx = InvertedIndex::build(self);
        self.index = Some(idx);
    }

    /// The inverted index.
    ///
    /// # Panics
    /// Panics if rows were inserted since the last [`Database::rebuild_index`].
    pub fn index(&self) -> &InvertedIndex {
        self.index
            .as_ref()
            .expect("index is stale: call Database::rebuild_index() after inserts")
    }

    /// Maps a column to its table and offset within that table's rows.
    ///
    /// # Panics
    /// Panics for the `*` pseudo-column.
    pub fn column_offset(&self, column: ColumnId) -> (TableId, usize) {
        let col = self.schema.column(column);
        let table = col.table.expect("column_offset on the * pseudo-column");
        let off = self.schema.tables[table.0]
            .columns
            .iter()
            .position(|&c| c == column)
            .expect("column listed in its table");
        (table, off)
    }

    /// Iterates over all (non-null included) values of a column.
    pub fn column_values(&self, column: ColumnId) -> impl Iterator<Item = &Datum> {
        let (table, off) = self.column_offset(column);
        self.tables[table.0].iter().map(move |row| &row[off])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valuenet_schema::{ColumnType, SchemaBuilder};

    fn demo_db() -> Database {
        let schema = SchemaBuilder::new("demo")
            .table(
                "student",
                &[
                    ("stu_id", ColumnType::Number),
                    ("name", ColumnType::Text),
                    ("age", ColumnType::Number),
                    ("home_country", ColumnType::Text),
                ],
            )
            .primary_key("student", "stu_id")
            .table("pet", &[("pet_id", ColumnType::Number), ("pet_type", ColumnType::Text)])
            .build();
        let mut db = Database::new(schema);
        let student = db.schema().table_by_name("student").unwrap();
        let pet = db.schema().table_by_name("pet").unwrap();
        db.insert(student, vec![1.into(), "Alice".into(), 21.into(), "France".into()]);
        db.insert(student, vec![2.into(), "Bob".into(), 19.into(), "Germany".into()]);
        db.insert(student, vec![3.into(), "Carol".into(), 23.into(), "France".into()]);
        db.insert(pet, vec![1.into(), "dog".into()]);
        db.insert(pet, vec![2.into(), "cat".into()]);
        db.rebuild_index();
        db
    }

    #[test]
    fn insert_and_read_back() {
        let db = demo_db();
        let student = db.schema().table_by_name("student").unwrap();
        assert_eq!(db.rows(student).len(), 3);
        assert_eq!(db.num_rows(), 5);
        assert!(db.rows(student)[0][1].sql_eq(&Datum::Text("Alice".into())));
    }

    #[test]
    #[should_panic(expected = "expected 2 values")]
    fn arity_mismatch_panics() {
        let mut db = demo_db();
        let pet = db.schema().table_by_name("pet").unwrap();
        db.insert(pet, vec![1.into()]);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_index_panics() {
        let mut db = demo_db();
        let pet = db.schema().table_by_name("pet").unwrap();
        db.insert(pet, vec![3.into(), "bird".into()]);
        let _ = db.index();
    }

    #[test]
    fn column_offset_and_values() {
        let db = demo_db();
        let student = db.schema().table_by_name("student").unwrap();
        let age = db.schema().column_by_name(student, "age").unwrap();
        let (t, off) = db.column_offset(age);
        assert_eq!(t, student);
        assert_eq!(off, 2);
        let ages: Vec<f64> = db.column_values(age).map(|d| d.as_number().unwrap()).collect();
        assert_eq!(ages, vec![21.0, 19.0, 23.0]);
    }

    #[test]
    fn exact_lookup_finds_columns() {
        let db = demo_db();
        let student = db.schema().table_by_name("student").unwrap();
        let country = db.schema().column_by_name(student, "home_country").unwrap();
        let cols = db.index().find_exact("france");
        assert_eq!(cols, vec![country]);
        assert!(db.index().contains(country, "France"));
        assert!(!db.index().contains(country, "Spain"));
        // Numbers are indexed by their canonical text form.
        let age = db.schema().column_by_name(student, "age").unwrap();
        assert!(db.index().find_exact("21").contains(&age));
    }

    #[test]
    fn similarity_lookup_ranks_by_distance() {
        let db = demo_db();
        let hits = db.index().find_similar("Frence", 2);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].value, "France");
        assert_eq!(hits[0].distance, 1);
    }

    #[test]
    fn token_lookup() {
        let db = demo_db();
        let student = db.schema().table_by_name("student").unwrap();
        let name = db.schema().column_by_name(student, "name").unwrap();
        assert!(db.index().find_token("alice").contains(&name));
        assert!(db.index().find_token("nosuchtoken").is_empty());
    }

    #[test]
    fn index_counts_distinct_only() {
        let db = demo_db();
        // "France" appears twice but is one distinct value.
        let student = db.schema().table_by_name("student").unwrap();
        let country = db.schema().column_by_name(student, "home_country").unwrap();
        assert_eq!(db.index().distinct_values(country).len(), 2);
    }

    #[test]
    fn like_lookup() {
        let db = demo_db();
        let hits = db.index().find_like_anywhere("%o%");
        assert!(hits.iter().any(|(_, v)| v == "Bob"));
        assert!(hits.iter().any(|(_, v)| v == "dog"));
    }
}
