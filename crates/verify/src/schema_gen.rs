//! Random schema + data generator.
//!
//! Samples a small relational schema whose foreign keys form a tree (every
//! table except the first references an earlier one), so any subset of
//! tables is connected and SemQL lowering can always build a join tree.
//! Tables are populated with rows that deliberately include the awkward
//! cases: NULLs in payload columns, floats alongside integers in `Number`
//! columns, numbers that only full-precision keys tell apart (and `-0.0`),
//! dangling foreign keys, duplicated values and empty tables.

use rand::rngs::SmallRng;
use rand::Rng;
use valuenet_schema::{ColumnType, SchemaBuilder, TableId};
use valuenet_storage::{Database, Datum};

/// Text values drawn by the generator; small on purpose so that equality
/// filters hit and set operations overlap. The quote in `o'hara` exercises
/// literal escaping in the printer/parser round trip.
pub const TEXT_POOL: &[&str] =
    &["red", "green", "blue", "alpha", "beta", "new york", "o'hara"];

/// Numbers that share a ten-significant-digit key with a neighbour
/// (`12345678901` with `12345678902`, `1.0000000001` with `1`) or differ
/// from one only in sign (`-0.0` with `0`), so DISTINCT, GROUP BY and set
/// operations meet values that only full-precision keys keep apart or
/// together.
const NEAR_NUMBERS: &[Datum] = &[
    Datum::Int(12345678901),
    Datum::Int(12345678902),
    Datum::Float(1.0000000001),
    Datum::Float(-0.0),
];

/// Date-like values for `Time` columns (compared as text).
const TIME_POOL: &[&str] = &["2019-01-01", "2020-06-15", "2021-12-31"];

/// Maximum number of tables in a generated schema.
pub const MAX_TABLES: usize = 4;
/// Maximum number of rows per generated table.
pub const MAX_ROWS: usize = 12;

/// Samples a populated database. Deterministic in the RNG state.
pub fn gen_database(rng: &mut SmallRng) -> Database {
    let n_tables = rng.gen_range(1..=MAX_TABLES);

    // Describe the schema first: (table name, columns, parent table index).
    struct TableSpec {
        name: String,
        cols: Vec<(String, ColumnType)>,
        parent: Option<usize>,
    }
    let mut specs: Vec<TableSpec> = Vec::with_capacity(n_tables);
    for ti in 0..n_tables {
        let mut cols: Vec<(String, ColumnType)> = vec![(format!("t{ti}_id"), ColumnType::Number)];
        let parent = if ti > 0 { Some(rng.gen_range(0..ti)) } else { None };
        if let Some(p) = parent {
            cols.push((format!("t{p}_ref"), ColumnType::Number));
        }
        let n_payload = rng.gen_range(1..=3);
        for ci in 0..n_payload {
            let ty = match rng.gen_range(0..10) {
                0..=4 => ColumnType::Number,
                5..=8 => ColumnType::Text,
                _ => ColumnType::Time,
            };
            cols.push((format!("t{ti}_c{ci}"), ty));
        }
        specs.push(TableSpec { name: format!("t{ti}"), cols, parent });
    }

    let mut builder = SchemaBuilder::new("fuzz");
    for spec in &specs {
        let cols: Vec<(&str, ColumnType)> =
            spec.cols.iter().map(|(n, ty)| (n.as_str(), *ty)).collect();
        builder = builder.table(&spec.name, &cols);
        builder = builder.primary_key(&spec.name, &spec.cols[0].0);
        if let Some(p) = spec.parent {
            builder = builder.foreign_key(
                &spec.name,
                &format!("t{p}_ref"),
                &specs[p].name,
                &format!("t{p}_id"),
            );
        }
    }
    let schema = builder.build();

    // Populate. Row counts are sampled before any row data so that the
    // number of RNG draws per table is easy to reason about; a ~1 in 10
    // table is left empty to cover empty-input aggregate semantics.
    let mut row_counts = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let n = if rng.gen_range(0..10) == 0 { 0 } else { rng.gen_range(1..=MAX_ROWS) };
        row_counts.push(n);
    }

    let mut db = Database::new(schema);
    for (ti, spec) in specs.iter().enumerate() {
        let table = db.schema().table_by_name(&spec.name).expect("generated table exists");
        let parent_rows = spec.parent.map(|p| row_counts[p]).unwrap_or(0);
        for ri in 0..row_counts[ti] {
            let mut row: Vec<Datum> = Vec::with_capacity(spec.cols.len());
            for (ci, (_, ty)) in spec.cols.iter().enumerate() {
                if ci == 0 {
                    // Primary key: dense and unique.
                    row.push(Datum::Int(ri as i64));
                } else if ci == 1 && spec.parent.is_some() {
                    // Foreign key: usually a live parent id, sometimes
                    // dangling, sometimes NULL.
                    row.push(match rng.gen_range(0..10) {
                        0 => Datum::Null,
                        1 => Datum::Int(parent_rows as i64 + 7),
                        _ if parent_rows > 0 => {
                            Datum::Int(rng.gen_range(0..parent_rows) as i64)
                        }
                        _ => Datum::Int(0),
                    });
                } else {
                    row.push(gen_datum(rng, *ty));
                }
            }
            db.insert(table, row);
        }
    }
    db.rebuild_index();
    db
}

/// Samples one payload cell of the given column type.
fn gen_datum(rng: &mut SmallRng, ty: ColumnType) -> Datum {
    if rng.gen_range(0..10) == 0 {
        return Datum::Null;
    }
    match ty {
        ColumnType::Number => {
            if rng.gen_range(0..20) == 0 {
                NEAR_NUMBERS[rng.gen_range(0..NEAR_NUMBERS.len())].clone()
            } else if rng.gen_range(0..5) == 0 {
                Datum::Float(rng.gen_range(0..20) as f64 / 2.0)
            } else {
                Datum::Int(rng.gen_range(0..10))
            }
        }
        ColumnType::Time => Datum::Text(TIME_POOL[rng.gen_range(0..TIME_POOL.len())].to_string()),
        _ => Datum::Text(TEXT_POOL[rng.gen_range(0..TEXT_POOL.len())].to_string()),
    }
}

/// One-line-per-table summary used in failure reports.
pub fn describe_database(db: &Database) -> String {
    let schema = db.schema();
    let mut out = String::new();
    for (ti, table) in schema.tables.iter().enumerate() {
        let cols: Vec<String> = table
            .columns
            .iter()
            .map(|&c| format!("{} {:?}", schema.column(c).name, schema.column(c).ty))
            .collect();
        out.push_str(&format!(
            "  {} ({}) [{} rows]\n",
            table.name,
            cols.join(", "),
            db.rows(TableId(ti)).len()
        ));
        for row in db.rows(TableId(ti)) {
            let cells: Vec<String> = row.iter().map(|d| d.to_string()).collect();
            out.push_str(&format!("    ({})\n", cells.join(", ")));
        }
    }
    out
}
