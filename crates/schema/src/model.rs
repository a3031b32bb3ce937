//! Schema data model: tables, columns, types and key relationships.

/// Index of a table within a [`DbSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Index of a column within a [`DbSchema`]. Column `0` is always the special
/// `*` column (it belongs to no table), mirroring Spider's schema encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub usize);

impl ColumnId {
    /// The `*` pseudo-column present in every schema.
    pub const STAR: ColumnId = ColumnId(0);

    /// Whether this is the `*` pseudo-column.
    pub fn is_star(self) -> bool {
        self.0 == 0
    }
}

/// Logical column types, following Spider's five-way classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Free text.
    Text,
    /// Integers and reals.
    Number,
    /// Dates, times, years.
    Time,
    /// Booleans (often stored as 0/1 or 'T'/'F' in real schemas).
    Boolean,
    /// Anything else (ids, codes).
    Others,
}

impl ColumnType {
    /// Whether literal values of this type are quoted in SQL.
    pub fn is_textual(self) -> bool {
        matches!(self, ColumnType::Text | ColumnType::Time)
    }
}

/// A column of a table.
#[derive(Debug, Clone)]
pub struct Column {
    /// Physical (snake_case) name as used in SQL.
    pub name: String,
    /// Natural-language surface form (e.g. "home country"), used for schema
    /// linking; Spider calls this the "column original name" counterpart.
    pub display: String,
    /// Owning table; `None` only for the `*` pseudo-column.
    pub table: Option<TableId>,
    /// Logical type.
    pub ty: ColumnType,
    /// Whether the column is (part of) the primary key.
    pub is_primary: bool,
}

/// A table of the schema.
#[derive(Debug, Clone)]
pub struct Table {
    /// Physical (snake_case) name as used in SQL.
    pub name: String,
    /// Natural-language surface form (e.g. "has pet").
    pub display: String,
    /// Columns belonging to this table, in declaration order.
    pub columns: Vec<ColumnId>,
}

/// A foreign-key relationship `from` → `to` (child column references parent
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing (child) column.
    pub from: ColumnId,
    /// Referenced (parent) column.
    pub to: ColumnId,
}

/// A complete database schema.
#[derive(Debug, Clone)]
pub struct DbSchema {
    /// Database identifier (Spider's `db_id`).
    pub db_id: String,
    /// All tables.
    pub tables: Vec<Table>,
    /// All columns; index 0 is the `*` pseudo-column.
    pub columns: Vec<Column>,
    /// All foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl DbSchema {
    /// The table with the given physical name, if any (case-insensitive).
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.tables.iter().position(|t| t.name.eq_ignore_ascii_case(name)).map(TableId)
    }

    /// The column with the given physical name in the given table.
    pub fn column_by_name(&self, table: TableId, name: &str) -> Option<ColumnId> {
        self.tables[table.0]
            .columns
            .iter()
            .copied()
            .find(|&c| self.columns[c.0].name.eq_ignore_ascii_case(name))
    }

    /// The first column with the given physical name in any table.
    pub fn any_column_by_name(&self, name: &str) -> Option<(TableId, ColumnId)> {
        for (ti, t) in self.tables.iter().enumerate() {
            for &c in &t.columns {
                if self.columns[c.0].name.eq_ignore_ascii_case(name) {
                    return Some((TableId(ti), c));
                }
            }
        }
        None
    }

    /// Accessor: table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Accessor: column by id.
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.0]
    }

    /// The primary-key column of a table, if it has a single-column one.
    pub fn primary_key(&self, table: TableId) -> Option<ColumnId> {
        self.tables[table.0].columns.iter().copied().find(|&c| self.columns[c.0].is_primary)
    }

    /// Qualified name `table.column` for diagnostics.
    pub fn qualified(&self, col: ColumnId) -> String {
        let c = &self.columns[col.0];
        match c.table {
            Some(t) => format!("{}.{}", self.tables[t.0].name, c.name),
            None => "*".to_string(),
        }
    }
}

/// Fluent builder for [`DbSchema`], used heavily by the dataset generator.
///
/// # Example
/// ```
/// use valuenet_schema::{ColumnType, SchemaBuilder};
///
/// let schema = SchemaBuilder::new("pets")
///     .table("student", &[
///         ("stu_id", ColumnType::Number),
///         ("name", ColumnType::Text),
///         ("age", ColumnType::Number),
///     ])
///     .primary_key("student", "stu_id")
///     .table("pet", &[("pet_id", ColumnType::Number), ("owner_id", ColumnType::Number)])
///     .primary_key("pet", "pet_id")
///     .foreign_key("pet", "owner_id", "student", "stu_id")
///     .build();
/// assert_eq!(schema.tables.len(), 2);
/// assert_eq!(schema.foreign_keys.len(), 1);
/// ```
pub struct SchemaBuilder {
    schema: DbSchema,
}

impl SchemaBuilder {
    /// Starts a schema with the given database id and the `*` pseudo-column.
    pub fn new(db_id: impl Into<String>) -> Self {
        SchemaBuilder {
            schema: DbSchema {
                db_id: db_id.into(),
                tables: Vec::new(),
                columns: vec![Column {
                    name: "*".into(),
                    display: "*".into(),
                    table: None,
                    ty: ColumnType::Others,
                    is_primary: false,
                }],
                foreign_keys: Vec::new(),
            },
        }
    }

    /// Adds a table with the given `(name, type)` columns. The display form
    /// of every identifier is its name with underscores replaced by spaces.
    pub fn table(mut self, name: &str, cols: &[(&str, ColumnType)]) -> Self {
        let tid = TableId(self.schema.tables.len());
        let mut ids = Vec::with_capacity(cols.len());
        for (cname, ty) in cols {
            let cid = ColumnId(self.schema.columns.len());
            self.schema.columns.push(Column {
                name: (*cname).to_string(),
                display: cname.replace('_', " "),
                table: Some(tid),
                ty: *ty,
                is_primary: false,
            });
            ids.push(cid);
        }
        self.schema.tables.push(Table {
            name: name.to_string(),
            display: name.replace('_', " "),
            columns: ids,
        });
        self
    }

    /// Marks `table.column` as (part of) the primary key.
    ///
    /// # Panics
    /// Panics if the table or column does not exist.
    pub fn primary_key(mut self, table: &str, column: &str) -> Self {
        let t = self.schema.table_by_name(table).unwrap_or_else(|| panic!("no table {table}"));
        let c = self
            .schema
            .column_by_name(t, column)
            .unwrap_or_else(|| panic!("no column {table}.{column}"));
        self.schema.columns[c.0].is_primary = true;
        self
    }

    /// Adds a foreign key `child.ccol` → `parent.pcol`.
    ///
    /// # Panics
    /// Panics if any identifier does not exist.
    pub fn foreign_key(mut self, child: &str, ccol: &str, parent: &str, pcol: &str) -> Self {
        let ct = self.schema.table_by_name(child).unwrap_or_else(|| panic!("no table {child}"));
        let pt = self.schema.table_by_name(parent).unwrap_or_else(|| panic!("no table {parent}"));
        let cc = self
            .schema
            .column_by_name(ct, ccol)
            .unwrap_or_else(|| panic!("no column {child}.{ccol}"));
        let pc = self
            .schema
            .column_by_name(pt, pcol)
            .unwrap_or_else(|| panic!("no column {parent}.{pcol}"));
        self.schema.foreign_keys.push(ForeignKey { from: cc, to: pc });
        self
    }

    /// Finishes the schema.
    pub fn build(self) -> DbSchema {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pets_schema() -> DbSchema {
        SchemaBuilder::new("pets")
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
            .table(
                "has_pet",
                &[("stu_id", ColumnType::Number), ("pet_id", ColumnType::Number)],
            )
            .table(
                "pet",
                &[
                    ("pet_id", ColumnType::Number),
                    ("pet_type", ColumnType::Text),
                    ("weight", ColumnType::Number),
                ],
            )
            .primary_key("pet", "pet_id")
            .foreign_key("has_pet", "stu_id", "student", "stu_id")
            .foreign_key("has_pet", "pet_id", "pet", "pet_id")
            .build()
    }

    #[test]
    fn star_column_is_first() {
        let s = pets_schema();
        assert!(ColumnId::STAR.is_star());
        assert_eq!(s.columns[0].name, "*");
        assert!(s.columns[0].table.is_none());
    }

    #[test]
    fn lookup_by_name() {
        let s = pets_schema();
        let student = s.table_by_name("STUDENT").expect("case-insensitive lookup");
        assert_eq!(s.table(student).name, "student");
        let age = s.column_by_name(student, "age").unwrap();
        assert_eq!(s.column(age).ty, ColumnType::Number);
        assert_eq!(s.qualified(age), "student.age");
        assert!(s.column_by_name(student, "weight").is_none());
    }

    #[test]
    fn primary_and_foreign_keys() {
        let s = pets_schema();
        let student = s.table_by_name("student").unwrap();
        let pk = s.primary_key(student).unwrap();
        assert_eq!(s.column(pk).name, "stu_id");
        assert_eq!(s.foreign_keys.len(), 2);
        let fk = s.foreign_keys[0];
        assert_eq!(s.qualified(fk.from), "has_pet.stu_id");
        assert_eq!(s.qualified(fk.to), "student.stu_id");
    }

    #[test]
    fn display_names_strip_underscores() {
        let s = pets_schema();
        let t = s.table_by_name("has_pet").unwrap();
        assert_eq!(s.table(t).display, "has pet");
        let student = s.table_by_name("student").unwrap();
        let c = s.column_by_name(student, "home_country").unwrap();
        assert_eq!(s.column(c).display, "home country");
    }
}
