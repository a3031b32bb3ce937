//! Domain specification: the metadata the generic question templates need.

use valuenet_schema::{ColumnId, DbSchema, TableId};
use valuenet_storage::Datum;

/// The paper's value-difficulty classes (Section V-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueDifficulty {
    /// Value appears verbatim in the question ("older than 20").
    Easy,
    /// Slightly different form ("professors" → `'Professor'`).
    Medium,
    /// Needs domain knowledge ("French" → `'France'`, "Los Angeles" → `'LAX'`).
    Hard,
    /// Not explicitly recognisable as a value ("official languages" →
    /// `is_official = 1`).
    ExtraHard,
}

impl ValueDifficulty {
    /// All classes in order.
    pub const ALL: [ValueDifficulty; 4] = [
        ValueDifficulty::Easy,
        ValueDifficulty::Medium,
        ValueDifficulty::Hard,
        ValueDifficulty::ExtraHard,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ValueDifficulty::Easy => "Easy",
            ValueDifficulty::Medium => "Medium",
            ValueDifficulty::Hard => "Hard",
            ValueDifficulty::ExtraHard => "Extra-Hard",
        }
    }
}

/// One way a database value can surface in a question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceForm {
    /// The value as stored in the database (and used in the gold SQL).
    pub db_value: String,
    /// The text that appears in the question ("French").
    pub question_text: String,
    /// The resulting extraction difficulty.
    pub difficulty: ValueDifficulty,
}

impl SurfaceForm {
    /// A value that surfaces verbatim.
    pub fn easy(v: impl Into<String>) -> Self {
        let v = v.into();
        SurfaceForm { question_text: v.clone(), db_value: v, difficulty: ValueDifficulty::Easy }
    }

    /// A value with a different surface form of the given difficulty.
    pub fn mapped(
        db_value: impl Into<String>,
        question_text: impl Into<String>,
        difficulty: ValueDifficulty,
    ) -> Self {
        SurfaceForm { db_value: db_value.into(), question_text: question_text.into(), difficulty }
    }
}

/// How an equality filter on a column is phrased in a question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phrase {
    /// "`{plural}` from `{value}`" (countries, cities).
    From,
    /// "`{value}` `{plural}`" — adjective position ("French students").
    Adjective,
    /// "`{plural}` whose `{label}` is `{value}`".
    Whose(String),
    /// "`{plural}` who are `{value}`" (titles, positions).
    WhoAre,
    /// "`{plural}` with `{label}` `{value}`".
    With(String),
    /// "`{plural}` that are `{value}`" (boolean adjectives).
    ThatAre,
}

/// A column suitable for equality filters, with its surface forms.
#[derive(Debug, Clone)]
pub struct FilterCol {
    /// Owning table.
    pub table: TableId,
    /// The column.
    pub column: ColumnId,
    /// Natural-language label ("major", "home country").
    pub label: String,
    /// Phrasing.
    pub phrase: Phrase,
    /// Possible value surfaces (all `db_value`s exist in the generated data).
    pub surfaces: Vec<SurfaceForm>,
}

/// A numeric column usable in comparisons, aggregates and orderings.
#[derive(Debug, Clone)]
pub struct NumericCol {
    /// Owning table.
    pub table: TableId,
    /// The column.
    pub column: ColumnId,
    /// Natural-language label ("age", "salary").
    pub label: String,
    /// Comparison phrasings, e.g. `("older than", "younger than")`;
    /// `None` falls back to "with {label} greater/less than".
    pub cmp_phrases: Option<(String, String)>,
    /// Superlative adjectives, e.g. `("oldest", "youngest")`; `None` falls
    /// back to "the highest/lowest {label}".
    pub superlatives: Option<(String, String)>,
}

/// A table the questions can be *about*.
#[derive(Debug, Clone)]
pub struct Entity {
    /// The table.
    pub table: TableId,
    /// Singular noun ("student").
    pub singular: String,
    /// Plural noun ("students").
    pub plural: String,
    /// The column naming one row ("name", "title").
    pub name_col: ColumnId,
    /// NL label of that column ("name", "title").
    pub name_label: String,
}

/// A semantic relation between two entities, for join / NOT-IN templates
/// ("students that own pets").
#[derive(Debug, Clone)]
pub struct Relation {
    /// Index into `DomainSpec::entities` of the subject (student).
    pub subject: usize,
    /// Index into `DomainSpec::entities` of the object (pet).
    pub object: usize,
    /// Verb phrase ("own", "have").
    pub verb: String,
    /// The subject's key column (student.stu_id).
    pub subject_key: ColumnId,
    /// The column (in the bridge or object table) listing subjects that
    /// participate (has_pet.stu_id), with its owning table.
    pub link_col: ColumnId,
    /// Owning table of `link_col`.
    pub link_table: TableId,
}

/// One fully-specified domain: schema, generated rows, and the NL metadata
/// the templates draw from.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// The schema (db_id is the domain name).
    pub schema: DbSchema,
    /// Generated rows, one `Vec` per table in schema order.
    pub rows: Vec<Vec<Vec<Datum>>>,
    /// Queryable entities.
    pub entities: Vec<Entity>,
    /// Equality-filterable columns.
    pub filters: Vec<FilterCol>,
    /// Numeric columns.
    pub numerics: Vec<NumericCol>,
    /// Entity relations.
    pub relations: Vec<Relation>,
}

impl DomainSpec {
    /// Entities belonging to a given table.
    pub fn entity_for_table(&self, table: TableId) -> Option<&Entity> {
        self.entities.iter().find(|e| e.table == table)
    }

    /// Filter columns on a given table.
    pub fn filters_for_table(&self, table: TableId) -> Vec<&FilterCol> {
        self.filters.iter().filter(|f| f.table == table).collect()
    }

    /// Numeric columns on a given table.
    pub fn numerics_for_table(&self, table: TableId) -> Vec<&NumericCol> {
        self.numerics.iter().filter(|n| n.table == table).collect()
    }
}

/// One gold value of a sample, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueInfo {
    /// The value as used in the gold SQL (database form).
    pub db_value: String,
    /// The surface text in the question (empty for implicit values).
    pub question_text: String,
    /// Extraction difficulty class.
    pub difficulty: ValueDifficulty,
    /// Whether the value never appears in the question (e.g. the implicit
    /// `LIMIT 1` of a superlative). Implicit values are excluded from the
    /// Fig. 9 value counts, matching the paper's counting of question values.
    pub implicit: bool,
}
