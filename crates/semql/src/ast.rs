//! Typed SemQL 2.0 abstract syntax tree.

use valuenet_schema::{ColumnId, TableId};
use valuenet_sql::AggFunc;

/// Index into the value-candidate list attached to a query (the `V`
/// nonterminal — the paper's extension over SemQL 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueRef(pub usize);

/// The root `Z`: an optional set operation over one or two `R` queries.
#[derive(Debug, Clone, PartialEq)]
pub enum SemQl {
    /// `intersect R R`
    Intersect(Box<QueryR>, Box<QueryR>),
    /// `union R R`
    Union(Box<QueryR>, Box<QueryR>),
    /// `except R R`
    Except(Box<QueryR>, Box<QueryR>),
    /// plain `R`
    Single(Box<QueryR>),
}

impl SemQl {
    /// The left/only query.
    pub fn main_query(&self) -> &QueryR {
        match self {
            SemQl::Intersect(q, _) | SemQl::Union(q, _) | SemQl::Except(q, _) => q,
            SemQl::Single(q) => q,
        }
    }

    /// All value references used anywhere in the tree, in decoding order.
    pub fn value_refs(&self) -> Vec<ValueRef> {
        let mut out = Vec::new();
        match self {
            SemQl::Intersect(a, b) | SemQl::Union(a, b) | SemQl::Except(a, b) => {
                a.collect_value_refs(&mut out);
                b.collect_value_refs(&mut out);
            }
            SemQl::Single(q) => q.collect_value_refs(&mut out),
        }
        out
    }
}

/// An `R` query: a Select plus at most one of Order/Superlative and an
/// optional Filter (the six `R` productions).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryR {
    /// The projection.
    pub select: Select,
    /// `asc A` / `desc A`, mutually exclusive with `superlative`.
    pub order: Option<Order>,
    /// `most V A` / `least V A`, mutually exclusive with `order`.
    pub superlative: Option<Superlative>,
    /// The filter tree.
    pub filter: Option<Filter>,
}

impl QueryR {
    /// A bare projection query.
    pub fn select_only(select: Select) -> Self {
        QueryR { select, order: None, superlative: None, filter: None }
    }

    fn collect_value_refs(&self, out: &mut Vec<ValueRef>) {
        if let Some(s) = &self.superlative {
            out.push(s.limit);
        }
        if let Some(f) = &self.filter {
            f.collect_value_refs(out);
        }
    }
}

/// `Select ::= distinct N | N` with `N` being 1–5 aggregated columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// The projected `A`s (1..=5).
    pub aggs: Vec<Agg>,
}

impl Select {
    /// A non-distinct projection.
    pub fn new(aggs: Vec<Agg>) -> Self {
        assert!(
            (1..=5).contains(&aggs.len()),
            "Select supports 1..=5 projections, got {}",
            aggs.len()
        );
        Select { distinct: false, aggs }
    }
}

/// `Order ::= asc A | desc A` — ORDER BY without LIMIT.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    /// Descending?
    pub desc: bool,
    /// Sort key.
    pub agg: Agg,
}

/// `Superlative ::= most V A | least V A` — ORDER BY + LIMIT `V`.
#[derive(Debug, Clone, PartialEq)]
pub struct Superlative {
    /// `most` (descending) or `least` (ascending)?
    pub most: bool,
    /// The LIMIT count (a value candidate, usually "1" or e.g. "3").
    pub limit: ValueRef,
    /// Sort key.
    pub agg: Agg,
}

/// Comparison operators usable in filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The corresponding SQL binary operator.
    pub fn to_sql(self) -> valuenet_sql::BinOp {
        use valuenet_sql::BinOp;
        match self {
            CmpOp::Eq => BinOp::Eq,
            CmpOp::Ne => BinOp::Ne,
            CmpOp::Lt => BinOp::Lt,
            CmpOp::Gt => BinOp::Gt,
            CmpOp::Le => BinOp::Le,
            CmpOp::Ge => BinOp::Ge,
        }
    }
}

/// The `Filter` nonterminal.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `and Filter Filter`
    And(Box<Filter>, Box<Filter>),
    /// `or Filter Filter`
    Or(Box<Filter>, Box<Filter>),
    /// `op A V` — comparison against a value candidate.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left-hand aggregated column.
        agg: Agg,
        /// Right-hand value.
        value: ValueRef,
    },
    /// `op A R` — comparison against a nested query.
    CmpNested {
        /// Operator.
        op: CmpOp,
        /// Left-hand aggregated column.
        agg: Agg,
        /// Nested query producing the comparison value.
        query: Box<QueryR>,
    },
    /// `between A V V`.
    Between {
        /// Tested aggregated column.
        agg: Agg,
        /// Lower bound.
        low: ValueRef,
        /// Upper bound.
        high: ValueRef,
    },
    /// `like A V` / `not_like A V`.
    Like {
        /// Tested column.
        agg: Agg,
        /// Pattern source value.
        value: ValueRef,
        /// Negated?
        negated: bool,
    },
    /// `in A R` / `not_in A R`.
    In {
        /// Tested column.
        agg: Agg,
        /// Nested query producing the candidate set.
        query: Box<QueryR>,
        /// Negated?
        negated: bool,
    },
}

impl Filter {
    fn collect_value_refs(&self, out: &mut Vec<ValueRef>) {
        match self {
            Filter::And(a, b) | Filter::Or(a, b) => {
                a.collect_value_refs(out);
                b.collect_value_refs(out);
            }
            Filter::Cmp { value, .. } => out.push(*value),
            Filter::Between { low, high, .. } => {
                out.push(*low);
                out.push(*high);
            }
            Filter::Like { value, .. } => out.push(*value),
            Filter::CmpNested { query, .. } | Filter::In { query, .. } => {
                query.collect_value_refs(out);
            }
        }
    }

    /// Whether the filter tree contains any aggregate function application
    /// (those conditions become HAVING clauses).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Filter::And(a, b) | Filter::Or(a, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            Filter::Cmp { agg, .. }
            | Filter::CmpNested { agg, .. }
            | Filter::Between { agg, .. }
            | Filter::Like { agg, .. }
            | Filter::In { agg, .. } => agg.func.is_some(),
        }
    }
}

/// `A ::= [agg] C T` — a column of a table, optionally aggregated. The `*`
/// pseudo-column still names a table (`count(*)` is attributed to the table
/// being counted, as in Spider's annotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    /// The aggregate function, `None` for a plain column.
    pub func: Option<AggFunc>,
    /// The column (may be [`ColumnId::STAR`]).
    pub column: ColumnId,
    /// The table the column belongs to.
    pub table: TableId,
}

impl Agg {
    /// A plain (unaggregated) column.
    pub fn plain(column: ColumnId, table: TableId) -> Self {
        Agg { func: None, column, table }
    }

    /// An aggregated column.
    pub fn with(func: AggFunc, column: ColumnId, table: TableId) -> Self {
        Agg { func: Some(func), column, table }
    }

    /// `count(*)` over a table.
    pub fn count_star(table: TableId) -> Self {
        Agg { func: Some(AggFunc::Count), column: ColumnId::STAR, table }
    }
}
