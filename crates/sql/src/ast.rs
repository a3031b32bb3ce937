//! Abstract syntax tree for the covered SQL subset.

/// A literal value appearing in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`.
    Null,
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (unescaped form).
    Text(String),
}

impl Literal {
    /// Parses a bare token into the most specific literal type.
    pub fn infer(s: &str) -> Literal {
        if let Ok(i) = s.parse::<i64>() {
            Literal::Int(i)
        } else if let Ok(f) = s.parse::<f64>() {
            Literal::Float(f)
        } else {
            Literal::Text(s.to_string())
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
}

impl AggFunc {
    /// SQL keyword for the function.
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// Binary operators (comparisons and boolean connectives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// True for comparison (non-boolean-connective) operators.
    pub fn is_comparison(self) -> bool {
        !matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Reference to a column, optionally qualified: `T1.age`, `age`, `T1.*`, `*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier.
    pub table: Option<String>,
    /// Column name; `*` denotes all columns.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef { table: None, column: column.into() }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef { table: Some(table.into()), column: column.into() }
    }

    /// Whether this is a `*` (or `T.*`) reference.
    pub fn is_star(&self) -> bool {
        self.column == "*"
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal.
    Lit(Literal),
    /// Aggregate application, e.g. `count(DISTINCT T1.name)` or `count(*)`.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Whether `DISTINCT` applies to the argument.
        distinct: bool,
        /// Argument (a column reference, possibly `*`).
        arg: Box<Expr>,
    },
    /// Binary operation (comparison or AND/OR).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Whether the predicate is negated.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Whether the predicate is negated.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery (must project a single column).
        subquery: Box<SelectStmt>,
        /// Whether the predicate is negated.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: Box<Expr>,
        /// Whether the predicate is negated.
        negated: bool,
    },
    /// Scalar subquery `(SELECT ...)` used as a value.
    Subquery(Box<SelectStmt>),
}

impl Expr {
    /// Convenience constructor for comparisons and connectives.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Whether the expression contains any aggregate application.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Column(_) | Expr::Lit(_) => false,
            Expr::Binary { lhs, rhs, .. } => lhs.contains_aggregate() || rhs.contains_aggregate(),
            Expr::Not(e) => e.contains_aggregate(),
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::Subquery(_) => false,
        }
    }

    /// Collects every column reference in this expression (not descending
    /// into subqueries).
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c),
            Expr::Lit(_) | Expr::Subquery(_) => {}
            Expr::Agg { arg, .. } => arg.collect_columns(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::Not(e) => e.collect_columns(out),
            Expr::Between { expr, low, high, .. } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::InSubquery { expr, .. } => expr.collect_columns(out),
            Expr::Like { expr, pattern, .. } => {
                expr.collect_columns(out);
                pattern.collect_columns(out);
            }
        }
    }
}

/// One projected item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A table reference in `FROM` or `JOIN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Physical table name.
    pub name: String,
    /// Optional alias (`AS T1`).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is addressed by in the query.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An `INNER JOIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Joined table.
    pub table: TableRef,
    /// `ON` condition; `None` denotes a cross join (the failure mode the
    /// paper attributes to IRNet under Execution Accuracy).
    pub on: Option<Expr>,
}

/// The body of one `SELECT` (everything before ORDER BY / set operators).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCore {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projections.
    pub items: Vec<SelectItem>,
    /// First `FROM` table; `None` only while under construction.
    pub from: Option<TableRef>,
    /// Joined tables, in order.
    pub joins: Vec<Join>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

impl SelectCore {
    /// An empty core (no projections, no FROM).
    pub fn new() -> Self {
        SelectCore {
            distinct: false,
            items: Vec::new(),
            from: None,
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

impl Default for SelectCore {
    fn default() -> Self {
        Self::new()
    }
}

/// Set operators combining two queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompoundOp {
    /// `UNION` (duplicate-eliminating).
    Union,
    /// `UNION ALL`.
    UnionAll,
    /// `INTERSECT`.
    Intersect,
    /// `EXCEPT`.
    Except,
}

impl CompoundOp {
    /// SQL spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            CompoundOp::Union => "UNION",
            CompoundOp::UnionAll => "UNION ALL",
            CompoundOp::Intersect => "INTERSECT",
            CompoundOp::Except => "EXCEPT",
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The select body.
    pub core: SelectCore,
    /// `ORDER BY` keys (applies to `core`; see the crate docs for the
    /// compound-operand caveat).
    pub order_by: Vec<OrderItem>,
    /// `LIMIT`.
    pub limit: Option<u64>,
    /// Optional set operation with a right-hand query.
    pub compound: Option<(CompoundOp, Box<SelectStmt>)>,
}

impl SelectStmt {
    /// A statement wrapping just a core.
    pub fn simple(core: SelectCore) -> Self {
        SelectStmt { core, order_by: Vec::new(), limit: None, compound: None }
    }

    /// Whether the *final* result of this statement carries a meaningful row
    /// order (used by the Execution Accuracy comparison).
    pub fn is_ordered(&self) -> bool {
        self.compound.is_none() && !self.order_by.is_empty()
    }
}
