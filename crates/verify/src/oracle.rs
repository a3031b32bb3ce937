//! Naive reference SQL interpreter — the differential oracle.
//!
//! Implements the same SQL semantics as `valuenet-exec` with the simplest
//! possible evaluation strategy: joins are straight nested loops (no hash
//! fast path), subqueries are re-executed at every evaluation site (no
//! caching), and nothing consults an index. The two implementations share
//! no execution code, so a result mismatch on the same statement exposes a
//! bug in one of them.
//!
//! Semantics intentionally mirrored (see `DESIGN.md`, "Verification &
//! oracles"): NULL never equals anything (`!=` against NULL is *false*,
//! not true), comparisons against NULL are false, aggregates skip NULLs
//! with `SUM`/`AVG` of nothing being NULL, `count(*)` counts rows,
//! `Int`/`Float` compare numerically, LIKE is ASCII-case-insensitive, and
//! set operations deduplicate with `Int(2)` ≡ `Float(2.0)`.

use std::collections::HashSet;
use valuenet_exec::ResultSet;
use valuenet_schema::TableId;
use valuenet_sql::{
    AggFunc, BinOp, ColumnRef, CompoundOp, Expr, Literal, OrderItem, SelectCore, SelectStmt,
};
use valuenet_storage::{Database, Datum};

/// Reference-interpreter failure. The variants deliberately cover the same
/// conditions `valuenet_exec::ExecError` reports; the fuzz harness compares
/// only the Ok/Err outcome, never messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// FROM/JOIN names a table the schema does not have.
    UnknownTable(String),
    /// A column reference cannot be resolved.
    UnknownColumn(String),
    /// Compound operands produced different arities.
    ArityMismatch {
        /// Left arity.
        left: usize,
        /// Right arity.
        right: usize,
    },
    /// A subquery produced more than one column.
    SubqueryArity(usize),
    /// A column reference with no FROM clause.
    NoFrom,
    /// Any other malformed statement.
    Invalid(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::UnknownTable(t) => write!(f, "unknown table {t}"),
            OracleError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            OracleError::ArityMismatch { left, right } => {
                write!(f, "compound arity mismatch: {left} vs {right}")
            }
            OracleError::SubqueryArity(n) => write!(f, "subquery returned {n} columns"),
            OracleError::NoFrom => write!(f, "column reference without FROM"),
            OracleError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// Executes a statement with the naive strategy.
pub fn reference_execute(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, OracleError> {
    let mut left = execute_plain(db, stmt)?;
    if let Some((op, rhs)) = &stmt.compound {
        let right = reference_execute(db, rhs)?;
        if !left.rows.is_empty() && !right.rows.is_empty() {
            let (la, ra) = (left.rows[0].len(), right.rows[0].len());
            if la != ra {
                return Err(OracleError::ArityMismatch { left: la, right: ra });
            }
        }
        left = apply_compound(*op, left, right);
    }
    Ok(left)
}

fn apply_compound(op: CompoundOp, left: ResultSet, right: ResultSet) -> ResultSet {
    let headers = left.headers.clone();
    let rows = match op {
        CompoundOp::UnionAll => {
            let mut rows = left.rows;
            rows.extend(right.rows);
            rows
        }
        CompoundOp::Union => {
            let mut seen = HashSet::new();
            left.rows
                .into_iter()
                .chain(right.rows)
                .filter(|r| seen.insert(canonical_key(r)))
                .collect()
        }
        CompoundOp::Intersect => {
            let right_keys: HashSet<String> =
                right.rows.iter().map(|r| canonical_key(r)).collect();
            let mut seen = HashSet::new();
            left.rows
                .into_iter()
                .filter(|r| {
                    let k = canonical_key(r);
                    right_keys.contains(&k) && seen.insert(k)
                })
                .collect()
        }
        CompoundOp::Except => {
            let right_keys: HashSet<String> =
                right.rows.iter().map(|r| canonical_key(r)).collect();
            let mut seen = HashSet::new();
            left.rows
                .into_iter()
                .filter(|r| {
                    let k = canonical_key(r);
                    !right_keys.contains(&k) && seen.insert(k)
                })
                .collect()
        }
    };
    ResultSet { headers, rows, ordered: false }
}

fn execute_plain(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, OracleError> {
    let scope = Scope::build(db, &stmt.core)?;

    // FROM + JOIN: pure nested loops, attaching one table at a time and
    // filtering with the ON predicate on the combined row.
    let mut rows: Vec<Vec<Datum>> = if scope.entries.is_empty() {
        vec![Vec::new()]
    } else {
        db.rows(scope.entries[0].table).to_vec()
    };
    for (ji, join) in stmt.core.joins.iter().enumerate() {
        let entry = &scope.entries[ji + 1];
        let right_rows = db.rows(entry.table);
        // The executor inspects `ON a = b` column pairs up front (its
        // hash-join probe), so resolution errors surface even when no row
        // is ever joined; mirror that eagerness before the nested loop.
        if let Some(Expr::Binary { op: BinOp::Eq, lhs, rhs }) = &join.on {
            if let (Expr::Column(a), Expr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) {
                scope.resolve(a)?;
                scope.resolve(b)?;
            }
        }
        let mut next = Vec::new();
        for left in &rows {
            for right in right_rows {
                let mut combined = left.clone();
                combined.extend_from_slice(right);
                let keep = match &join.on {
                    Some(on) => truthy(&scope.eval(on, &Ctx::Row(&combined))?),
                    None => true,
                };
                if keep {
                    next.push(combined);
                }
            }
        }
        rows = next;
    }

    // WHERE.
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows {
        let keep = match &stmt.core.where_clause {
            Some(pred) => truthy(&scope.eval(pred, &Ctx::Row(&row))?),
            None => true,
        };
        if keep {
            kept.push(row);
        }
    }

    let has_agg = stmt.core.items.iter().any(|it| it.expr.contains_aggregate())
        || stmt.core.having.as_ref().is_some_and(Expr::contains_aggregate)
        || stmt.order_by.iter().any(|o| o.expr.contains_aggregate());
    let grouped = !stmt.core.group_by.is_empty() || has_agg;

    let mut headers = Vec::new();
    for it in &stmt.core.items {
        match &it.expr {
            Expr::Column(c) if c.is_star() => headers.extend(scope.star_headers(c)?),
            e => headers.push(it.alias.clone().unwrap_or_else(|| e.to_string())),
        }
    }

    let mut produced: Vec<(Vec<Datum>, Vec<Datum>)> = Vec::new();
    if grouped {
        // Group in first-encounter order (single implicit group when there
        // is no GROUP BY — even over zero input rows).
        let mut keys: Vec<String> = Vec::new();
        let mut groups: Vec<Vec<Vec<Datum>>> = Vec::new();
        if stmt.core.group_by.is_empty() {
            groups.push(kept);
        } else {
            for row in kept {
                let mut kv = Vec::with_capacity(stmt.core.group_by.len());
                for gexpr in &stmt.core.group_by {
                    kv.push(scope.eval(gexpr, &Ctx::Row(&row))?);
                }
                let k = canonical_key(&kv);
                match keys.iter().position(|x| *x == k) {
                    Some(i) => groups[i].push(row),
                    None => {
                        keys.push(k);
                        groups.push(vec![row]);
                    }
                }
            }
        }
        for rows in &groups {
            let ctx = Ctx::Group(rows);
            if let Some(h) = &stmt.core.having {
                if !truthy(&scope.eval(h, &ctx)?) {
                    continue;
                }
            }
            let out = scope.project(&stmt.core, &ctx)?;
            let key = scope.order_keys(&stmt.order_by, &ctx)?;
            produced.push((out, key));
        }
    } else {
        for row in &kept {
            let ctx = Ctx::Row(row);
            let out = scope.project(&stmt.core, &ctx)?;
            let key = scope.order_keys(&stmt.order_by, &ctx)?;
            produced.push((out, key));
        }
    }

    if !stmt.order_by.is_empty() {
        produced.sort_by(|(_, ka), (_, kb)| {
            for (i, o) in stmt.order_by.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                let ord = if o.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    let mut rows: Vec<Vec<Datum>> = produced.into_iter().map(|(r, _)| r).collect();
    if stmt.core.distinct {
        let mut seen = HashSet::new();
        rows.retain(|r| seen.insert(canonical_key(r)));
    }
    if let Some(limit) = stmt.limit {
        rows.truncate(limit as usize);
    }
    Ok(ResultSet { headers, rows, ordered: stmt.is_ordered() })
}

/// Canonical dedup key: two numbers coincide exactly when `sql_eq` calls
/// them equal (`Int` and `Float` of the same value, `-0.0` and `0.0`), as in
/// SQL value semantics (and the executor's DISTINCT / set operations), so a
/// number keys on its full `f64` bit pattern. All NaNs share one key.
fn canonical_key(row: &[Datum]) -> String {
    let mut key = String::with_capacity(row.len() * 8);
    for d in row {
        match d {
            Datum::Null => key.push_str("\u{1}N"),
            Datum::Int(i) => push_number(&mut key, *i as f64),
            Datum::Float(f) => push_number(&mut key, *f),
            Datum::Text(s) => {
                key.push_str("\u{1}t");
                key.push_str(s);
            }
        }
    }
    key
}

fn push_number(key: &mut String, x: f64) {
    let canonical = if x.is_nan() {
        f64::NAN
    } else if x == 0.0 {
        0.0
    } else {
        x
    };
    key.push_str("\u{1}n");
    key.push_str(&format!("{:016x}", canonical.to_bits()));
}

fn truthy(d: &Datum) -> bool {
    match d {
        Datum::Null | Datum::Text(_) => false,
        Datum::Int(i) => *i != 0,
        Datum::Float(f) => *f != 0.0,
    }
}

fn bool_datum(b: bool) -> Datum {
    Datum::Int(i64::from(b))
}

/// One bound table: effective name, id, and flat column offset.
struct ScopeEntry {
    name: String,
    table: TableId,
    offset: usize,
    width: usize,
}

/// The tables in scope plus the database, doubling as the expression
/// evaluator (no caches of any kind).
struct Scope<'a> {
    db: &'a Database,
    entries: Vec<ScopeEntry>,
}

/// Row context: a single joined row, or a group of rows.
enum Ctx<'a> {
    Row(&'a [Datum]),
    Group(&'a [Vec<Datum>]),
}

impl<'a> Scope<'a> {
    fn build(db: &'a Database, core: &SelectCore) -> Result<Self, OracleError> {
        let mut entries = Vec::new();
        let mut offset = 0;
        let mut push = |name: String, table_name: &str| -> Result<(), OracleError> {
            let table = db
                .schema()
                .table_by_name(table_name)
                .ok_or_else(|| OracleError::UnknownTable(table_name.to_string()))?;
            let width = db.schema().table(table).columns.len();
            entries.push(ScopeEntry { name, table, offset, width });
            offset += width;
            Ok(())
        };
        if let Some(from) = &core.from {
            push(from.effective_name().to_string(), &from.name)?;
            for j in &core.joins {
                push(j.table.effective_name().to_string(), &j.table.name)?;
            }
        }
        Ok(Scope { db, entries })
    }

    fn resolve(&self, c: &ColumnRef) -> Result<usize, OracleError> {
        if self.entries.is_empty() {
            return Err(OracleError::NoFrom);
        }
        let schema = self.db.schema();
        match &c.table {
            Some(q) => {
                // Effective names (aliases) take precedence over physical
                // table names, mirroring the executor's resolution rule.
                let entry = self
                    .entries
                    .iter()
                    .find(|e| e.name.eq_ignore_ascii_case(q))
                    .or_else(|| {
                        self.entries
                            .iter()
                            .find(|e| schema.table(e.table).name.eq_ignore_ascii_case(q))
                    })
                    .ok_or_else(|| OracleError::UnknownTable(q.clone()))?;
                let col = schema
                    .column_by_name(entry.table, &c.column)
                    .ok_or_else(|| OracleError::UnknownColumn(format!("{q}.{}", c.column)))?;
                let pos = schema
                    .table(entry.table)
                    .columns
                    .iter()
                    .position(|&cc| cc == col)
                    .expect("column belongs to table");
                Ok(entry.offset + pos)
            }
            None => {
                for entry in &self.entries {
                    if let Some(col) = schema.column_by_name(entry.table, &c.column) {
                        let pos = schema
                            .table(entry.table)
                            .columns
                            .iter()
                            .position(|&cc| cc == col)
                            .expect("column belongs to table");
                        return Ok(entry.offset + pos);
                    }
                }
                Err(OracleError::UnknownColumn(c.column.clone()))
            }
        }
    }

    fn star_indices(&self, c: &ColumnRef) -> Result<Vec<usize>, OracleError> {
        match &c.table {
            None => Ok((0..self.entries.iter().map(|e| e.width).sum()).collect()),
            Some(q) => {
                let entry = self
                    .entries
                    .iter()
                    .find(|e| e.name.eq_ignore_ascii_case(q))
                    .ok_or_else(|| OracleError::UnknownTable(q.clone()))?;
                Ok((entry.offset..entry.offset + entry.width).collect())
            }
        }
    }

    fn star_headers(&self, c: &ColumnRef) -> Result<Vec<String>, OracleError> {
        let idxs = self.star_indices(c)?;
        let schema = self.db.schema();
        let mut names = Vec::with_capacity(idxs.len());
        for entry in &self.entries {
            for (pos, &col) in schema.table(entry.table).columns.iter().enumerate() {
                if idxs.contains(&(entry.offset + pos)) {
                    names.push(format!("{}.{}", entry.name, schema.column(col).name));
                }
            }
        }
        Ok(names)
    }

    fn project(&self, core: &SelectCore, ctx: &Ctx<'_>) -> Result<Vec<Datum>, OracleError> {
        let mut out = Vec::with_capacity(core.items.len());
        for it in &core.items {
            match &it.expr {
                Expr::Column(c) if c.is_star() => {
                    let idxs = self.star_indices(c)?;
                    let repr: &[Datum] = match ctx {
                        Ctx::Row(r) => r,
                        Ctx::Group(rows) => rows.first().map(|r| r.as_slice()).unwrap_or(&[]),
                    };
                    for i in idxs {
                        out.push(repr.get(i).cloned().unwrap_or(Datum::Null));
                    }
                }
                e => out.push(self.eval(e, ctx)?),
            }
        }
        Ok(out)
    }

    fn order_keys(&self, order_by: &[OrderItem], ctx: &Ctx<'_>) -> Result<Vec<Datum>, OracleError> {
        order_by.iter().map(|o| self.eval(&o.expr, ctx)).collect()
    }

    /// Executes a subquery from scratch (no result caching) and returns its
    /// single column.
    fn subquery_column(&self, sub: &SelectStmt) -> Result<Vec<Datum>, OracleError> {
        let rs = reference_execute(self.db, sub)?;
        if !rs.rows.is_empty() && rs.rows[0].len() != 1 {
            return Err(OracleError::SubqueryArity(rs.rows[0].len()));
        }
        Ok(rs.rows.into_iter().filter_map(|mut r| r.pop()).collect())
    }

    fn eval(&self, e: &Expr, ctx: &Ctx<'_>) -> Result<Datum, OracleError> {
        match e {
            Expr::Lit(l) => Ok(match l {
                Literal::Null => Datum::Null,
                Literal::Int(i) => Datum::Int(*i),
                Literal::Float(f) => Datum::Float(*f),
                Literal::Text(s) => Datum::Text(s.clone()),
            }),
            Expr::Column(c) => {
                if c.is_star() {
                    return Err(OracleError::Invalid("bare * outside count(*)".into()));
                }
                let idx = self.resolve(c)?;
                let repr: Option<&Vec<Datum>> = match ctx {
                    Ctx::Row(r) => return Ok(r.get(idx).cloned().unwrap_or(Datum::Null)),
                    Ctx::Group(rows) => rows.first(),
                };
                Ok(repr.and_then(|r| r.get(idx).cloned()).unwrap_or(Datum::Null))
            }
            Expr::Agg { func, distinct, arg } => {
                let Ctx::Group(rows) = ctx else {
                    return Err(OracleError::Invalid("aggregate outside grouped context".into()));
                };
                self.eval_aggregate(*func, *distinct, arg, rows)
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    if !truthy(&self.eval(lhs, ctx)?) {
                        return Ok(bool_datum(false));
                    }
                    Ok(bool_datum(truthy(&self.eval(rhs, ctx)?)))
                }
                BinOp::Or => {
                    if truthy(&self.eval(lhs, ctx)?) {
                        return Ok(bool_datum(true));
                    }
                    Ok(bool_datum(truthy(&self.eval(rhs, ctx)?)))
                }
                _ => {
                    let l = self.eval(lhs, ctx)?;
                    let r = self.eval(rhs, ctx)?;
                    Ok(match op {
                        BinOp::Eq => bool_datum(l.sql_eq(&r)),
                        // `!=` against NULL is false, not true (SQL
                        // three-valued logic collapsed to two values).
                        BinOp::Ne => {
                            bool_datum(!l.is_null() && !r.is_null() && !l.sql_eq(&r))
                        }
                        BinOp::Lt => cmp_datum(&l, &r, |o| o == std::cmp::Ordering::Less),
                        BinOp::Le => cmp_datum(&l, &r, |o| o != std::cmp::Ordering::Greater),
                        BinOp::Gt => cmp_datum(&l, &r, |o| o == std::cmp::Ordering::Greater),
                        BinOp::Ge => cmp_datum(&l, &r, |o| o != std::cmp::Ordering::Less),
                        BinOp::And | BinOp::Or => unreachable!("handled above"),
                    })
                }
            },
            Expr::Not(inner) => Ok(bool_datum(!truthy(&self.eval(inner, ctx)?))),
            Expr::Between { expr, low, high, negated } => {
                let v = self.eval(expr, ctx)?;
                let lo = self.eval(low, ctx)?;
                let hi = self.eval(high, ctx)?;
                let in_range = matches!(
                    v.sql_cmp(&lo),
                    Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                ) && matches!(
                    v.sql_cmp(&hi),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                );
                Ok(bool_datum(in_range != *negated))
            }
            Expr::InList { expr, list, negated } => {
                let v = self.eval(expr, ctx)?;
                let mut found = false;
                for item in list {
                    if v.sql_eq(&self.eval(item, ctx)?) {
                        found = true;
                        break;
                    }
                }
                Ok(bool_datum(found != *negated))
            }
            Expr::InSubquery { expr, subquery, negated } => {
                let v = self.eval(expr, ctx)?;
                let vals = self.subquery_column(subquery)?;
                let found = vals.iter().any(|x| v.sql_eq(x));
                Ok(bool_datum(found != *negated))
            }
            Expr::Like { expr, pattern, negated } => {
                let v = self.eval(expr, ctx)?;
                let p = self.eval(pattern, ctx)?;
                let matched = match (v.as_text(), p.as_text()) {
                    (Some(t), Some(pat)) => {
                        reference_like_match(&pat.to_lowercase(), &t.to_lowercase())
                    }
                    (None, Some(pat)) if !v.is_null() => {
                        reference_like_match(&pat.to_lowercase(), &v.to_string().to_lowercase())
                    }
                    _ => false,
                };
                Ok(bool_datum(matched != *negated))
            }
            Expr::Subquery(sub) => {
                Ok(self.subquery_column(sub)?.into_iter().next().unwrap_or(Datum::Null))
            }
        }
    }

    fn eval_aggregate(
        &self,
        func: AggFunc,
        distinct: bool,
        arg: &Expr,
        rows: &[Vec<Datum>],
    ) -> Result<Datum, OracleError> {
        let is_star = matches!(arg, Expr::Column(c) if c.is_star());
        if func == AggFunc::Count && is_star {
            return Ok(Datum::Int(rows.len() as i64));
        }
        if is_star {
            return Err(OracleError::Invalid(format!("{}(*) is not valid", func.keyword())));
        }
        let mut values = Vec::with_capacity(rows.len());
        for row in rows {
            let v = self.eval(arg, &Ctx::Row(row))?;
            if !v.is_null() {
                values.push(v);
            }
        }
        if distinct {
            let mut seen = HashSet::new();
            values.retain(|v| seen.insert(canonical_key(std::slice::from_ref(v))));
        }
        Ok(match func {
            AggFunc::Count => Datum::Int(values.len() as i64),
            AggFunc::Sum => {
                if values.is_empty() {
                    Datum::Null
                } else if values.iter().all(|v| matches!(v, Datum::Int(_))) {
                    Datum::Int(values.iter().filter_map(Datum::as_number).map(|x| x as i64).sum())
                } else {
                    Datum::Float(values.iter().filter_map(Datum::as_number).sum())
                }
            }
            AggFunc::Avg => {
                let nums: Vec<f64> = values.iter().filter_map(Datum::as_number).collect();
                if nums.is_empty() {
                    Datum::Null
                } else {
                    Datum::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            AggFunc::Min => values.into_iter().min_by(|a, b| a.total_cmp(b)).unwrap_or(Datum::Null),
            AggFunc::Max => values.into_iter().max_by(|a, b| a.total_cmp(b)).unwrap_or(Datum::Null),
        })
    }
}

/// SQL LIKE by straight recursion: at each `%`, every split of the rest of
/// the text is tried. It is the oracle's LIKE and the reference that
/// `vn-fuzz --lookup` checks the executor's `valuenet_storage::like_match`
/// against. Its time is exponential in the number of `%` on a miss, which
/// only the fuzzers' short inputs can afford.
pub fn reference_like_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(rest, &t[k..])),
            Some(('_', rest)) => !t.is_empty() && rec(rest, &t[1..]),
            Some((&c, rest)) => t.first() == Some(&c) && rec(rest, &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    rec(&p, &t)
}

fn cmp_datum(l: &Datum, r: &Datum, f: impl Fn(std::cmp::Ordering) -> bool) -> Datum {
    match l.sql_cmp(r) {
        Some(o) => bool_datum(f(o)),
        None => bool_datum(false),
    }
}
