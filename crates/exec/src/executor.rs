//! Query evaluation over row-index tuples (see the crate docs).

use crate::result::row_key;
use crate::{ExecError, ResultSet};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use valuenet_sql::{
    AggFunc, BinOp, ColumnRef, CompoundOp, Expr, Join, Literal, SelectCore, SelectStmt,
};
use valuenet_storage::{like_match, Database, Datum};
use valuenet_schema::TableId;

static QUERIES: valuenet_obs::Counter = valuenet_obs::Counter::new("exec.queries");
static ROWS_SCANNED: valuenet_obs::Counter = valuenet_obs::Counter::new("exec.rows_scanned");

/// What a cell of a table not yet joined reads as, and an empty group's
/// representative row.
static NULL: Datum = Datum::Null;

/// Executes a query against a database.
pub fn execute(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, ExecError> {
    let _span = valuenet_obs::span("exec.execute");
    QUERIES.add(1);
    let mut left = execute_plain(db, stmt)?;
    if let Some((op, rhs)) = &stmt.compound {
        let right = execute(db, rhs)?;
        if !left.rows.is_empty() && !right.rows.is_empty() {
            let (la, ra) = (left.rows[0].len(), right.rows[0].len());
            if la != ra {
                return Err(ExecError::ArityMismatch { left: la, right: ra });
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
            let mut rows = Vec::new();
            for r in left.rows.into_iter().chain(right.rows) {
                if seen.insert(row_key(&r)) {
                    rows.push(r);
                }
            }
            rows
        }
        CompoundOp::Intersect => {
            let right_keys: HashSet<String> = right.rows.iter().map(row_key).collect();
            let mut seen = HashSet::new();
            left.rows
                .into_iter()
                .filter(|r| {
                    let k = row_key(r);
                    right_keys.contains(&k) && seen.insert(k)
                })
                .collect()
        }
        CompoundOp::Except => {
            let right_keys: HashSet<String> = right.rows.iter().map(row_key).collect();
            let mut seen = HashSet::new();
            left.rows
                .into_iter()
                .filter(|r| {
                    let k = row_key(r);
                    !right_keys.contains(&k) && seen.insert(k)
                })
                .collect()
        }
    };
    // A compound result has no meaningful final order in this dialect.
    ResultSet { headers, rows, ordered: false }
}

/// Executes `core + ORDER BY + LIMIT`, ignoring any compound tail.
fn execute_plain(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, ExecError> {
    let q = Query::new(db, stmt)?;
    let (arity, joined) = q.joined_rows(&stmt.core)?;
    ROWS_SCANNED.add((joined.len() / arity) as u64);

    // Filter with WHERE.
    let mut kept: Vec<&[u32]> = Vec::with_capacity(joined.len() / arity);
    for row in joined.chunks_exact(arity) {
        let keep = match &stmt.core.where_clause {
            Some(pred) => truthy(q.eval(pred, &Ctx::Row(row))?),
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
            Expr::Column(c) if c.is_star() => {
                headers.extend(q.star_headers(c)?);
            }
            e => headers.push(it.alias.clone().unwrap_or_else(|| e.to_string())),
        }
    }

    // The rows (or groups) that reach the projection.
    let mut groups: Vec<Vec<&[u32]>> = Vec::new();
    let mut outputs: Vec<Ctx> = Vec::new();
    if grouped {
        // Group rows by the GROUP BY key (single implicit group if empty),
        // in first-encounter order.
        if stmt.core.group_by.is_empty() {
            groups.push(kept);
        } else {
            let mut group_of: HashMap<String, usize> = HashMap::new();
            for row in kept {
                let mut kv = Vec::with_capacity(stmt.core.group_by.len());
                for gexpr in &stmt.core.group_by {
                    kv.push(q.eval(gexpr, &Ctx::Row(row))?);
                }
                match group_of.entry(row_key(kv.iter().map(|d| &**d))) {
                    Entry::Occupied(g) => groups[*g.get()].push(row),
                    Entry::Vacant(g) => {
                        g.insert(groups.len());
                        groups.push(vec![row]);
                    }
                }
            }
        }
        for rows in &groups {
            let ctx = Ctx::Group(rows);
            if let Some(h) = &stmt.core.having {
                if !truthy(q.eval(h, &ctx)?) {
                    continue;
                }
            }
            outputs.push(ctx);
        }
    } else {
        outputs.extend(kept.iter().map(|&r| Ctx::Row(r)));
    }

    // Sort positions by their ORDER BY keys; ties keep input order, as a
    // stable sort would.
    let width = stmt.order_by.len();
    let mut keys = Vec::with_capacity(outputs.len() * width);
    for ctx in &outputs {
        for o in &stmt.order_by {
            keys.push(q.eval(&o.expr, ctx)?);
        }
    }
    let by_key = |&a: &usize, &b: &usize| {
        (0..width)
            .map(|i| {
                let ord = keys[a * width + i].total_cmp(&keys[b * width + i]);
                if stmt.order_by[i].desc { ord.reverse() } else { ord }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(a.cmp(&b))
    };
    let mut order: Vec<usize> = (0..outputs.len()).collect();
    // Without DISTINCT only the first LIMIT positions are projected.
    let limit = stmt.limit.map_or(usize::MAX, |l| l as usize);
    let take = if stmt.core.distinct { order.len() } else { limit.min(order.len()) };
    if width > 0 && take < order.len() {
        order.select_nth_unstable_by(take, by_key);
        order[..take].sort_unstable_by(by_key);
    } else if width > 0 {
        order.sort_unstable_by(by_key);
    }
    for &i in &order[take..] {
        q.check_projection(&stmt.core, &outputs[i])?;
    }

    let mut rows = Vec::with_capacity(take);
    let mut seen = HashSet::new();
    for &i in &order[..take] {
        let row = q.project(&stmt.core, &outputs[i])?;
        if !stmt.core.distinct || seen.insert(row_key(&row)) {
            rows.push(row);
        }
    }
    rows.truncate(limit);

    Ok(ResultSet { headers, rows, ordered: stmt.is_ordered() })
}

fn truthy(d: Cow<'_, Datum>) -> bool {
    match *d {
        Datum::Null => false,
        Datum::Int(i) => i != 0,
        Datum::Float(f) => f != 0.0,
        Datum::Text(_) => false,
    }
}

fn bool_datum(b: bool) -> Datum {
    Datum::Int(i64::from(b))
}

/// An expression's identity within the borrowed statement.
fn addr<T>(node: &T) -> usize {
    node as *const T as usize
}

/// Values keyed by a node's address in the statement, sorted for binary
/// search: a statement has a handful of them, read once per row.
struct ByAddr<V>(Vec<(usize, V)>);

impl<V> ByAddr<V> {
    fn get(&self, node: usize) -> &V {
        let i = self.0.binary_search_by_key(&node, |e| e.0);
        &self.0[i.expect("every node is prepared with its query")].1
    }
}

/// A hash-join key that agrees with [`Datum::sql_eq`]: a number keys on the
/// bits of its `f64` value (`-0.0` folded to `0.0`), text on the string
/// itself. NULL and NaN equal nothing, so they have no key.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey<'a> {
    Num(u64),
    Text(&'a str),
}

impl<'a> JoinKey<'a> {
    fn of(d: &'a Datum) -> Option<Self> {
        match d {
            Datum::Null => None,
            Datum::Text(s) => Some(JoinKey::Text(s)),
            _ => {
                let x = d.as_number().filter(|x| !x.is_nan())?;
                Some(JoinKey::Num(if x == 0.0 { 0 } else { x.to_bits() }))
            }
        }
    }
}

/// One table bound in the FROM/JOIN list.
struct BoundTable<'a> {
    /// Effective name (alias or table name).
    name: String,
    table: TableId,
    /// The table's rows, read in place.
    rows: &'a [Vec<Datum>],
}

/// A resolved column: its table's tuple slot and its position in that
/// table's rows.
#[derive(Clone, Copy)]
struct Col {
    slot: usize,
    pos: usize,
}

/// Evaluation context: a single tuple, or a group of tuples (aggregates
/// allowed).
enum Ctx<'r> {
    Row(&'r [u32]),
    Group(&'r [&'r [u32]]),
}

/// One statement's bound tables plus what is worked out once per query.
struct Query<'a> {
    db: &'a Database,
    tables: Vec<BoundTable<'a>>,
    /// Every column reference's resolution, keyed by the reference's
    /// address. A failed one raises its error only when evaluated.
    cols: ByAddr<Result<Col, ExecError>>,
    /// Every literal as a datum, keyed by the expression's address. A LIKE
    /// pattern literal is stored lowercased.
    lits: ByAddr<Datum>,
    /// Results of uncorrelated subqueries, evaluated once and reused across
    /// rows (keyed by the subquery's address within the borrowed statement).
    subquery_cache: RefCell<HashMap<usize, Rc<[Datum]>>>,
}

impl<'a> Query<'a> {
    fn new(db: &'a Database, stmt: &SelectStmt) -> Result<Self, ExecError> {
        let core = &stmt.core;
        let mut tables = Vec::new();
        if let Some(from) = &core.from {
            for t in std::iter::once(from).chain(core.joins.iter().map(|j| &j.table)) {
                let table = db
                    .schema()
                    .table_by_name(&t.name)
                    .ok_or_else(|| ExecError::UnknownTable(t.name.clone()))?;
                let name = t.effective_name().to_string();
                tables.push(BoundTable { name, table, rows: db.rows(table) });
            }
        }
        let mut q = Query {
            db,
            tables,
            cols: ByAddr(Vec::new()),
            lits: ByAddr(Vec::new()),
            subquery_cache: RefCell::new(HashMap::new()),
        };
        let exprs = core
            .items
            .iter()
            .map(|it| &it.expr)
            .chain(core.joins.iter().filter_map(|j| j.on.as_ref()))
            .chain(&core.where_clause)
            .chain(&core.group_by)
            .chain(&core.having)
            .chain(stmt.order_by.iter().map(|o| &o.expr));
        for e in exprs {
            q.prepare(e);
        }
        q.cols.0.sort_unstable_by_key(|e| e.0);
        q.lits.0.sort_unstable_by_key(|e| e.0);
        Ok(q)
    }

    /// Resolves the column references and converts the literals of `e`,
    /// not descending into subqueries (each runs as its own query).
    fn prepare(&mut self, e: &Expr) {
        match e {
            Expr::Column(c) => {
                let col = self.resolve(c);
                self.cols.0.push((addr(c), col));
            }
            Expr::Lit(l) => {
                self.lits.0.push((addr(e), lit_datum(l)));
            }
            Expr::Agg { arg: x, .. } | Expr::Not(x) | Expr::InSubquery { expr: x, .. } => {
                self.prepare(x)
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.prepare(lhs);
                self.prepare(rhs);
            }
            Expr::Between { expr, low, high, .. } => {
                self.prepare(expr);
                self.prepare(low);
                self.prepare(high);
            }
            Expr::InList { expr, list, .. } => {
                self.prepare(expr);
                list.iter().for_each(|x| self.prepare(x));
            }
            Expr::Like { expr, pattern, .. } => {
                self.prepare(expr);
                match pattern.as_ref() {
                    Expr::Lit(Literal::Text(p)) => {
                        self.lits.0.push((addr(&**pattern), Datum::Text(p.to_lowercase())));
                    }
                    p => self.prepare(p),
                }
            }
            Expr::Subquery(_) => {}
        }
    }

    /// The cell a resolved column names in a (possibly partial) tuple.
    fn cell(&self, tuple: &[u32], col: Col) -> &'a Datum {
        match tuple.get(col.slot) {
            Some(&ri) => &self.tables[col.slot].rows[ri as usize][col.pos],
            // An ON clause naming a table that is not joined yet.
            None => &NULL,
        }
    }

    fn col(&self, c: &ColumnRef) -> Result<Col, ExecError> {
        self.cols.get(addr(c)).clone()
    }

    /// Computes the joined rows as tuples of row indices, one slot per
    /// FROM/JOIN table, stored back to back; returns the tuple width too.
    /// Each join's ON predicate applies as its table is attached (a join
    /// without ON degenerates to a cross join).
    fn joined_rows(&self, core: &SelectCore) -> Result<(usize, Vec<u32>), ExecError> {
        let Some(first) = self.tables.first() else {
            // No FROM: a single tuple, whose slot no column reads, lets
            // `SELECT 1` work.
            return Ok((1, vec![0]));
        };
        let mut rows: Vec<u32> = (0..first.rows.len() as u32).collect();
        for (ji, join) in core.joins.iter().enumerate() {
            // The new table's slot, and the width of the tuples so far.
            let slot = ji + 1;
            let right_rows = self.tables[slot].rows;
            let mut next = Vec::new();
            // Fast path: a single equi-join condition between an
            // already-joined column and a column of the new table becomes a
            // hash join; anything else falls back to the nested loop. Both
            // emit left-major, right rows in table order.
            if let Some((left_col, right_col)) = self.equi_join_key(join, slot)? {
                // Chain the right rows by key: walking the table backwards
                // and prepending leaves every chain in table order.
                const END: u32 = u32::MAX;
                let mut head: HashMap<JoinKey, u32> = HashMap::with_capacity(right_rows.len());
                let mut chain = vec![END; right_rows.len()];
                for (ri, right) in right_rows.iter().enumerate().rev() {
                    if let Some(k) = JoinKey::of(&right[right_col.pos]) {
                        chain[ri] = head.insert(k, ri as u32).unwrap_or(END);
                    }
                }
                for left in rows.chunks_exact(slot) {
                    let k = JoinKey::of(self.cell(left, left_col));
                    let mut ri = k.and_then(|k| head.get(&k).copied()).unwrap_or(END);
                    while ri != END {
                        next.extend_from_slice(left);
                        next.push(ri);
                        ri = chain[ri as usize];
                    }
                }
            } else {
                for left in rows.chunks_exact(slot) {
                    for ri in 0..right_rows.len() as u32 {
                        next.extend_from_slice(left);
                        next.push(ri);
                        let start = next.len() - slot - 1;
                        if let Some(on) = &join.on {
                            if !truthy(self.eval(on, &Ctx::Row(&next[start..]))?) {
                                next.truncate(start);
                            }
                        }
                    }
                }
            }
            rows = next;
        }
        Ok((self.tables.len(), rows))
    }

    /// Detects `ON a = b` where one side lives in the already-joined prefix
    /// and the other in the newly attached table (`slot`). Returns the left
    /// and the right column. Both references must resolve, even when no row
    /// is ever joined.
    fn equi_join_key(&self, join: &Join, slot: usize) -> Result<Option<(Col, Col)>, ExecError> {
        let Some(Expr::Binary { op: BinOp::Eq, lhs, rhs }) = &join.on else {
            return Ok(None);
        };
        let (Expr::Column(a), Expr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) else {
            return Ok(None);
        };
        let (ca, cb) = (self.col(a)?, self.col(b)?);
        Ok(if ca.slot < slot && cb.slot == slot {
            Some((ca, cb))
        } else if cb.slot < slot && ca.slot == slot {
            Some((cb, ca))
        } else {
            None
        })
    }

    /// Resolves a (non-star) column reference to its slot and position.
    fn resolve(&self, c: &ColumnRef) -> Result<Col, ExecError> {
        if self.tables.is_empty() {
            return Err(ExecError::NoFrom);
        }
        let schema = self.db.schema();
        let position = |slot: usize, name: &str| {
            let table = self.tables[slot].table;
            let col = schema.column_by_name(table, name)?;
            let pos = schema.table(table).columns.iter().position(|&cc| cc == col);
            Some(Col { slot, pos: pos.expect("column belongs to table") })
        };
        match &c.table {
            Some(q) => {
                // Aliases take precedence: a physical table name only
                // addresses an entry when no effective name matches, so an
                // alias can never be shadowed by another table's physical
                // name (found by differential fuzzing against the oracle).
                let slot = self
                    .tables
                    .iter()
                    .position(|t| t.name.eq_ignore_ascii_case(q))
                    .or_else(|| {
                        self.tables
                            .iter()
                            .position(|t| schema.table(t.table).name.eq_ignore_ascii_case(q))
                    })
                    .ok_or_else(|| ExecError::UnknownTable(q.clone()))?;
                position(slot, &c.column)
                    .ok_or_else(|| ExecError::UnknownColumn(format!("{q}.{}", c.column)))
            }
            // Unqualified: first table that has the column (lenient, like
            // the official evaluation harness).
            None => (0..self.tables.len())
                .find_map(|slot| position(slot, &c.column))
                .ok_or_else(|| ExecError::UnknownColumn(c.column.clone())),
        }
    }

    /// Columns covered by a star reference, in table then schema order.
    fn star_cols(&self, c: &ColumnRef) -> Result<Vec<Col>, ExecError> {
        let slots = match &c.table {
            None => 0..self.tables.len(),
            Some(q) => {
                let slot = self
                    .tables
                    .iter()
                    .position(|t| t.name.eq_ignore_ascii_case(q))
                    .ok_or_else(|| ExecError::UnknownTable(q.clone()))?;
                slot..slot + 1
            }
        };
        let schema = self.db.schema();
        Ok(slots
            .flat_map(|slot| {
                let width = schema.table(self.tables[slot].table).columns.len();
                (0..width).map(move |pos| Col { slot, pos })
            })
            .collect())
    }

    fn star_headers(&self, c: &ColumnRef) -> Result<Vec<String>, ExecError> {
        let schema = self.db.schema();
        Ok(self
            .star_cols(c)?
            .into_iter()
            .map(|col| {
                let t = &self.tables[col.slot];
                let column = schema.table(t.table).columns[col.pos];
                format!("{}.{}", t.name, schema.column(column).name)
            })
            .collect())
    }

    fn project(&self, core: &SelectCore, ctx: &Ctx<'_>) -> Result<Vec<Datum>, ExecError> {
        let mut out = Vec::with_capacity(core.items.len());
        for it in &core.items {
            match &it.expr {
                Expr::Column(c) if c.is_star() => {
                    let repr = match ctx {
                        Ctx::Row(r) => Some(*r),
                        Ctx::Group(rows) => rows.first().copied(),
                    };
                    for col in self.star_cols(c)? {
                        out.push(repr.map_or(&NULL, |r| self.cell(r, col)).clone());
                    }
                }
                e => out.push(self.eval(e, ctx)?.into_owned()),
            }
        }
        Ok(out)
    }

    /// Evaluates a projection for its errors alone. A star's only error, an
    /// unknown table, was raised with the headers.
    fn check_projection(&self, core: &SelectCore, ctx: &Ctx<'_>) -> Result<(), ExecError> {
        for it in &core.items {
            if !matches!(&it.expr, Expr::Column(c) if c.is_star()) {
                self.eval(&it.expr, ctx)?;
            }
        }
        Ok(())
    }

    /// Evaluates an expression; column reads and literals come back
    /// borrowed, computed values owned.
    fn eval(&self, e: &Expr, ctx: &Ctx<'_>) -> Result<Cow<'_, Datum>, ExecError> {
        let b = match e {
            Expr::Lit(_) => return Ok(Cow::Borrowed(self.lits.get(addr(e)))),
            Expr::Column(c) => {
                if c.is_star() {
                    return Err(ExecError::Invalid("bare * outside count(*)".into()));
                }
                let col = self.col(c)?;
                return Ok(Cow::Borrowed(match ctx {
                    Ctx::Row(r) => self.cell(r, col),
                    Ctx::Group(rows) => rows.first().map_or(&NULL, |r| self.cell(r, col)),
                }));
            }
            Expr::Agg { func, distinct, arg } => {
                let Ctx::Group(rows) = ctx else {
                    return Err(ExecError::Invalid("aggregate outside grouped context".into()));
                };
                return Ok(Cow::Owned(self.eval_aggregate(*func, *distinct, arg, rows)?));
            }
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                truthy(self.eval(lhs, ctx)?) && truthy(self.eval(rhs, ctx)?)
            }
            Expr::Binary { op: BinOp::Or, lhs, rhs } => {
                truthy(self.eval(lhs, ctx)?) || truthy(self.eval(rhs, ctx)?)
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, ctx)?;
                let r = self.eval(rhs, ctx)?;
                use std::cmp::Ordering::{Greater, Less};
                match op {
                    BinOp::Eq => l.sql_eq(&r),
                    BinOp::Ne => !l.is_null() && !r.is_null() && !l.sql_eq(&r),
                    BinOp::Lt => l.sql_cmp(&r) == Some(Less),
                    BinOp::Le => l.sql_cmp(&r).is_some_and(|o| o != Greater),
                    BinOp::Gt => l.sql_cmp(&r) == Some(Greater),
                    BinOp::Ge => l.sql_cmp(&r).is_some_and(|o| o != Less),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            Expr::Not(inner) => !truthy(self.eval(inner, ctx)?),
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
                in_range != *negated
            }
            Expr::InList { expr, list, negated } => {
                let v = self.eval(expr, ctx)?;
                let mut found = false;
                for item in list {
                    if v.sql_eq(&*self.eval(item, ctx)?) {
                        found = true;
                        break;
                    }
                }
                found != *negated
            }
            Expr::InSubquery { expr, subquery, negated } => {
                let v = self.eval(expr, ctx)?;
                let vals = self.subquery_column(subquery)?;
                vals.iter().any(|x| v.sql_eq(x)) != *negated
            }
            Expr::Like { expr, pattern, negated } => {
                let v = self.eval(expr, ctx)?;
                let p = self.eval(pattern, ctx)?;
                // SQLite semantics: case-insensitive for ASCII; NULL → false.
                let matched = match p.as_text() {
                    None => false,
                    Some(pat) => {
                        // A literal pattern was lowercased when the query
                        // was prepared.
                        let pat = match pattern.as_ref() {
                            Expr::Lit(_) => Cow::Borrowed(pat),
                            _ => Cow::Owned(pat.to_lowercase()),
                        };
                        match v.as_text() {
                            Some(t) => like_match(&pat, &t.to_lowercase()),
                            // LIKE against numbers compares their text form.
                            None if !v.is_null() => {
                                like_match(&pat, &v.to_string().to_lowercase())
                            }
                            None => false,
                        }
                    }
                };
                matched != *negated
            }
            Expr::Subquery(sub) => {
                let col = self.subquery_column(sub)?;
                return Ok(Cow::Owned(col.first().cloned().unwrap_or(Datum::Null)));
            }
        };
        Ok(Cow::Owned(bool_datum(b)))
    }

    /// Executes an (uncorrelated) subquery once and caches its single-column
    /// result, so WHERE predicates do not re-run it per candidate row.
    fn subquery_column(&self, sub: &SelectStmt) -> Result<Rc<[Datum]>, ExecError> {
        let key = addr(sub);
        if let Some(cached) = self.subquery_cache.borrow().get(&key) {
            return Ok(Rc::clone(cached));
        }
        let rs = execute(self.db, sub)?;
        if !rs.rows.is_empty() && rs.rows[0].len() != 1 {
            return Err(ExecError::SubqueryArity(rs.rows[0].len()));
        }
        let col: Rc<[Datum]> = rs.rows.into_iter().filter_map(|mut r| r.pop()).collect();
        self.subquery_cache.borrow_mut().insert(key, Rc::clone(&col));
        Ok(col)
    }

    fn eval_aggregate(
        &self,
        func: AggFunc,
        distinct: bool,
        arg: &Expr,
        rows: &[&[u32]],
    ) -> Result<Datum, ExecError> {
        // count(*) counts rows regardless of values.
        let is_star = matches!(arg, Expr::Column(c) if c.is_star());
        if func == AggFunc::Count && is_star {
            return Ok(Datum::Int(rows.len() as i64));
        }
        if is_star {
            return Err(ExecError::Invalid(format!("{}(*) is not valid", func.keyword())));
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
            values.retain(|v| seen.insert(row_key([&**v])));
        }
        Ok(match func {
            AggFunc::Count => Datum::Int(values.len() as i64),
            AggFunc::Sum => {
                if values.is_empty() {
                    Datum::Null
                } else {
                    let all_int = values.iter().all(|v| matches!(**v, Datum::Int(_)));
                    if all_int {
                        Datum::Int(values.iter().map(|v| v.as_number().unwrap() as i64).sum())
                    } else {
                        Datum::Float(values.iter().filter_map(|v| v.as_number()).sum())
                    }
                }
            }
            AggFunc::Avg => {
                let nums: Vec<f64> = values.iter().filter_map(|v| v.as_number()).collect();
                if nums.is_empty() {
                    Datum::Null
                } else {
                    Datum::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            AggFunc::Min => values
                .into_iter()
                .min_by(|a, b| a.total_cmp(b))
                .map_or(Datum::Null, Cow::into_owned),
            AggFunc::Max => values
                .into_iter()
                .max_by(|a, b| a.total_cmp(b))
                .map_or(Datum::Null, Cow::into_owned),
        })
    }
}

fn lit_datum(l: &Literal) -> Datum {
    match l {
        Literal::Null => Datum::Null,
        Literal::Int(i) => Datum::Int(*i),
        Literal::Float(f) => Datum::Float(*f),
        Literal::Text(s) => Datum::Text(s.clone()),
    }
}
