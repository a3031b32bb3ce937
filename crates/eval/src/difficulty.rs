//! Spider's query-hardness heuristic.
//!
//! A faithful port of the `eval_hardness` logic from the official Spider
//! evaluation script: three component counts decide the bucket. "Queries
//! that contain more SQL keywords … are considered to be harder"
//! (paper Section V-F).

use valuenet_sql::{Expr, SelectStmt};

/// Spider's four difficulty levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Difficulty {
    /// Single-table, at most one simple component.
    Easy,
    /// A couple of components.
    Medium,
    /// Several components or one nesting.
    Hard,
    /// Heavy nesting / many components.
    ExtraHard,
}

impl Difficulty {
    /// All levels, in order.
    pub const ALL: [Difficulty; 4] =
        [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard, Difficulty::ExtraHard];

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Difficulty::Easy => "Easy",
            Difficulty::Medium => "Medium",
            Difficulty::Hard => "Hard",
            Difficulty::ExtraHard => "Extra-Hard",
        }
    }
}

struct Counts {
    comp1: usize,
    comp2: usize,
    others: usize,
}

fn count_or_like(e: &Expr, ors: &mut usize, likes: &mut usize, conds: &mut usize) {
    match e {
        Expr::Binary { op, lhs, rhs } if !op.is_comparison() => {
            if *op == valuenet_sql::BinOp::Or {
                *ors += 1;
            }
            count_or_like(lhs, ors, likes, conds);
            count_or_like(rhs, ors, likes, conds);
        }
        Expr::Like { .. } => {
            *likes += 1;
            *conds += 1;
        }
        Expr::Not(inner) => count_or_like(inner, ors, likes, conds),
        _ => *conds += 1,
    }
}

fn count_nested(e: &Expr) -> usize {
    match e {
        Expr::Binary { lhs, rhs, .. } => count_nested(lhs) + count_nested(rhs),
        Expr::Not(inner) => count_nested(inner),
        Expr::Subquery(_) | Expr::InSubquery { .. } => 1,
        Expr::Between { .. } | Expr::InList { .. } | Expr::Like { .. } => 0,
        _ => 0,
    }
}

fn count_aggs(stmt: &SelectStmt) -> usize {
    stmt.core
        .items
        .iter()
        .filter(|it| it.expr.contains_aggregate())
        .count()
        + stmt.order_by.iter().filter(|o| o.expr.contains_aggregate()).count()
        + stmt.core.having.as_ref().map_or(0, |h| usize::from(h.contains_aggregate()))
}

fn counts(stmt: &SelectStmt) -> Counts {
    let core = &stmt.core;
    let mut comp1 = 0;
    let mut ors = 0;
    let mut likes = 0;
    let mut where_conds = 0;
    if let Some(w) = &core.where_clause {
        comp1 += 1;
        count_or_like(w, &mut ors, &mut likes, &mut where_conds);
    }
    if !core.group_by.is_empty() {
        comp1 += 1;
    }
    if !stmt.order_by.is_empty() {
        comp1 += 1;
    }
    if stmt.limit.is_some() {
        comp1 += 1;
    }
    if !core.joins.is_empty() {
        comp1 += 1;
    }
    comp1 += ors + likes;

    let mut comp2 = 0;
    if stmt.compound.is_some() {
        comp2 += 1;
    }
    if let Some(w) = &core.where_clause {
        comp2 += count_nested(w);
    }
    if let Some(h) = &core.having {
        comp2 += count_nested(h);
    }

    let mut others = 0;
    if count_aggs(stmt) > 1 {
        others += 1;
    }
    if core.items.len() > 1 {
        others += 1;
    }
    if where_conds > 1 {
        others += 1;
    }
    if core.group_by.len() > 1 {
        others += 1;
    }
    Counts { comp1, comp2, others }
}

/// Classifies a query with Spider's official hardness rules. For compound
/// queries the counts of both sides contribute (the right side adds to the
/// nesting count), matching the script's treatment of set operations.
pub fn spider_difficulty(stmt: &SelectStmt) -> Difficulty {
    let c = counts(stmt);
    let (comp1, comp2, others) = (c.comp1, c.comp2, c.others);
    if comp1 <= 1 && others == 0 && comp2 == 0 {
        Difficulty::Easy
    } else if (others <= 2 && comp1 <= 1 && comp2 == 0)
        || (comp1 <= 2 && others < 2 && comp2 == 0)
    {
        Difficulty::Medium
    } else if (others > 2 && comp1 <= 2 && comp2 == 0)
        || (comp1 > 2 && comp1 <= 3 && others <= 2 && comp2 == 0)
        || (comp1 <= 1 && others == 0 && comp2 <= 1)
    {
        Difficulty::Hard
    } else {
        Difficulty::ExtraHard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valuenet_sql::parse_select;

    fn diff(sql: &str) -> Difficulty {
        spider_difficulty(&parse_select(sql).unwrap())
    }

    #[test]
    fn easy_queries() {
        assert_eq!(diff("SELECT name FROM student"), Difficulty::Easy);
        assert_eq!(diff("SELECT count(*) FROM student"), Difficulty::Easy);
        assert_eq!(diff("SELECT name FROM student WHERE age > 20"), Difficulty::Easy);
    }

    #[test]
    fn medium_queries() {
        assert_eq!(
            diff("SELECT name, age FROM student WHERE age > 20"),
            Difficulty::Medium
        );
        assert_eq!(
            diff("SELECT T1.name FROM student AS T1 JOIN has_pet AS T2 ON T1.id = T2.sid WHERE T2.pid = 3"),
            Difficulty::Medium
        );
        assert_eq!(
            diff("SELECT name FROM student GROUP BY name"),
            Difficulty::Easy,
            "single group-by only"
        );
    }

    #[test]
    fn hard_queries() {
        assert_eq!(
            diff(
                "SELECT name FROM student WHERE age > (SELECT avg(age) FROM student)"
            ),
            Difficulty::Hard
        );
        assert_eq!(
            diff(
                "SELECT country, count(*) FROM student \
                 WHERE age > 20 GROUP BY country ORDER BY count(*) DESC"
            ),
            Difficulty::Hard
        );
        // A simple set operation is Hard (comp2 = 1, everything else small).
        assert_eq!(
            diff(
                "SELECT name FROM student WHERE country = 'France' \
                 INTERSECT SELECT name FROM student WHERE age < 20"
            ),
            Difficulty::Hard
        );
    }

    #[test]
    fn extra_hard_queries() {
        assert_eq!(
            diff(
                "SELECT name FROM student WHERE age > 20 AND id IN (SELECT sid FROM has_pet) \
                 ORDER BY age DESC LIMIT 3"
            ),
            Difficulty::ExtraHard
        );
        // Join + where + group + order pushes comp1 past 3.
        assert_eq!(
            diff(
                "SELECT T1.country, count(*) FROM student AS T1 JOIN has_pet AS T2 ON T1.id = T2.sid \
                 WHERE T1.age > 20 GROUP BY T1.country ORDER BY count(*) DESC"
            ),
            Difficulty::ExtraHard
        );
    }

    #[test]
    fn ordering_of_levels() {
        assert!(Difficulty::Easy < Difficulty::Medium);
        assert!(Difficulty::Hard < Difficulty::ExtraHard);
        assert_eq!(Difficulty::ALL.len(), 4);
    }
}
