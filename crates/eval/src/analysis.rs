//! Error analysis (paper Section V-G).
//!
//! Failed predictions are classified by comparing the predicted and gold
//! SemQL action sequences: diverging sketch actions are *SQL-sketch errors*,
//! diverging column / table / value pointers are *column / table / value
//! selection errors*. As in the paper, one example can exhibit several
//! causes.

use valuenet_semql::{ast_to_actions, Action, SemQl};

/// The paper's error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCause {
    /// Wrong column pointer.
    Column,
    /// Wrong table pointer.
    Table,
    /// Wrong grammar-rule (sketch) action.
    Sketch,
    /// Wrong value selected.
    Value,
}

impl ErrorCause {
    /// All causes, in the paper's reporting order.
    pub const ALL: [ErrorCause; 4] =
        [ErrorCause::Column, ErrorCause::Table, ErrorCause::Sketch, ErrorCause::Value];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCause::Column => "Column Prediction",
            ErrorCause::Table => "Table Prediction",
            ErrorCause::Sketch => "SQL Sketch",
            ErrorCause::Value => "Value Selection",
        }
    }
}

/// Causes found for one failed sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorReport {
    /// All causes present (possibly several, as in the paper).
    pub causes: Vec<ErrorCause>,
}

impl ErrorReport {
    /// Whether a specific cause was identified.
    pub fn has(&self, cause: ErrorCause) -> bool {
        self.causes.contains(&cause)
    }
}

/// Compares predicted and gold trees. `pred_values`/`gold_values` are the
/// resolved value texts so that value pointers can be compared by content
/// rather than by index.
pub fn error_analysis(
    predicted: &SemQl,
    gold: &SemQl,
    pred_values: &[String],
    gold_values: &[String],
) -> ErrorReport {
    let pa = ast_to_actions(predicted);
    let ga = ast_to_actions(gold);
    let mut report = ErrorReport::default();
    let add = |c: ErrorCause, report: &mut ErrorReport| {
        if !report.causes.contains(&c) {
            report.causes.push(c);
        }
    };

    // Sketch comparison: the subsequence of non-pointer actions.
    let psk: Vec<&Action> = pa.iter().filter(|a| a.sketch_index().is_some()).collect();
    let gsk: Vec<&Action> = ga.iter().filter(|a| a.sketch_index().is_some()).collect();
    if psk.len() != gsk.len() || psk.iter().zip(&gsk).any(|(a, b)| a != b) {
        add(ErrorCause::Sketch, &mut report);
    }

    // Pointer comparisons: positional when the sketches agree, set-based
    // otherwise (a sketch divergence shifts positions).
    let pc: Vec<usize> = pa.iter().filter_map(|a| match a { Action::C(c) => Some(*c), _ => None }).collect();
    let gc: Vec<usize> = ga.iter().filter_map(|a| match a { Action::C(c) => Some(*c), _ => None }).collect();
    if !same_multiset(&pc, &gc) {
        add(ErrorCause::Column, &mut report);
    }
    let pt: Vec<usize> = pa.iter().filter_map(|a| match a { Action::T(t) => Some(*t), _ => None }).collect();
    let gt: Vec<usize> = ga.iter().filter_map(|a| match a { Action::T(t) => Some(*t), _ => None }).collect();
    if !same_multiset(&pt, &gt) {
        add(ErrorCause::Table, &mut report);
    }

    // Value comparison by resolved text.
    let pv: Vec<&str> = pa
        .iter()
        .filter_map(|a| match a {
            Action::V(v) => Some(pred_values.get(*v).map(String::as_str).unwrap_or("<missing>")),
            _ => None,
        })
        .collect();
    let gv: Vec<&str> = ga
        .iter()
        .filter_map(|a| match a {
            Action::V(v) => Some(gold_values.get(*v).map(String::as_str).unwrap_or("<missing>")),
            _ => None,
        })
        .collect();
    let pv_norm: Vec<String> = pv.iter().map(|s| s.to_lowercase()).collect();
    let gv_norm: Vec<String> = gv.iter().map(|s| s.to_lowercase()).collect();
    if !same_multiset(&pv_norm, &gv_norm) {
        add(ErrorCause::Value, &mut report);
    }
    report
}

fn same_multiset<T: Ord + Clone>(a: &[T], b: &[T]) -> bool {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort();
    b.sort();
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use valuenet_schema::{ColumnId, TableId};
    use valuenet_semql::{Agg, CmpOp, Filter, QueryR, Select, SemQl, ValueRef};

    fn simple(col: usize, table: usize, value: usize) -> SemQl {
        SemQl::Single(Box::new(QueryR {
            select: Select::new(vec![Agg::plain(ColumnId(col), TableId(table))]),
            order: None,
            superlative: None,
            filter: Some(Filter::Cmp {
                op: CmpOp::Eq,
                agg: Agg::plain(ColumnId(col), TableId(table)),
                value: ValueRef(value),
            }),
        }))
    }

    #[test]
    fn identical_trees_have_no_causes() {
        let g = simple(2, 0, 0);
        let r = error_analysis(&g, &g, &["France".into()], &["France".into()]);
        assert!(r.causes.is_empty());
    }

    #[test]
    fn wrong_column_detected() {
        let pred = simple(3, 0, 0);
        let gold = simple(2, 0, 0);
        let r = error_analysis(&pred, &gold, &["x".into()], &["x".into()]);
        assert!(r.has(ErrorCause::Column));
        assert!(!r.has(ErrorCause::Table));
        assert!(!r.has(ErrorCause::Sketch));
    }

    #[test]
    fn wrong_table_detected() {
        let pred = simple(2, 1, 0);
        let gold = simple(2, 0, 0);
        let r = error_analysis(&pred, &gold, &["x".into()], &["x".into()]);
        assert!(r.has(ErrorCause::Table));
    }

    #[test]
    fn wrong_value_detected() {
        let pred = simple(2, 0, 0);
        let gold = simple(2, 0, 0);
        let r = error_analysis(&pred, &gold, &["Germany".into()], &["France".into()]);
        assert_eq!(r.causes, vec![ErrorCause::Value]);
        // Case differences are not value errors.
        let r2 = error_analysis(&pred, &gold, &["france".into()], &["France".into()]);
        assert!(r2.causes.is_empty());
    }

    #[test]
    fn sketch_divergence_detected() {
        let pred = SemQl::Single(Box::new(QueryR {
            select: Select::new(vec![Agg::plain(ColumnId(2), TableId(0))]),
            order: None,
            superlative: None,
            filter: Some(Filter::Cmp {
                op: CmpOp::Gt, // gold uses Eq
                agg: Agg::plain(ColumnId(2), TableId(0)),
                value: ValueRef(0),
            }),
        }));
        let gold = simple(2, 0, 0);
        let r = error_analysis(&pred, &gold, &["5".into()], &["5".into()]);
        assert_eq!(r.causes, vec![ErrorCause::Sketch]);
    }

    #[test]
    fn multiple_causes_can_coexist() {
        let pred = SemQl::Single(Box::new(QueryR {
            select: Select::new(vec![Agg::plain(ColumnId(4), TableId(1))]),
            order: None,
            superlative: None,
            filter: None,
        }));
        let gold = simple(2, 0, 0);
        let r = error_analysis(&pred, &gold, &[], &["France".into()]);
        assert!(r.has(ErrorCause::Sketch));
        assert!(r.has(ErrorCause::Column));
        assert!(r.has(ErrorCause::Table));
        assert!(r.has(ErrorCause::Value));
    }
}
