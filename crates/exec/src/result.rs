//! Result sets and the Execution Accuracy comparison.

use std::fmt;
use valuenet_storage::Datum;

/// The rows produced by executing a query.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Column headers (expression texts or aliases).
    pub headers: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Datum>>,
    /// Whether row order is semantically meaningful (final `ORDER BY`).
    pub ordered: bool,
}

impl ResultSet {
    /// An empty, unordered result with the given headers.
    pub fn empty(headers: Vec<String>) -> Self {
        ResultSet { headers, rows: Vec::new(), ordered: false }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The Execution Accuracy comparison, mirroring the official Spider
    /// evaluation: results must have the same arity and the same rows —
    /// position-wise when *both* sides carry a meaningful order, as
    /// multisets otherwise. Floats compare with a small relative tolerance.
    pub fn result_eq(&self, other: &ResultSet) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let arity_l = self.rows.first().map_or(self.headers.len(), Vec::len);
        let arity_r = other.rows.first().map_or(other.headers.len(), Vec::len);
        if !self.rows.is_empty() && arity_l != arity_r {
            return false;
        }
        if self.ordered && other.ordered {
            rows_eq(&self.rows, &other.rows)
        } else {
            let mut l = self.rows.clone();
            let mut r = other.rows.clone();
            sort_rows(&mut l);
            sort_rows(&mut r);
            rows_eq(&l, &r)
        }
    }
}

fn rows_eq(l: &[Vec<Datum>], r: &[Vec<Datum>]) -> bool {
    l.iter().zip(r).all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.result_eq(y)))
}

fn sort_rows(rows: &mut [Vec<Datum>]) {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    });
}

/// Canonical text key for a row, used for DISTINCT, GROUP BY and set
/// operations. A number keys on the bits of its `f64` value, as the hash
/// join's key does, so two numbers share a key exactly when
/// [`Datum::sql_eq`] calls them equal: `Int(2)` and `Float(2.0)` coincide,
/// `-0.0` folds into `0.0`, and numbers that differ in any digit stay
/// apart. Every NaN shares one key, so NaNs group together like NULLs.
pub(crate) fn row_key<'d>(row: impl IntoIterator<Item = &'d Datum>) -> String {
    let mut key = String::new();
    for d in row {
        match d {
            Datum::Null => key.push_str("\u{1}N"),
            Datum::Int(i) => push_number_key(&mut key, *i as f64),
            Datum::Float(f) => push_number_key(&mut key, *f),
            Datum::Text(s) => {
                key.push_str("\u{1}t");
                key.push_str(s);
            }
        }
    }
    key
}

fn push_number_key(key: &mut String, x: f64) {
    use std::fmt::Write;
    let bits = if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0
    } else {
        x.to_bits()
    };
    let _ = write!(key, "\u{1}n{bits:016x}");
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.headers.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|d| d.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(rows: Vec<Vec<Datum>>, ordered: bool) -> ResultSet {
        ResultSet { headers: vec!["c".into()], rows, ordered }
    }

    #[test]
    fn unordered_comparison_is_multiset() {
        let a = rs(vec![vec![1.into()], vec![2.into()]], false);
        let b = rs(vec![vec![2.into()], vec![1.into()]], false);
        assert!(a.result_eq(&b));
    }

    #[test]
    fn ordered_comparison_is_positional() {
        let a = rs(vec![vec![1.into()], vec![2.into()]], true);
        let b = rs(vec![vec![2.into()], vec![1.into()]], true);
        assert!(!a.result_eq(&b));
        let c = rs(vec![vec![1.into()], vec![2.into()]], true);
        assert!(a.result_eq(&c));
    }

    #[test]
    fn mixed_order_falls_back_to_multiset() {
        // If only one side is ordered the comparison is lenient, mirroring
        // the official script's handling.
        let a = rs(vec![vec![1.into()], vec![2.into()]], true);
        let b = rs(vec![vec![2.into()], vec![1.into()]], false);
        assert!(a.result_eq(&b));
    }

    #[test]
    fn duplicates_matter_in_multisets() {
        let a = rs(vec![vec![1.into()], vec![1.into()]], false);
        let b = rs(vec![vec![1.into()]], false);
        assert!(!a.result_eq(&b));
    }

    #[test]
    fn numeric_coercion_in_keys() {
        assert_eq!(row_key(&[Datum::Int(2)]), row_key(&[Datum::Float(2.0)]));
        assert_eq!(row_key(&[Datum::Float(-0.0)]), row_key(&[Datum::Float(0.0)]));
        assert_eq!(row_key(&[Datum::Float(f64::NAN)]), row_key(&[Datum::Float(-f64::NAN)]));
        assert_ne!(row_key(&[Datum::Int(12345678901)]), row_key(&[Datum::Int(12345678902)]));
        assert_ne!(row_key(&[Datum::Float(1.0)]), row_key(&[Datum::Float(1.0000000001)]));
        assert_ne!(row_key(&[Datum::Int(2)]), row_key(&[Datum::Text("2".into())]));
        assert_ne!(row_key(&[Datum::Null]), row_key(&[Datum::Text("".into())]));
    }

    #[test]
    fn float_tolerance() {
        let a = rs(vec![vec![Datum::Float(0.333333333)]], false);
        let b = rs(vec![vec![Datum::Float(0.333333334)]], false);
        assert!(a.result_eq(&b));
    }
}
