//! Runtime values stored in tables and produced by the executor.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
///
/// The derived `PartialEq` is structural (`Int(2) != Float(2.0)`); use
/// [`Datum::sql_eq`] / [`Datum::result_eq`] for SQL value semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Text.
    Text(String),
}

impl Datum {
    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Numeric view (ints widen to floats); `None` for NULL and text.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Text view; `None` for non-text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL three-valued-logic equality collapsed to two values: NULL never
    /// equals anything (including NULL). Numeric types compare by value, so
    /// `Int(2) == Float(2.0)`.
    pub fn sql_eq(&self, other: &Datum) -> bool {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => false,
            (Datum::Text(a), Datum::Text(b)) => a == b,
            (a, b) => match (a.as_number(), b.as_number()) {
                (Some(x), Some(y)) => x == y,
                // Text vs number: compare textually after number-to-string
                // coercion fails; SQLite would attempt affinity conversion,
                // we simply treat them as unequal.
                _ => false,
            },
        }
    }

    /// SQL comparison; `None` when either side is NULL or the types are
    /// incomparable. Numbers order numerically, text lexicographically.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_number(), b.as_number()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Total ordering for deterministic sorting of result sets: NULL first,
    /// then numbers, then text.
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Null => 0,
                Datum::Int(_) | Datum::Float(_) => 1,
                Datum::Text(_) => 2,
            }
        }
        match (self, other) {
            (Datum::Null, Datum::Null) => Ordering::Equal,
            (Datum::Text(a), Datum::Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                let (x, y) = (a.as_number().unwrap(), b.as_number().unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Approximate equality used by the Execution Accuracy comparison:
    /// exact for text/ints, tolerance `1e-6` relative for floats (the
    /// official Spider script likewise compares executed results leniently).
    pub fn result_eq(&self, other: &Datum) -> bool {
        match (self, other) {
            (Datum::Null, Datum::Null) => true,
            (Datum::Text(a), Datum::Text(b)) => a == b,
            (a, b) => match (a.as_number(), b.as_number()) {
                (Some(x), Some(y)) => {
                    (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()))
                }
                _ => false,
            },
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Float(x) => write!(f, "{x}"),
            Datum::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.to_string())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_never_equals() {
        assert!(!Datum::Null.sql_eq(&Datum::Null));
        assert!(!Datum::Null.sql_eq(&Datum::Int(1)));
        assert!(Datum::Null.sql_cmp(&Datum::Int(1)).is_none());
    }

    #[test]
    fn cross_numeric_equality() {
        assert!(Datum::Int(2).sql_eq(&Datum::Float(2.0)));
        assert!(!Datum::Int(2).sql_eq(&Datum::Float(2.5)));
        assert_eq!(Datum::Int(2).sql_cmp(&Datum::Float(2.5)), Some(Ordering::Less));
    }

    #[test]
    fn text_vs_number_incomparable() {
        assert!(!Datum::Text("2".into()).sql_eq(&Datum::Int(2)));
        assert!(Datum::Text("a".into()).sql_cmp(&Datum::Int(2)).is_none());
    }

    #[test]
    fn total_order_is_total() {
        let vals = [
            Datum::Null,
            Datum::Int(1),
            Datum::Float(1.5),
            Datum::Text("a".into()),
            Datum::Text("b".into()),
        ];
        let mut sorted = vals.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert!(matches!(sorted[0], Datum::Null));
        assert!(matches!(sorted[4], Datum::Text(ref s) if s == "b"));
    }

    #[test]
    fn result_eq_tolerates_float_noise() {
        assert!(Datum::Float(1.0).result_eq(&Datum::Float(1.0 + 1e-8)));
        assert!(Datum::Int(3).result_eq(&Datum::Float(3.0)));
        assert!(!Datum::Float(1.0).result_eq(&Datum::Float(1.01)));
        assert!(Datum::Null.result_eq(&Datum::Null));
        assert!(!Datum::Null.result_eq(&Datum::Int(0)));
    }
}
