//! Damerau–Levenshtein string distance.
//!
//! The paper (Section IV-B2) picks Damerau–Levenshtein for candidate
//! generation "because of its good trade-off between accuracy and run time".
//! This is the optimal-string-alignment variant (each substring may be
//! transposed at most once), computed over Unicode scalar values with a
//! rolling three-row buffer.
//!
//! [`damerau_levenshtein`] computes the full distance and is the reference;
//! the similarity search runs [`osa_within`], the same recurrence with a
//! cap, on row buffers it reuses from one value to the next.

/// Damerau–Levenshtein (optimal string alignment) distance between `a` and
/// `b`, case-sensitive. Compare lowercased inputs for the case-insensitive
/// behaviour the candidate generator uses.
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    // Three rows: i-2, i-1, i.
    let mut prev2 = vec![0usize; m + 1];
    let mut prev1: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut d = (prev1[j] + 1) // deletion
                .min(cur[j - 1] + 1) // insertion
                .min(prev1[j - 1] + cost); // substitution
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(prev2[j - 2] + 1); // transposition
            }
            cur[j] = d;
        }
        std::mem::swap(&mut prev2, &mut prev1);
        std::mem::swap(&mut prev1, &mut cur);
    }
    prev1[m]
}

/// Row buffers for [`osa_within`], reused across calls so that a search
/// over many values allocates them once.
#[derive(Debug, Default)]
pub(crate) struct OsaRows {
    prev2: Vec<usize>,
    prev1: Vec<usize>,
    cur: Vec<usize>,
}

/// The distance [`damerau_levenshtein`] computes between `a` and `b`, if it
/// is at most `max`; `None` otherwise.
///
/// It runs the same recurrence row by row and stops as soon as every cell
/// of a row exceeds `max`: no cell is smaller than the smallest cell of the
/// row above it (a transposition from two rows up costs at least the
/// diagonal cell of the row above), so the final cell cannot come back
/// under the cap.
pub(crate) fn osa_within(a: &[char], b: &[char], max: usize, rows: &mut OsaRows) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > max {
        return None;
    }
    if n == 0 || m == 0 {
        return Some(n.max(m));
    }
    let OsaRows { prev2, prev1, cur } = rows;
    for row in [&mut *prev2, &mut *cur] {
        row.clear();
        row.resize(m + 1, 0);
    }
    prev1.clear();
    prev1.extend(0..=m);
    for i in 1..=n {
        cur[0] = i;
        let mut row_min = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut d = (prev1[j] + 1).min(cur[j - 1] + 1).min(prev1[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(prev2[j - 2] + 1);
            }
            cur[j] = d;
            row_min = row_min.min(d);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(prev2, prev1);
        std::mem::swap(prev1, cur);
    }
    Some(prev1[m]).filter(|&d| d <= max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_distances() {
        assert_eq!(damerau_levenshtein("", ""), 0);
        assert_eq!(damerau_levenshtein("abc", "abc"), 0);
        assert_eq!(damerau_levenshtein("abc", ""), 3);
        assert_eq!(damerau_levenshtein("", "abc"), 3);
        assert_eq!(damerau_levenshtein("kitten", "sitting"), 3);
        assert_eq!(damerau_levenshtein("ca", "abc"), 3); // OSA (not full DL) = 3
        assert_eq!(damerau_levenshtein("ab", "ba"), 1); // transposition
        assert_eq!(damerau_levenshtein("france", "frnace"), 1);
        assert_eq!(damerau_levenshtein("JFK", "JKF"), 1);
        assert_eq!(damerau_levenshtein("professor", "professors"), 1);
    }

    #[test]
    fn transposition_cheaper_than_two_edits() {
        // Plain Levenshtein would give 2 here.
        assert_eq!(damerau_levenshtein("abcd", "acbd"), 1);
    }

    #[test]
    fn unicode_chars_count_once() {
        assert_eq!(damerau_levenshtein("zürich", "zurich"), 1);
    }

    proptest! {
        #[test]
        fn identity(s in "[a-z]{0,12}") {
            prop_assert_eq!(damerau_levenshtein(&s, &s), 0);
        }

        #[test]
        fn symmetry(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
            prop_assert_eq!(damerau_levenshtein(&a, &b), damerau_levenshtein(&b, &a));
        }

        #[test]
        fn bounded_by_longer_length(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
            let d = damerau_levenshtein(&a, &b);
            let max = a.chars().count().max(b.chars().count());
            let min = a.chars().count().min(b.chars().count());
            prop_assert!(d <= max);
            prop_assert!(d >= max - min);
        }

        #[test]
        fn capped_distance_agrees_with_full(
            a in "[abcİ]{0,9}",
            b in "[abcİ]{0,9}",
            k in 0usize..5,
        ) {
            let (ac, bc): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            let full = damerau_levenshtein(&a, &b);
            let mut rows = OsaRows::default();
            let capped = osa_within(&ac, &bc, k, &mut rows);
            prop_assert_eq!(capped, Some(full).filter(|&d| d <= k));
            // The buffers carry nothing from one call to the next.
            prop_assert_eq!(osa_within(&bc, &ac, k, &mut rows), capped);
        }

        #[test]
        fn single_edit_is_distance_one(s in "[a-z]{2,10}", idx in 0usize..8, c in proptest::char::range('a', 'z')) {
            let chars: Vec<char> = s.chars().collect();
            let i = idx % chars.len();
            if chars[i] != c {
                let mut edited = chars.clone();
                edited[i] = c;
                let edited: String = edited.into_iter().collect();
                prop_assert_eq!(damerau_levenshtein(&s, &edited), 1);
            }
        }
    }
}
