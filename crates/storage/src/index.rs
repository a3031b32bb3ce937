//! Inverted index over the base data.

use crate::distance::{osa_within, OsaRows};
use crate::{Database, Datum};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::str::Chars;
use valuenet_schema::ColumnId;

/// Where a value was found: a column (its table is derivable from the
/// schema). The candidate-validation step registers these locations so the
/// encoder can encode each value *together with* its table and column
/// (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueLocation {
    /// Column containing the value.
    pub column: ColumnId,
}

/// A database value found by similarity search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilarValue {
    /// Column the value occurs in.
    pub column: ColumnId,
    /// The value exactly as stored in the database.
    pub value: String,
    /// Damerau–Levenshtein distance to the query.
    pub distance: usize,
}

/// An inverted index over every column of a database: per-column distinct
/// values (for exact and similarity lookup) plus a token → columns map (for
/// hint generation).
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Distinct values per column, original spelling, indexed by `ColumnId.0`.
    distinct: Vec<Vec<String>>,
    /// Normalised (lowercased) distinct values per column for O(1) exact lookup.
    normalized: Vec<HashSet<String>>,
    /// Lowercased word token → columns whose values contain that word.
    tokens: HashMap<String, BTreeSet<usize>>,
    /// Every distinct value for similarity search, bucketed by the length
    /// of its lowercased spelling in characters: `by_len[n]` holds the
    /// values whose lowercase has `n` characters.
    by_len: Vec<LengthBucket>,
}

/// The distinct values whose lowercased spelling has one length `n`.
#[derive(Debug, Default)]
struct LengthBucket {
    /// Each value's lowercased characters, `n` per value, back to back.
    chars: Vec<char>,
    /// Each value's [`char_set`].
    sets: Vec<u64>,
    /// Each value's column and position among that column's distinct values.
    ids: Vec<(usize, usize)>,
}

/// The set of characters in `s` as 64 bits: `a`–`z`, `0`–`9` and space get
/// a bit each, every other character shares one of 27 bits by code point.
/// Sharing a bit only weakens the filter it feeds: an insertion or deletion
/// changes at most one bit of the set, a substitution at most two and a
/// transposition none, so two strings `d` edits apart differ in at most
/// `2·d` bits.
fn char_set(s: &[char]) -> u64 {
    s.iter().fold(0u64, |set, &c| {
        let bit = match c {
            'a'..='z' => c as u32 - 'a' as u32,
            '0'..='9' => 26 + (c as u32 - '0' as u32),
            ' ' => 36,
            _ => 37 + c as u32 % 27,
        };
        set | 1 << bit
    })
}

impl InvertedIndex {
    /// Builds the index by scanning every row of `db`.
    pub fn build(db: &Database) -> Self {
        let schema = db.schema();
        let mut distinct: Vec<Vec<String>> = vec![Vec::new(); schema.columns.len()];
        let mut normalized: Vec<HashSet<String>> = vec![HashSet::new(); schema.columns.len()];
        let mut tokens: HashMap<String, BTreeSet<usize>> = HashMap::new();
        let mut by_len: Vec<LengthBucket> = Vec::new();
        for (ti, table) in schema.tables.iter().enumerate() {
            for row in db.rows(valuenet_schema::TableId(ti)) {
                for (off, &cid) in table.columns.iter().enumerate() {
                    let text = match &row[off] {
                        Datum::Null => continue,
                        Datum::Int(i) => i.to_string(),
                        Datum::Float(f) => f.to_string(),
                        Datum::Text(s) => s.clone(),
                    };
                    let norm = text.to_lowercase();
                    if normalized[cid.0].insert(norm.clone()) {
                        let len = norm.chars().count();
                        if by_len.len() <= len {
                            by_len.resize_with(len + 1, LengthBucket::default);
                        }
                        let bucket = &mut by_len[len];
                        let start = bucket.chars.len();
                        bucket.chars.extend(norm.chars());
                        bucket.sets.push(char_set(&bucket.chars[start..]));
                        bucket.ids.push((cid.0, distinct[cid.0].len()));
                        distinct[cid.0].push(text);
                    }
                    for tok in norm.split(|c: char| !c.is_alphanumeric()) {
                        if !tok.is_empty() {
                            tokens.entry(tok.to_string()).or_default().insert(cid.0);
                        }
                    }
                }
            }
        }
        InvertedIndex { distinct, normalized, tokens, by_len }
    }

    /// Columns whose base data contains `value` exactly (case-insensitive).
    pub fn find_exact(&self, value: &str) -> Vec<ColumnId> {
        let norm = value.to_lowercase();
        self.normalized
            .iter()
            .enumerate()
            .filter(|(_, set)| set.contains(&norm))
            .map(|(i, _)| ColumnId(i))
            .collect()
    }

    /// Whether `value` occurs exactly (case-insensitively) in `column`.
    pub fn contains(&self, column: ColumnId, value: &str) -> bool {
        self.normalized
            .get(column.0)
            .is_some_and(|set| set.contains(&value.to_lowercase()))
    }

    /// Columns whose values contain the given word `token`
    /// (case-insensitive). Used for question/schema hint generation.
    pub fn find_token(&self, token: &str) -> Vec<ColumnId> {
        self.tokens
            .get(&token.to_lowercase())
            .map(|set| set.iter().map(|&i| ColumnId(i)).collect())
            .unwrap_or_default()
    }

    /// Database values within Damerau–Levenshtein `max_dist` of `query`
    /// (case-insensitive), sorted by ascending distance, then column, then
    /// the order in which the column's values were first seen.
    ///
    /// Two blocks, in the spirit of the record-linkage blocking the paper
    /// cites, keep most values away from the distance computation:
    ///
    /// * *length*: only the buckets of values whose lowercased length is
    ///   within `max_dist` of the lowercased query's are visited;
    /// * *character set*: a value is skipped when its 64-bit character set
    ///   differs from the query's in more than `2·max_dist` bits, since one
    ///   edit changes at most two bits.
    ///
    /// The survivors go through a Damerau–Levenshtein that stops once a
    /// whole row of its matrix exceeds `max_dist`. Only the hits' spellings
    /// are cloned.
    pub fn find_similar(&self, query: &str, max_dist: usize) -> Vec<SimilarValue> {
        let query: Vec<char> = query.to_lowercase().chars().collect();
        let query_set = char_set(&query);
        let max_set_diff = max_dist.saturating_mul(2);
        let (shortest, longest) =
            (query.len().saturating_sub(max_dist), query.len().saturating_add(max_dist));
        let mut rows = OsaRows::default();
        let mut hits = Vec::new();
        let buckets = self.by_len.iter().enumerate().skip(shortest);
        for (len, bucket) in buckets.take_while(|&(len, _)| len <= longest) {
            for (i, (&set, &id)) in bucket.sets.iter().zip(&bucket.ids).enumerate() {
                if ((set ^ query_set).count_ones() as usize) > max_set_diff {
                    continue;
                }
                let value = &bucket.chars[i * len..(i + 1) * len];
                if let Some(d) = osa_within(&query, value, max_dist, &mut rows) {
                    hits.push((d, id));
                }
            }
        }
        hits.sort_unstable();
        hits.into_iter()
            .map(|(distance, (column, pos))| SimilarValue {
                column: ColumnId(column),
                value: self.distinct[column][pos].clone(),
                distance,
            })
            .collect()
    }

    /// Distinct values matching a SQL LIKE `pattern` (case-insensitive),
    /// over all columns. Used e.g. by the month heuristic (`8/%`).
    pub fn find_like_anywhere(&self, pattern: &str) -> Vec<(ColumnId, String)> {
        let pnorm = pattern.to_lowercase();
        let mut out = Vec::new();
        for (ci, vals) in self.distinct.iter().enumerate() {
            for v in vals {
                if like_match(&pnorm, &v.to_lowercase()) {
                    out.push((ColumnId(ci), v.clone()));
                }
            }
        }
        out
    }

    /// All distinct values stored for `column` (original spelling).
    pub fn distinct_values(&self, column: ColumnId) -> &[String] {
        self.distinct.get(column.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of distinct values across all columns.
    pub fn num_values(&self) -> usize {
        self.distinct.iter().map(Vec::len).sum()
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
/// Case-sensitive; normalise both sides for case-insensitive matching.
///
/// Runs in O(|pattern|·|text|) without allocating: on a mismatch it retries
/// only the last `%` met, absorbing one more text character into it. An
/// earlier `%` never needs a retry: matching the run after it at its
/// leftmost place leaves the most text for the rest of the pattern.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    // The pattern just after the last `%` met, and the text that `%` has not
    // absorbed yet.
    let mut retry: Option<(Chars<'_>, Chars<'_>)> = None;
    loop {
        let mut p_next = p.clone();
        let pc = p_next.next();
        if pc == Some('%') {
            p = p_next;
            retry = Some((p.clone(), t.clone()));
            continue;
        }
        let mut t_next = t.clone();
        match (pc, t_next.next()) {
            (None, None) => return true,
            (Some(pc), Some(tc)) if pc == '_' || pc == tc => {
                p = p_next;
                t = t_next;
            }
            _ => {
                let Some((rp, rt)) = &mut retry else { return false };
                if rt.next().is_none() {
                    return false;
                }
                p = rp.clone();
                t = rt.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valuenet_schema::{ColumnType, SchemaBuilder};

    /// One table whose text columns `a` and `b` hold `rows`.
    fn two_column_db(rows: &[(&str, &str)]) -> Database {
        let schema = SchemaBuilder::new("t")
            .table("t", &[("a", ColumnType::Text), ("b", ColumnType::Text)])
            .build();
        let rows = rows.iter().map(|&(a, b)| vec![a.into(), b.into()]).collect();
        Database::with_rows(schema, vec![rows])
    }

    fn hits(index: &InvertedIndex, query: &str, max_dist: usize) -> Vec<(usize, String, usize)> {
        let hits = index.find_similar(query, max_dist);
        hits.into_iter().map(|h| (h.column.0, h.value, h.distance)).collect()
    }

    fn owned(expected: &[(usize, &str, usize)]) -> Vec<(usize, String, usize)> {
        expected.iter().map(|&(c, v, d)| (c, v.to_string(), d)).collect()
    }

    #[test]
    fn similar_hits_sort_by_distance_then_column_then_first_seen() {
        // Column `a` is ColumnId(1) and `b` ColumnId(2) (0 is `*`). "mats"
        // sits in a longer length bucket than the three-letter values but
        // was seen second, so it stays second.
        let db = two_column_db(&[("hat", "rat"), ("mats", "mat"), ("cat", "x"), ("bat", "x")]);
        let expected = [
            (2, "mat", 0),
            (1, "hat", 1),
            (1, "mats", 1),
            (1, "cat", 1),
            (1, "bat", 1),
            (2, "rat", 1),
        ];
        assert_eq!(hits(db.index(), "mat", 1), owned(&expected));
    }

    #[test]
    fn similar_at_distance_zero_is_case_insensitive_exact_match() {
        let db = two_column_db(&[("Rome", "rome"), ("Roma", "ROMEO"), ("ROME", "x")]);
        // "ROME" repeats "Rome" case-insensitively, so column `a` keeps the
        // spelling seen first.
        assert_eq!(hits(db.index(), "ROME", 0), owned(&[(1, "Rome", 0), (2, "rome", 0)]));
    }

    #[test]
    fn similar_to_the_empty_query_is_every_short_value() {
        let db = two_column_db(&[("", "abc"), ("ab", "a"), ("abcd", "x")]);
        assert_eq!(
            hits(db.index(), "", 2),
            owned(&[(1, "", 0), (2, "a", 1), (2, "x", 1), (1, "ab", 2)])
        );
    }

    #[test]
    fn empty_index_finds_nothing_similar() {
        assert!(InvertedIndex::default().find_similar("anything", 3).is_empty());
        assert!(InvertedIndex::default().find_similar("", 0).is_empty());
        assert!(two_column_db(&[]).index().find_similar("", 5).is_empty());
    }

    #[test]
    fn similar_blocks_on_the_lowercased_length() {
        // 'İ' lowercases to two characters ("i̇"), so "İİİ" is six
        // characters long once lowercased and one insertion away from
        // "İİİx". A block on its three-character spelling dropped it.
        let db = two_column_db(&[("İİİ", "x")]);
        assert!(hits(db.index(), "İİİx", 0).is_empty());
        for k in 1..=4 {
            assert_eq!(hits(db.index(), "İİİx", k), owned(&[(1, "İİİ", 1)]), "k = {k}");
        }
    }

    #[test]
    fn like_match_does_not_backtrack_exponentially() {
        // Ten `%a` groups and a final `%b`: retrying every split at every
        // `%` takes on the order of 30^10 steps here.
        let pattern = format!("{}%b", "%a".repeat(10));
        let text = "a".repeat(30);
        assert!(!like_match(&pattern, &text));
        assert!(like_match(&pattern, &format!("{text}b")));
        assert!(like_match(&pattern, &format!("{text}bbb")));
        assert!(!like_match(&format!("{pattern}_"), &format!("{text}b")));
    }

    #[test]
    fn like_match_semantics() {
        assert!(like_match("%ah%", "sarah"));
        assert!(like_match("ha%", "harry"));
        assert!(!like_match("ha%", "sarah"));
        assert!(like_match("%", ""));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "ac"));
        assert!(like_match("8/%", "8/9/2010"));
        assert!(!like_match("8/%", "18/9/2010"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abcd"));
        assert!(like_match("%goodbye%", "goodbye yellow brick road"));
        assert!(like_match("%%a%%", "ba"));
        assert!(like_match("_é_", "aéb"));
        assert!(!like_match("_", ""));
        assert!(!like_match("", "a"));
        assert!(like_match("", ""));
    }
}
