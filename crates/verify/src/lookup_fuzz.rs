//! Deterministic fuzz harness for the inverted index's value lookups.
//!
//! Each case derives from its seed (see [`crate::case_seed`]) a small
//! one-table database of random strings — mixed case, digits, spaces, and
//! letters whose lowercase is longer than themselves (`İ` → `i̇`) — plus a
//! number column, and checks two invariants:
//!
//! 1. for every query and every `k` in `0..=3`,
//!    [`InvertedIndex::find_similar`](valuenet_storage::InvertedIndex::find_similar)
//!    returns exactly what [`reference_find_similar`], a scan with no
//!    blocking at all, returns — order included. Queries are stored values
//!    after 0–3 random edits (and case changes), plus random strings;
//! 2. [`like_match`] agrees with the oracle's recursive
//!    [`reference_like_match`] on random `%`/`_` patterns.
//!
//! A failure names its case seed, the input and both outputs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use valuenet_schema::{ColumnId, ColumnType, SchemaBuilder};
use valuenet_storage::{damerau_levenshtein, like_match, Database, Datum, SimilarValue};

use crate::oracle::reference_like_match;

/// Characters of the generated strings. `İ` lowercases to two characters,
/// `É` and `Σ` to one non-ASCII character (`Σ` to `ς` at the end of a
/// word). Some of the non-ASCII and punctuation characters share a bit of
/// the index's character set (`é` with `ς`, `-` with `σ`).
const ALPHABET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'A', 'B', 'C', 'D', 'E', '0', '1', '2', '3', ' ', 'İ', 'é', 'É', '-',
    'Σ',
];

/// Characters of the generated LIKE patterns and texts.
const LIKE_ALPHABET: &[char] = &['a', 'b', 'é', '%', '_'];

/// Largest `k` each query is looked up at.
pub const MAX_LOOKUP_DIST: usize = 3;

/// One generated lookup case.
pub struct LookupCase {
    /// The database whose index is searched.
    pub db: Database,
    /// Similarity queries, each looked up at every `k` in `0..=MAX_LOOKUP_DIST`.
    pub queries: Vec<String>,
    /// `(pattern, text)` pairs for the LIKE matchers.
    pub like_pairs: Vec<(String, String)>,
}

/// What one case compared.
#[derive(Debug, Default)]
pub struct LookupCounts {
    /// `(query, k)` lookups compared.
    pub lookups: usize,
    /// Values the reference returned over those lookups.
    pub hits: usize,
    /// LIKE pattern/text pairs compared.
    pub like_pairs: usize,
}

/// Outcome of a [`run_lookup_fuzz`] sweep.
#[derive(Debug, Default)]
pub struct LookupFuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Totals over the cases that passed.
    pub counts: LookupCounts,
    /// Case seed and description of each failing case.
    pub failures: Vec<(u64, String)>,
}

fn random_string(rng: &mut SmallRng, alphabet: &[char], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
}

/// `s` after `edits` random insertions, deletions, substitutions and
/// adjacent transpositions.
fn edit(rng: &mut SmallRng, s: &str, edits: usize) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..edits {
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..4) {
            0 => chars.insert(rng.gen_range(0..=chars.len()), c),
            1 if !chars.is_empty() => {
                chars.remove(rng.gen_range(0..chars.len()));
            }
            2 if !chars.is_empty() => {
                let i = rng.gen_range(0..chars.len());
                chars[i] = c;
            }
            3 if chars.len() >= 2 => {
                let i = rng.gen_range(1..chars.len());
                chars.swap(i - 1, i);
            }
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

/// A LIKE pattern for `text`: each character kept, turned into `_`,
/// replaced or dropped, with `%` inserted at random, so that many patterns
/// match.
fn like_pattern(rng: &mut SmallRng, text: &str) -> String {
    let mut pattern = String::new();
    for c in text.chars() {
        if rng.gen_range(0..4) == 0 {
            pattern.push('%');
        }
        match rng.gen_range(0..6) {
            0 => pattern.push('_'),
            1 => {}
            2 => pattern.push(LIKE_ALPHABET[rng.gen_range(0..3)]),
            _ => pattern.push(c),
        }
    }
    if rng.gen_bool(0.3) {
        pattern.push('%');
    }
    pattern
}

/// Generates the database, queries and LIKE pairs of case `seed`.
pub fn gen_lookup_case(seed: u64) -> LookupCase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schema = SchemaBuilder::new("lookup")
        .table(
            "t",
            &[("a", ColumnType::Text), ("b", ColumnType::Text), ("n", ColumnType::Number)],
        )
        .build();
    let mut texts: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..rng.gen_range(0..40) {
        let mut row = Vec::new();
        for _ in 0..2 {
            // Some values repeat an earlier one in upper or lower case; the
            // index must fold them into the first spelling it saw.
            let text = if !texts.is_empty() && rng.gen_range(0..5) == 0 {
                let earlier = &texts[rng.gen_range(0..texts.len())];
                if rng.gen_bool(0.5) {
                    earlier.to_uppercase()
                } else {
                    earlier.to_lowercase()
                }
            } else {
                random_string(&mut rng, ALPHABET, 8)
            };
            texts.push(text.clone());
            row.push(if rng.gen_range(0..10) == 0 { Datum::Null } else { Datum::Text(text) });
        }
        row.push(match rng.gen_range(0..3) {
            0 => Datum::Float(f64::from(rng.gen_range(0..400u32)) / 4.0),
            _ => Datum::Int(rng.gen_range(0..2000)),
        });
        rows.push(row);
    }
    let db = Database::with_rows(schema, vec![rows]);

    let mut queries = Vec::new();
    for _ in 0..12 {
        let query = if texts.is_empty() || rng.gen_range(0..3) == 0 {
            random_string(&mut rng, ALPHABET, 9)
        } else {
            let stored = texts[rng.gen_range(0..texts.len())].clone();
            let stored = if rng.gen_bool(0.3) { stored.to_uppercase() } else { stored };
            let edits = rng.gen_range(0..=MAX_LOOKUP_DIST);
            edit(&mut rng, &stored, edits)
        };
        queries.push(query);
    }

    let mut like_pairs = Vec::new();
    for _ in 0..12 {
        let text = random_string(&mut rng, &LIKE_ALPHABET[..3], 10);
        let pattern = if rng.gen_bool(0.7) {
            like_pattern(&mut rng, &text)
        } else {
            random_string(&mut rng, LIKE_ALPHABET, 10)
        };
        like_pairs.push((pattern, text));
    }
    LookupCase { db, queries, like_pairs }
}

/// The values of `db` within Damerau–Levenshtein `k` of `query`
/// (case-insensitive) by a scan with no blocking: every distinct value of
/// every column, lowercased, against the lowercased query; sorted by
/// distance, then column, then position among the column's distinct values.
pub fn reference_find_similar(db: &Database, query: &str, k: usize) -> Vec<SimilarValue> {
    let query = query.to_lowercase();
    let mut out = Vec::new();
    for column in (0..db.schema().columns.len()).map(ColumnId) {
        for value in db.index().distinct_values(column) {
            let distance = damerau_levenshtein(&query, &value.to_lowercase());
            if distance <= k {
                out.push(SimilarValue { column, value: value.clone(), distance });
            }
        }
    }
    // Stable: equal distances keep column order, then position.
    out.sort_by_key(|hit| hit.distance);
    out
}

/// Runs case `seed`: what it compared, or a description of the first
/// disagreement.
pub fn run_lookup_case(seed: u64) -> Result<LookupCounts, String> {
    let case = gen_lookup_case(seed);
    let mut counts = LookupCounts::default();
    for query in &case.queries {
        for k in 0..=MAX_LOOKUP_DIST {
            let got = case.db.index().find_similar(query, k);
            let want = reference_find_similar(&case.db, query, k);
            if got != want {
                return Err(format!(
                    "case seed {seed}: find_similar({query:?}, {k})\n  index:     {got:?}\n  \
                     reference: {want:?}"
                ));
            }
            counts.lookups += 1;
            counts.hits += want.len();
        }
    }
    for (pattern, text) in &case.like_pairs {
        let (got, want) = (like_match(pattern, text), reference_like_match(pattern, text));
        if got != want {
            return Err(format!(
                "case seed {seed}: like_match({pattern:?}, {text:?}) = {got}, recursive \
                 reference = {want}"
            ));
        }
        counts.like_pairs += 1;
    }
    Ok(counts)
}

static LOOKUP_AGREE: valuenet_obs::Counter = valuenet_obs::Counter::new("fuzz.lookup.agree");
static LOOKUP_DIVERGE: valuenet_obs::Counter =
    valuenet_obs::Counter::new("fuzz.lookup.divergence");

/// Runs `cases` seeded lookup cases derived from `seed`.
pub fn run_lookup_fuzz(cases: usize, seed: u64) -> LookupFuzzReport {
    let _span = valuenet_obs::span("fuzz.lookup");
    let mut report = LookupFuzzReport { cases, ..LookupFuzzReport::default() };
    for i in 0..cases {
        let case_seed = crate::case_seed(seed, i as u64);
        match run_lookup_case(case_seed) {
            Ok(c) => {
                LOOKUP_AGREE.add(1);
                report.counts.lookups += c.lookups;
                report.counts.hits += c.hits;
                report.counts.like_pairs += c.like_pairs;
            }
            Err(desc) => {
                LOOKUP_DIVERGE.add(1);
                report.failures.push((case_seed, desc));
            }
        }
    }
    report
}
