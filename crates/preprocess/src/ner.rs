//! Named-entity recognition for value extraction (paper Section IV-B1).
//!
//! Two backends behind the [`Ner`] trait:
//!
//! - [`HeuristicNer`] — the paper's deterministic heuristics: quoted content,
//!   capitalised term sequences, single letters, plus numbers, date-like
//!   tokens, ordinal words and month names.
//! - [`StatisticalNer`] — a trainable character-n-gram naive Bayes token
//!   classifier, the laptop-scale stand-in for the paper's transformer NER
//!   (and its commercial NER API); it learns which token shapes are values
//!   from the training corpus and is combined with the heuristics, exactly
//!   as the paper augments its stochastic model.

use crate::tokenizer::Token;
use std::collections::HashMap;
use valuenet_obs::json::Json;

/// How an extracted value was recognised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// Inside quotes (`'Ha'`).
    Quoted,
    /// A run of capitalised terms (`John F Kennedy International Airport`).
    Capitalized,
    /// A single letter (`M`).
    SingleLetter,
    /// A number (possibly a date or time).
    Number,
    /// An ordinal word or suffix form (`fourth`, `9th`).
    Ordinal,
    /// A month name (`August`).
    Month,
    /// A gendered word (`female`).
    Gender,
    /// A boolean-ish word (`true`, `official`).
    Boolean,
    /// Flagged by the statistical model.
    Statistical,
}

/// A potential value span extracted from the question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedValue {
    /// The raw text of the span.
    pub text: String,
    /// How it was recognised.
    pub kind: ValueKind,
}

/// A value extractor.
pub trait Ner {
    /// Extracts potential value spans from a question.
    fn extract(&self, question: &str, tokens: &[Token]) -> Vec<ExtractedValue>;
}

/// Common English stopwords never treated as values on their own.
const STOPWORDS: &[&str] = &[
    "the", "a", "an", "of", "in", "on", "at", "for", "to", "by", "with", "and", "or", "is",
    "are", "was", "were", "be", "been", "who", "whose", "which", "what", "when", "where", "how",
    "many", "much", "all", "each", "every", "show", "find", "list", "give", "me", "their",
    "than", "that", "have", "has", "had", "do", "does", "did", "not", "from", "as", "it",
    "its", "there", "please", "tell", "return", "report", "display", "whats", "number",
];

const ORDINALS: &[(&str, i64)] = &[
    ("first", 1),
    ("second", 2),
    ("third", 3),
    ("fourth", 4),
    ("fifth", 5),
    ("sixth", 6),
    ("seventh", 7),
    ("eighth", 8),
    ("ninth", 9),
    ("tenth", 10),
    ("eleventh", 11),
    ("twelfth", 12),
];

const MONTHS: &[(&str, u32)] = &[
    ("january", 1),
    ("february", 2),
    ("march", 3),
    ("april", 4),
    ("may", 5),
    ("june", 6),
    ("july", 7),
    ("august", 8),
    ("september", 9),
    ("october", 10),
    ("november", 11),
    ("december", 12),
];

const FEMALE_WORDS: &[&str] = &["female", "females", "woman", "women", "girl", "girls"];
const MALE_WORDS: &[&str] = &["male", "males", "man", "men", "boy", "boys"];
const TRUE_WORDS: &[&str] = &["true", "yes", "official"];
const FALSE_WORDS: &[&str] = &["false", "no", "unofficial"];

/// Looks up an ordinal word (`fourth`) or suffix form (`4th`, `fourth-grade`).
pub(crate) fn ordinal_value(lower: &str) -> Option<i64> {
    let base = lower.split('-').next().unwrap_or(lower);
    if let Some(&(_, n)) = ORDINALS.iter().find(|(w, _)| *w == base) {
        return Some(n);
    }
    let digits: String = base.chars().take_while(|c| c.is_ascii_digit()).collect();
    let rest = &base[digits.len()..];
    if !digits.is_empty() && matches!(rest, "st" | "nd" | "rd" | "th") {
        return digits.parse().ok();
    }
    None
}

/// Looks up a month name.
pub(crate) fn month_number(lower: &str) -> Option<u32> {
    MONTHS.iter().find(|(m, _)| *m == lower).map(|&(_, n)| n)
}

pub(crate) fn gender_letter(lower: &str) -> Option<char> {
    if FEMALE_WORDS.contains(&lower) {
        Some('F')
    } else if MALE_WORDS.contains(&lower) {
        Some('M')
    } else {
        None
    }
}

pub(crate) fn boolean_value(lower: &str) -> Option<i64> {
    if TRUE_WORDS.contains(&lower) {
        Some(1)
    } else if FALSE_WORDS.contains(&lower) {
        Some(0)
    } else {
        None
    }
}

/// The paper's deterministic extraction heuristics.
#[derive(Debug, Default, Clone)]
pub struct HeuristicNer;

impl HeuristicNer {
    /// A new heuristic extractor.
    pub fn new() -> Self {
        HeuristicNer
    }
}

impl Ner for HeuristicNer {
    fn extract(&self, _question: &str, tokens: &[Token]) -> Vec<ExtractedValue> {
        let mut out: Vec<ExtractedValue> = Vec::new();
        let push = |text: String, kind: ValueKind, out: &mut Vec<ExtractedValue>| {
            if !out.iter().any(|v| v.text == text && v.kind == kind) {
                out.push(ExtractedValue { text, kind });
            }
        };
        // (1) Quoted content.
        for t in tokens {
            if t.quoted {
                push(t.text.clone(), ValueKind::Quoted, &mut out);
            }
        }
        // (2) Capitalised sequences (skipping the sentence-initial token,
        //     which is capitalised for grammatical reasons).
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            let eligible = !t.quoted
                && i > 0
                && t.is_capitalized()
                && !STOPWORDS.contains(&t.lower.as_str());
            if eligible {
                let start = i;
                // Allow single lowercase connectives ("of") inside a run.
                let mut end = i + 1;
                while end < tokens.len() {
                    let n = &tokens[end];
                    let run_word = !n.quoted
                        && n.is_capitalized()
                        && !STOPWORDS.contains(&n.lower.as_str());
                    // Single lowercase connectives ("of") may join a run.
                    let connective = end + 1 < tokens.len()
                        && matches!(n.lower.as_str(), "of" | "de" | "f")
                        && tokens[end + 1].is_capitalized();
                    if run_word || connective {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let words: Vec<&str> = tokens[start..end].iter().map(|t| t.text.as_str()).collect();
                push(words.join(" "), ValueKind::Capitalized, &mut out);
                i = end;
            } else {
                i += 1;
            }
        }
        // (3) Single letters.
        for (i, t) in tokens.iter().enumerate() {
            if !t.quoted && t.is_single_letter() && i > 0 && t.text != "a" && t.text != "A" && t.text != "I" {
                push(t.text.clone(), ValueKind::SingleLetter, &mut out);
            }
        }
        // Numbers, dates, times.
        for t in tokens.iter() {
            let numeric_like = t.text.chars().any(|c| c.is_ascii_digit())
                && t.text.chars().all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '/' | ':'));
            if !t.quoted && numeric_like && ordinal_value(&t.lower).is_none() {
                push(t.text.clone(), ValueKind::Number, &mut out);
            }
        }
        // Ordinals, months, genders, booleans.
        for t in tokens {
            if t.quoted {
                continue;
            }
            if ordinal_value(&t.lower).is_some() {
                push(t.text.clone(), ValueKind::Ordinal, &mut out);
            }
            if month_number(&t.lower).is_some() && t.is_capitalized() {
                push(t.text.clone(), ValueKind::Month, &mut out);
            }
            if gender_letter(&t.lower).is_some() {
                push(t.text.clone(), ValueKind::Gender, &mut out);
            }
            if boolean_value(&t.lower).is_some() {
                push(t.text.clone(), ValueKind::Boolean, &mut out);
            }
        }
        out
    }
}

/// A character-n-gram naive Bayes token classifier: the trainable NER.
///
/// Features are the token's character trigrams plus shape features
/// (capitalised / digit / length bucket). Trained on (token, is-value)
/// pairs extracted from a labelled corpus.
#[derive(Debug, Clone, Default)]
pub struct StatisticalNer {
    value_counts: HashMap<String, f64>,
    other_counts: HashMap<String, f64>,
    value_total: f64,
    other_total: f64,
    value_docs: f64,
    other_docs: f64,
}

impl StatisticalNer {
    /// An untrained model (extracts nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any training examples have been observed.
    pub fn is_trained(&self) -> bool {
        self.value_docs + self.other_docs > 0.0
    }

    /// The trained counts as the model file's `ner` field, features sorted
    /// so equal models write equal bytes.
    pub fn to_json(&self) -> Json {
        let counts = |m: &HashMap<String, f64>| {
            let mut entries: Vec<(&String, &f64)> = m.iter().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            Json::Obj(entries.into_iter().map(|(f, &c)| (f.clone(), Json::Num(c))).collect())
        };
        Json::obj(vec![
            ("value_counts", counts(&self.value_counts)),
            ("other_counts", counts(&self.other_counts)),
            ("value_total", Json::Num(self.value_total)),
            ("other_total", Json::Num(self.other_total)),
            ("value_docs", Json::Num(self.value_docs)),
            ("other_docs", Json::Num(self.other_docs)),
        ])
    }

    /// Reads the counts [`StatisticalNer::to_json`] writes. Every count is
    /// a tally of observations, so each must be a non-negative integer.
    ///
    /// # Errors
    /// Names the first missing field or malformed count.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let count = |key: &str| v.field(key, "a non-negative integer", Json::as_u64);
        let counts = |key: &str| -> Result<HashMap<String, f64>, String> {
            let Some(Json::Obj(entries)) = v.get(key) else {
                return Err(format!("field `{key}`: expected an object of counts"));
            };
            let mut map = HashMap::with_capacity(entries.len());
            for (feature, c) in entries {
                let c = c.as_u64().ok_or_else(|| {
                    format!("`{key}`: count of `{feature}` is not a non-negative integer")
                })?;
                if map.insert(feature.clone(), c as f64).is_some() {
                    return Err(format!("`{key}`: `{feature}` is listed twice"));
                }
            }
            Ok(map)
        };
        Ok(StatisticalNer {
            value_counts: counts("value_counts")?,
            other_counts: counts("other_counts")?,
            value_total: count("value_total")? as f64,
            other_total: count("other_total")? as f64,
            value_docs: count("value_docs")? as f64,
            other_docs: count("other_docs")? as f64,
        })
    }

    fn features(token: &Token) -> Vec<String> {
        let mut feats = Vec::new();
        let padded = format!("^{}$", token.lower);
        let chars: Vec<char> = padded.chars().collect();
        for w in chars.windows(3) {
            feats.push(w.iter().collect());
        }
        if token.is_capitalized() {
            feats.push("<cap>".into());
        }
        if token.is_numeric() {
            feats.push("<num>".into());
        }
        if token.is_single_letter() {
            feats.push("<single>".into());
        }
        feats.push(format!("<len{}>", token.text.len().min(10)));
        feats
    }

    /// Observes one labelled token.
    pub fn observe(&mut self, token: &Token, is_value: bool) {
        let (counts, total, docs) = if is_value {
            (&mut self.value_counts, &mut self.value_total, &mut self.value_docs)
        } else {
            (&mut self.other_counts, &mut self.other_total, &mut self.other_docs)
        };
        for f in Self::features(token) {
            *counts.entry(f).or_insert(0.0) += 1.0;
            *total += 1.0;
        }
        *docs += 1.0;
    }

    /// Trains from whole questions with their known value texts.
    pub fn fit(&mut self, examples: &[(Vec<Token>, Vec<String>)]) {
        for (tokens, values) in examples {
            let value_words: Vec<String> = values
                .iter()
                .flat_map(|v| v.to_lowercase().split_whitespace().map(str::to_string).collect::<Vec<_>>())
                .collect();
            for t in tokens {
                self.observe(t, value_words.contains(&t.lower));
            }
        }
    }

    /// Posterior probability that `token` is (part of) a value.
    pub fn score(&self, token: &Token) -> f64 {
        if !self.is_trained() {
            return 0.0;
        }
        let vocab = (self.value_counts.len() + self.other_counts.len()) as f64 + 1.0;
        let mut log_v = (self.value_docs / (self.value_docs + self.other_docs)).ln();
        let mut log_o = (self.other_docs / (self.value_docs + self.other_docs)).ln();
        for f in Self::features(token) {
            let cv = self.value_counts.get(&f).copied().unwrap_or(0.0);
            let co = self.other_counts.get(&f).copied().unwrap_or(0.0);
            log_v += ((cv + 1.0) / (self.value_total + vocab)).ln();
            log_o += ((co + 1.0) / (self.other_total + vocab)).ln();
        }
        1.0 / (1.0 + (log_o - log_v).exp())
    }
}

impl Ner for StatisticalNer {
    fn extract(&self, question: &str, tokens: &[Token]) -> Vec<ExtractedValue> {
        // Heuristics first (the paper augments the stochastic model with
        // them), then statistically flagged tokens.
        let mut out = HeuristicNer.extract(question, tokens);
        for t in tokens {
            if t.quoted || STOPWORDS.contains(&t.lower.as_str()) {
                continue;
            }
            if self.score(t) > 0.5 && !out.iter().any(|v| v.text == t.text) {
                out.push(ExtractedValue { text: t.text.clone(), kind: ValueKind::Statistical });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize_question;

    fn extract(q: &str) -> Vec<ExtractedValue> {
        let tokens = tokenize_question(q);
        HeuristicNer.extract(q, &tokens)
    }

    fn has(vals: &[ExtractedValue], text: &str, kind: ValueKind) -> bool {
        vals.iter().any(|v| v.text == text && v.kind == kind)
    }

    #[test]
    fn quoted_content() {
        let vals = extract("Whose head's name has the substring 'Ha'?");
        assert!(has(&vals, "Ha", ValueKind::Quoted), "{vals:?}");
    }

    #[test]
    fn capitalized_sequences() {
        let vals = extract("Show all flight numbers with aircraft Airbus A340-300.");
        assert!(has(&vals, "Airbus A340-300", ValueKind::Capitalized), "{vals:?}");
        let vals =
            extract("Find all routes that have destination John F Kennedy International Airport");
        assert!(
            has(&vals, "John F Kennedy International Airport", ValueKind::Capitalized),
            "{vals:?}"
        );
    }

    #[test]
    fn sentence_initial_capital_skipped() {
        let vals = extract("Show all students.");
        assert!(!vals.iter().any(|v| v.text == "Show"), "{vals:?}");
    }

    #[test]
    fn single_letters() {
        let vals = extract("employees whose first name does not contain the letter M");
        assert!(has(&vals, "M", ValueKind::SingleLetter), "{vals:?}");
        // "a" and "I" are never value letters.
        let vals = extract("students with a pet that I like");
        assert!(!vals.iter().any(|v| v.kind == ValueKind::SingleLetter), "{vals:?}");
    }

    #[test]
    fn numbers_and_dates() {
        let vals = extract("pets older than 20 born on 2010-08-09");
        assert!(has(&vals, "20", ValueKind::Number), "{vals:?}");
        assert!(has(&vals, "2010-08-09", ValueKind::Number), "{vals:?}");
    }

    #[test]
    fn ordinals_months_gender_boolean() {
        let vals = extract("total students in each fourth-grade classroom");
        assert!(has(&vals, "fourth-grade", ValueKind::Ordinal), "{vals:?}");
        let vals = extract("trips starting from the 9th of August 2010");
        assert!(has(&vals, "9th", ValueKind::Ordinal), "{vals:?}");
        assert!(has(&vals, "August", ValueKind::Month), "{vals:?}");
        let vals = extract("Find all female students who study 'biology'");
        assert!(has(&vals, "female", ValueKind::Gender), "{vals:?}");
        assert!(has(&vals, "biology", ValueKind::Quoted), "{vals:?}");
        let vals = extract("nations where English is an official language");
        assert!(has(&vals, "official", ValueKind::Boolean), "{vals:?}");
        assert!(has(&vals, "English", ValueKind::Capitalized), "{vals:?}");
    }

    #[test]
    fn ordinal_parsing() {
        assert_eq!(ordinal_value("fourth"), Some(4));
        assert_eq!(ordinal_value("fourth-grade"), Some(4));
        assert_eq!(ordinal_value("9th"), Some(9));
        assert_eq!(ordinal_value("1st"), Some(1));
        assert_eq!(ordinal_value("22nd"), Some(22));
        assert_eq!(ordinal_value("month"), None);
        assert_eq!(ordinal_value("4"), None);
    }

    #[test]
    fn statistical_ner_learns_value_shapes() {
        let mut ner = StatisticalNer::new();
        assert!(!ner.is_trained());
        // Train: airport codes and country names are values; verbs are not.
        let examples: Vec<(Vec<Token>, Vec<String>)> = [
            ("show flights to JFK", vec!["JFK"]),
            ("flights to LAX today", vec!["LAX"]),
            ("students from France", vec!["France"]),
            ("students from Germany", vec!["Germany"]),
            ("list pets by weight", vec![]),
            ("count all students", vec![]),
            ("show the flights", vec![]),
        ]
        .into_iter()
        .map(|(q, vs)| {
            (tokenize_question(q), vs.into_iter().map(str::to_string).collect())
        })
        .collect();
        ner.fit(&examples);
        assert!(ner.is_trained());
        let toks = tokenize_question("what flights go to SFO");
        let sfo = toks.iter().find(|t| t.text == "SFO").unwrap();
        let go = toks.iter().find(|t| t.text == "go").unwrap();
        assert!(ner.score(sfo) > ner.score(go), "SFO should look more value-like than 'go'");
    }

    #[test]
    fn statistical_ner_json_round_trip_is_exact() {
        let mut ner = StatisticalNer::new();
        let examples = [("flights to JFK", "JFK"), ("students from France", "France")]
            .map(|(q, v)| (tokenize_question(q), vec![v.to_string()]));
        ner.fit(&examples);
        let text = ner.to_json().render();
        let back = StatisticalNer::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.value_counts, ner.value_counts);
        assert_eq!(back.other_counts, ner.other_counts);
        assert_eq!(back.to_json().render(), text, "features are written in sorted order");
        let tok = &tokenize_question("to SFO")[1];
        assert_eq!(back.score(tok).to_bits(), ner.score(tok).to_bits());

        for (bad, why) in [("2.7", "fractional"), ("-1", "negative")] {
            let text = text.replacen("\"value_docs\":2", &format!("\"value_docs\":{bad}"), 1);
            let err = StatisticalNer::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("value_docs"), "{why} count: {err}");
        }
    }
}
