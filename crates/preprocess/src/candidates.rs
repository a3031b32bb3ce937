//! Value-candidate generation and validation (paper Sections IV-B2, IV-B3).

use crate::ner::{boolean_value, gender_letter, month_number, ordinal_value, ExtractedValue, ValueKind};
use crate::tokenizer::Token;
use valuenet_schema::{ColumnId, ColumnType};
use valuenet_storage::Database;

/// How a candidate was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateSource {
    /// Extracted text found verbatim in the database (or exempt from
    /// validation: numbers and quoted strings).
    Extracted,
    /// Found by Damerau–Levenshtein similarity search; carries the distance.
    Similarity(usize),
    /// An n-gram of a longer extracted span, validated against the database.
    NGram,
    /// Handcrafted heuristic (gender, boolean, ordinal, month wildcard).
    Heuristic,
}

impl CandidateSource {
    /// Ranking priority (lower sorts first).
    fn rank(self) -> usize {
        match self {
            CandidateSource::Extracted => 0,
            CandidateSource::Heuristic => 1,
            CandidateSource::Similarity(d) => 2 + d,
            CandidateSource::NGram => 6,
        }
    }
}

/// A validated value candidate, carrying the columns it was found in — the
/// *location* information the encoder attends over (paper Fig. 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueCandidate {
    /// Candidate text (database spelling when validated).
    pub text: String,
    /// Provenance.
    pub source: CandidateSource,
    /// Columns whose base data contains this candidate.
    pub locations: Vec<ColumnId>,
    /// Whether the candidate is numeric (exempt from validation).
    pub numeric: bool,
}

/// Candidate-pipeline knobs. The defaults mirror the paper; the `enable_*`
/// flags exist for the ablation benchmarks.
#[derive(Debug, Clone)]
pub struct CandidateConfig {
    /// Maximum Damerau–Levenshtein distance for similarity search (further
    /// capped at ~¼ of the query length).
    pub max_distance: usize,
    /// Upper bound on the candidate list handed to the encoder — "too many
    /// of them makes it harder for the model to choose" (Section IV-B3).
    pub max_candidates: usize,
    /// Enable similarity-based generation.
    pub enable_similarity: bool,
    /// Enable n-gram generation for multi-token values.
    pub enable_ngrams: bool,
    /// Enable the handcrafted heuristics.
    pub enable_heuristics: bool,
    /// Enable database validation (disabling keeps every generated
    /// candidate — the ablation the paper discusses in Section IV-B3).
    pub enable_validation: bool,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_distance: 2,
            max_candidates: 12,
            enable_similarity: true,
            enable_ngrams: true,
            enable_heuristics: true,
            enable_validation: true,
        }
    }
}

/// Runs candidate generation + validation for the extracted values.
pub fn generate_candidates(
    extracted: &[ExtractedValue],
    tokens: &[Token],
    db: &Database,
    cfg: &CandidateConfig,
) -> Vec<ValueCandidate> {
    let index = db.index();
    let mut out: Vec<ValueCandidate> = Vec::new();

    let add = |cand: ValueCandidate, out: &mut Vec<ValueCandidate>| {
        let key = cand.text.to_lowercase();
        if let Some(existing) = out.iter_mut().find(|c| c.text.to_lowercase() == key) {
            for l in &cand.locations {
                if !existing.locations.contains(l) {
                    existing.locations.push(*l);
                }
            }
            if cand.source.rank() < existing.source.rank() {
                existing.source = cand.source;
            }
        } else {
            out.push(cand);
        }
    };

    for val in extracted {
        let text = val.text.trim();
        if text.is_empty() {
            continue;
        }
        match val.kind {
            ValueKind::Number => {
                // Numeric values are exempt from validation (Section IV-B3).
                add(
                    ValueCandidate {
                        text: text.to_string(),
                        source: CandidateSource::Extracted,
                        locations: index.find_exact(text),
                        numeric: true,
                    },
                    &mut out,
                );
            }
            ValueKind::Quoted => {
                // Quoted values are exempt too (they may be LIKE fragments).
                add(
                    ValueCandidate {
                        text: text.to_string(),
                        source: CandidateSource::Extracted,
                        locations: index.find_exact(text),
                        numeric: false,
                    },
                    &mut out,
                );
            }
            ValueKind::Ordinal => {
                if cfg.enable_heuristics {
                    if let Some(n) = ordinal_value(&text.to_lowercase()) {
                        add(
                            ValueCandidate {
                                text: n.to_string(),
                                source: CandidateSource::Heuristic,
                                locations: index.find_exact(&n.to_string()),
                                numeric: true,
                            },
                            &mut out,
                        );
                    }
                }
            }
            ValueKind::Month => {
                if cfg.enable_heuristics {
                    if let Some(m) = month_number(&text.to_lowercase()) {
                        for pattern in [format!("%-{m:02}-%"), format!("{m}/%")] {
                            let hits = index.find_like_anywhere(&pattern);
                            if !hits.is_empty() || !cfg.enable_validation {
                                let mut locations: Vec<ColumnId> =
                                    hits.iter().map(|(c, _)| *c).collect();
                                locations.dedup();
                                add(
                                    ValueCandidate {
                                        text: pattern,
                                        source: CandidateSource::Heuristic,
                                        locations,
                                        numeric: false,
                                    },
                                    &mut out,
                                );
                            }
                        }
                    }
                }
            }
            ValueKind::Gender => {
                if cfg.enable_heuristics {
                    if let Some(letter) = gender_letter(&text.to_lowercase()) {
                        let full = if letter == 'F' { "Female" } else { "Male" };
                        for cand in [letter.to_string(), full.to_string()] {
                            let locations = index.find_exact(&cand);
                            if !locations.is_empty() || !cfg.enable_validation {
                                add(
                                    ValueCandidate {
                                        text: cand,
                                        source: CandidateSource::Heuristic,
                                        locations,
                                        numeric: false,
                                    },
                                    &mut out,
                                );
                            }
                        }
                    }
                }
            }
            ValueKind::Boolean => {
                if cfg.enable_heuristics {
                    if let Some(b) = boolean_value(&text.to_lowercase()) {
                        // Booleans are "often implemented by a numeric column
                        // with value 0 and 1"; restrict the location to
                        // boolean-typed columns.
                        let locations: Vec<ColumnId> = db
                            .schema()
                            .columns
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| c.ty == ColumnType::Boolean)
                            .map(|(i, _)| ColumnId(i))
                            .collect();
                        if !locations.is_empty() {
                            add(
                                ValueCandidate {
                                    text: b.to_string(),
                                    source: CandidateSource::Heuristic,
                                    locations,
                                    numeric: true,
                                },
                                &mut out,
                            );
                        }
                    }
                }
            }
            ValueKind::Capitalized | ValueKind::SingleLetter | ValueKind::Statistical => {
                // Text values: exact validation, similarity, n-grams.
                let exact_locs = index.find_exact(text);
                if !exact_locs.is_empty() {
                    add(
                        ValueCandidate {
                            text: text.to_string(),
                            source: CandidateSource::Extracted,
                            locations: exact_locs,
                            numeric: false,
                        },
                        &mut out,
                    );
                } else if !cfg.enable_validation {
                    add(
                        ValueCandidate {
                            text: text.to_string(),
                            source: CandidateSource::Extracted,
                            locations: Vec::new(),
                            numeric: false,
                        },
                        &mut out,
                    );
                }
                if cfg.enable_similarity && val.kind != ValueKind::SingleLetter {
                    let cap = cfg.max_distance.min((text.chars().count() / 3).max(1));
                    for hit in index.find_similar(text, cap) {
                        if hit.distance == 0 {
                            continue; // already covered by exact
                        }
                        add(
                            ValueCandidate {
                                text: hit.value.clone(),
                                source: CandidateSource::Similarity(hit.distance),
                                locations: vec![hit.column],
                                numeric: false,
                            },
                            &mut out,
                        );
                    }
                }
                if cfg.enable_ngrams {
                    let words: Vec<&str> = text.split_whitespace().collect();
                    if words.len() > 1 {
                        for n in (1..words.len()).rev() {
                            for gram in words.windows(n) {
                                let g = gram.join(" ");
                                let locs = index.find_exact(&g);
                                if !locs.is_empty() {
                                    add(
                                        ValueCandidate {
                                            text: g,
                                            source: CandidateSource::NGram,
                                            locations: locs,
                                            numeric: false,
                                        },
                                        &mut out,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Acronym heuristic for long capitalized spans ("John F Kennedy
    // International Airport" → "JFK"): initial letters of content words.
    if cfg.enable_heuristics {
        for val in extracted {
            if val.kind != ValueKind::Capitalized {
                continue;
            }
            let words: Vec<&str> = val.text.split_whitespace().collect();
            if words.len() >= 3 {
                for take in [words.len(), 3] {
                    let acro: String = words
                        .iter()
                        .take(take)
                        .filter_map(|w| w.chars().next())
                        .collect::<String>()
                        .to_uppercase();
                    if acro.len() >= 2 {
                        let locs = index.find_exact(&acro);
                        if !locs.is_empty() {
                            add(
                                ValueCandidate {
                                    text: acro,
                                    source: CandidateSource::Heuristic,
                                    locations: locs,
                                    numeric: false,
                                },
                                &mut out,
                            );
                        }
                    }
                }
            }
        }
    }

    // `tokens` is unused; the parameter stays for the callers that pass it.
    let _ = tokens;
    out.sort_by_key(|c| c.source.rank());
    out.truncate(cfg.max_candidates);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ner::{HeuristicNer, Ner};
    use crate::tokenizer::tokenize_question;
    use valuenet_schema::SchemaBuilder;
    use valuenet_storage::Datum;

    fn flights_db() -> Database {
        let schema = SchemaBuilder::new("flights")
            .table(
                "flight",
                &[
                    ("flight_id", ColumnType::Number),
                    ("destination", ColumnType::Text),
                    ("duration", ColumnType::Number),
                    ("departure_date", ColumnType::Time),
                ],
            )
            .table(
                "student",
                &[
                    ("stu_id", ColumnType::Number),
                    ("name", ColumnType::Text),
                    ("gender", ColumnType::Text),
                    ("home_country", ColumnType::Text),
                ],
            )
            .table(
                "language",
                &[("name", ColumnType::Text), ("is_official", ColumnType::Boolean)],
            )
            .build();
        let mut db = Database::new(schema);
        let flight = db.schema().table_by_name("flight").unwrap();
        let student = db.schema().table_by_name("student").unwrap();
        let language = db.schema().table_by_name("language").unwrap();
        db.insert(flight, vec![1.into(), "JFK".into(), 6.into(), "2010-08-09".into()]);
        db.insert(flight, vec![2.into(), "LAX".into(), 3.into(), "2010-09-01".into()]);
        db.insert(student, vec![1.into(), "Alice".into(), "F".into(), "France".into()]);
        db.insert(student, vec![2.into(), "Bob".into(), "M".into(), "Germany".into()]);
        db.insert(language, vec!["English".into(), Datum::Int(1)]);
        db.rebuild_index();
        db
    }

    fn candidates(q: &str, db: &Database) -> Vec<ValueCandidate> {
        let tokens = tokenize_question(q);
        let extracted = HeuristicNer.extract(q, &tokens);
        generate_candidates(&extracted, &tokens, db, &CandidateConfig::default())
    }

    fn texts(cands: &[ValueCandidate]) -> Vec<&str> {
        cands.iter().map(|c| c.text.as_str()).collect()
    }

    #[test]
    fn acronym_resolves_airport_name() {
        // The paper's Fig. 4 example: the DB stores 'JFK'.
        let db = flights_db();
        let cands = candidates(
            "Find all routes that have destination John F Kennedy International Airport with a duration of more than 6 hours",
            &db,
        );
        assert!(texts(&cands).contains(&"JFK"), "{cands:?}");
        assert!(texts(&cands).contains(&"6"), "{cands:?}");
        // JFK's location must be the destination column.
        let jfk = cands.iter().find(|c| c.text == "JFK").unwrap();
        let dest =
            db.schema().any_column_by_name("destination").map(|(_, c)| c).unwrap();
        assert!(jfk.locations.contains(&dest));
    }

    #[test]
    fn similarity_recovers_misspelling() {
        let db = flights_db();
        let cands = candidates("students from Frence", &db);
        assert!(texts(&cands).contains(&"France"), "{cands:?}");
        let france = cands.iter().find(|c| c.text == "France").unwrap();
        assert!(matches!(france.source, CandidateSource::Similarity(1)));
    }

    #[test]
    fn gender_heuristic() {
        let db = flights_db();
        let cands = candidates("How many female students are there?", &db);
        assert!(texts(&cands).contains(&"F"), "{cands:?}");
        // "Female" is not in this database, so validation prunes it.
        assert!(!texts(&cands).contains(&"Female"), "{cands:?}");
    }

    #[test]
    fn boolean_heuristic_targets_boolean_columns() {
        let db = flights_db();
        let cands = candidates("Which languages are official?", &db);
        let one = cands.iter().find(|c| c.text == "1").expect("boolean candidate");
        let official = db.schema().any_column_by_name("is_official").map(|(_, c)| c).unwrap();
        assert_eq!(one.locations, vec![official]);
    }

    #[test]
    fn month_heuristic_builds_wildcard() {
        let db = flights_db();
        let cands = candidates("Which flights left in August?", &db);
        assert!(texts(&cands).contains(&"%-08-%"), "{cands:?}");
    }

    #[test]
    fn ordinal_heuristic() {
        let db = flights_db();
        let cands = candidates("Report students in the fourth grade", &db);
        assert!(texts(&cands).contains(&"4"), "{cands:?}");
        let four = cands.iter().find(|c| c.text == "4").unwrap();
        assert!(four.numeric);
    }

    #[test]
    fn numbers_survive_without_validation() {
        // "top 3" — 3 is not in the database but must remain a candidate.
        let db = flights_db();
        let cands = candidates("List the top 3 destinations", &db);
        assert!(texts(&cands).contains(&"3"), "{cands:?}");
    }

    #[test]
    fn quoted_values_survive_without_validation() {
        let db = flights_db();
        let cands = candidates("Find all albums starting with 'goodbye'", &db);
        assert!(texts(&cands).contains(&"goodbye"), "{cands:?}");
    }

    #[test]
    fn unvalidated_text_is_dropped() {
        let db = flights_db();
        let cands = candidates("students from Atlantis", &db);
        assert!(!texts(&cands).contains(&"Atlantis"), "{cands:?}");
    }

    #[test]
    fn validation_ablation_keeps_everything() {
        let db = flights_db();
        let tokens = tokenize_question("students from Atlantis");
        let extracted = HeuristicNer.extract("students from Atlantis", &tokens);
        let cfg = CandidateConfig { enable_validation: false, ..Default::default() };
        let cands = generate_candidates(&extracted, &tokens, &db, &cfg);
        assert!(texts(&cands).contains(&"Atlantis"), "{cands:?}");
    }

    #[test]
    fn candidate_cap_respected() {
        let db = flights_db();
        let tokens = tokenize_question(
            "Alice Bob France Germany English JFK LAX on 2010-08-09 2010-09-01 6 3 1 2",
        );
        let extracted = HeuristicNer.extract("", &tokens);
        let cfg = CandidateConfig { max_candidates: 4, ..Default::default() };
        let cands = generate_candidates(&extracted, &tokens, &db, &cfg);
        assert!(cands.len() <= 4);
    }

    #[test]
    fn duplicate_candidates_merge_locations() {
        let db = flights_db();
        let cands = candidates("flights to JFK JFK", &db);
        let n = cands.iter().filter(|c| c.text == "JFK").count();
        assert_eq!(n, 1);
    }
}
