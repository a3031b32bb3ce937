//! Corpus assembly: domain construction, sampling, validation, splitting.

use crate::domains::{all_domains, NUM_TRAIN_DOMAINS};
use crate::spec::{DomainSpec, ValueInfo};
use crate::templates::{templates_by_value_count, TemplateCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use valuenet_eval::{spider_difficulty, Difficulty};
use valuenet_exec::execute;
use valuenet_obs::json::Json;
use valuenet_schema::SchemaGraph;
use valuenet_semql::{to_sql, ResolvedValue, SemQl};
use valuenet_storage::Database;

/// Corpus generation knobs.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Random seed (databases and questions are fully determined by it).
    pub seed: u64,
    /// Number of training questions.
    pub train_size: usize,
    /// Number of dev questions (over the unseen databases).
    pub dev_size: usize,
    /// Approximate rows per table in each database.
    pub rows_per_table: usize,
    /// Sampling weights for the value-surface difficulty classes
    /// (Easy, Medium, Hard, Extra-hard). The default mirrors Spider's
    /// easy-heavy mix; biasing towards the harder classes reproduces the
    /// paper's light-vs-full gap (Section V-E).
    pub surface_weights: [u32; 4],
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 42,
            train_size: 2000,
            dev_size: 300,
            rows_per_table: 30,
            surface_weights: DEFAULT_SURFACE_WEIGHTS,
        }
    }
}

impl CorpusConfig {
    /// The config as the model file's `corpus` field. The seed is exact over
    /// the whole `u64` range (see [`Json::uint`]).
    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::uint(v as u64);
        let weights = self.surface_weights.iter().map(|&w| Json::Int(w.into())).collect();
        Json::obj(vec![
            ("seed", Json::uint(self.seed)),
            ("train_size", n(self.train_size)),
            ("dev_size", n(self.dev_size)),
            ("rows_per_table", n(self.rows_per_table)),
            ("surface_weights", Json::Arr(weights)),
        ])
    }

    /// Reads the fields [`CorpusConfig::to_json`] writes; each one is
    /// required.
    ///
    /// # Errors
    /// Names the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let weight = |w: &Json| w.as_u64().and_then(|w| u32::try_from(w).ok());
        let weights = |list: &[Json]| list.iter().map(weight).collect::<Option<Vec<u32>>>();
        let surface_weights = v.field("surface_weights", "four 32-bit counts", |w| {
            weights(w.as_arr()?)?.try_into().ok()
        })?;
        Ok(CorpusConfig {
            seed: v.field("seed", "a non-negative integer", Json::as_u64)?,
            train_size: v.usize_field("train_size")?,
            dev_size: v.usize_field("dev_size")?,
            rows_per_table: v.usize_field("rows_per_table")?,
            surface_weights,
        })
    }

    /// A tiny configuration for fast tests.
    pub fn tiny() -> Self {
        CorpusConfig {
            seed: 7,
            train_size: 120,
            dev_size: 40,
            rows_per_table: 16,
            surface_weights: DEFAULT_SURFACE_WEIGHTS,
        }
    }
}

/// One question/query pair.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into [`Corpus::databases`].
    pub db_index: usize,
    /// Database id.
    pub db_id: String,
    /// The natural-language question.
    pub question: String,
    /// Gold SQL text.
    pub sql: String,
    /// Gold SemQL tree.
    pub semql: SemQl,
    /// Gold value texts in `ValueRef` order.
    pub values: Vec<String>,
    /// Per-value provenance.
    pub value_infos: Vec<ValueInfo>,
    /// Spider difficulty of the gold query.
    pub difficulty: Difficulty,
}

impl Sample {
    /// Number of question-visible (non-implicit) values — what the paper's
    /// Fig. 9 counts.
    pub fn num_question_values(&self) -> usize {
        self.value_infos.iter().filter(|v| !v.implicit).count()
    }
}

/// A generated corpus.
pub struct Corpus {
    /// All databases (train domains first).
    pub databases: Vec<Database>,
    /// The domain metadata, parallel to `databases`.
    pub specs: Vec<DomainSpec>,
    /// Training samples (databases `0..NUM_TRAIN_DOMAINS`).
    pub train: Vec<Sample>,
    /// Dev samples over the unseen databases.
    pub dev: Vec<Sample>,
}

impl Corpus {
    /// The database a sample runs against.
    pub fn db(&self, sample: &Sample) -> &Database {
        &self.databases[sample.db_index]
    }
}

/// Target value-count distribution: the paper's Fig. 9 fractions of the
/// 7,000-question train split (3469 / 2494 / 945 / 62 / 30).
const VALUE_COUNT_WEIGHTS: [u32; 5] = [3469, 2494, 945, 62, 30];

/// Default surface-difficulty weights (Easy / Medium / Hard / Extra-hard).
pub const DEFAULT_SURFACE_WEIGHTS: [u32; 4] = [60, 20, 15, 5];

/// Generates the full corpus.
pub fn generate(cfg: &CorpusConfig) -> Corpus {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let specs = all_domains(&mut rng, cfg.rows_per_table);
    let databases: Vec<Database> = specs
        .iter()
        .map(|s| Database::with_rows(s.schema.clone(), s.rows.clone()))
        .collect();
    let graphs: Vec<SchemaGraph> = specs.iter().map(|s| SchemaGraph::new(&s.schema)).collect();

    let train = generate_split(
        &mut rng,
        &specs[..NUM_TRAIN_DOMAINS],
        &databases[..NUM_TRAIN_DOMAINS],
        &graphs[..NUM_TRAIN_DOMAINS],
        0,
        cfg.train_size,
        cfg.surface_weights,
    );
    let dev = generate_split(
        &mut rng,
        &specs[NUM_TRAIN_DOMAINS..],
        &databases[NUM_TRAIN_DOMAINS..],
        &graphs[NUM_TRAIN_DOMAINS..],
        NUM_TRAIN_DOMAINS,
        cfg.dev_size,
        cfg.surface_weights,
    );
    Corpus { databases, specs, train, dev }
}

fn generate_split(
    rng: &mut SmallRng,
    specs: &[DomainSpec],
    databases: &[Database],
    graphs: &[SchemaGraph],
    db_offset: usize,
    size: usize,
    surface_weights: [u32; 4],
) -> Vec<Sample> {
    let buckets = templates_by_value_count();
    let total_weight: u32 = VALUE_COUNT_WEIGHTS.iter().sum();
    let mut out = Vec::with_capacity(size);
    let mut attempts = 0usize;
    while out.len() < size {
        attempts += 1;
        assert!(
            attempts < size * 200 + 10_000,
            "corpus generation is not converging ({}/{size} after {attempts} attempts)",
            out.len()
        );
        // 1. Pick a value-count bucket by the Fig. 9 distribution, then a
        //    template and a domain.
        let mut roll = rng.gen_range(0..total_weight);
        let mut bucket = 0;
        for (i, &w) in VALUE_COUNT_WEIGHTS.iter().enumerate() {
            if roll < w {
                bucket = i;
                break;
            }
            roll -= w;
        }
        let template = buckets[bucket][rng.gen_range(0..buckets[bucket].len())];
        let di = rng.gen_range(0..specs.len());
        let ctx = TemplateCtx { spec: &specs[di], db: &databases[di], surface_weights };
        let Some(draft) = template(&ctx, rng) else { continue };

        // 2. Lower the gold tree and validate by executing it — every
        //    emitted sample is runnable by construction.
        let values: Vec<ResolvedValue> =
            draft.values.iter().map(ResolvedValue::new).collect();
        let Ok(stmt) = to_sql(&draft.semql, &specs[di].schema, &graphs[di], &values) else {
            continue;
        };
        if execute(&databases[di], &stmt).is_err() {
            continue;
        }
        let difficulty = spider_difficulty(&stmt);
        out.push(Sample {
            db_index: db_offset + di,
            db_id: specs[di].schema.db_id.clone(),
            question: draft.question,
            sql: stmt.to_string(),
            semql: draft.semql,
            values: draft.values,
            value_infos: draft.value_infos,
            difficulty,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use valuenet_sql::parse_select;

    fn tiny() -> Corpus {
        generate(&CorpusConfig::tiny())
    }

    #[test]
    fn corpus_has_requested_sizes_and_disjoint_dbs() {
        let c = tiny();
        assert_eq!(c.train.len(), 120);
        assert_eq!(c.dev.len(), 40);
        assert_eq!(c.databases.len(), 14);
        let train_dbs: std::collections::BTreeSet<&str> =
            c.train.iter().map(|s| s.db_id.as_str()).collect();
        let dev_dbs: std::collections::BTreeSet<&str> =
            c.dev.iter().map(|s| s.db_id.as_str()).collect();
        assert!(train_dbs.is_disjoint(&dev_dbs), "train/dev databases overlap");
        assert!(dev_dbs.len() >= 2, "dev should span several unseen databases");
    }

    #[test]
    fn every_sample_parses_and_executes() {
        let c = tiny();
        for s in c.train.iter().chain(&c.dev) {
            let stmt = parse_select(&s.sql)
                .unwrap_or_else(|e| panic!("gold SQL unparsable: {} ({e})", s.sql));
            execute(c.db(s), &stmt)
                .unwrap_or_else(|e| panic!("gold SQL fails to run: {} ({e})", s.sql));
        }
    }

    #[test]
    fn gold_semql_round_trips_through_actions() {
        use valuenet_semql::{actions_to_ast, ast_to_actions};
        let c = tiny();
        for s in c.train.iter().take(60) {
            let actions = ast_to_actions(&s.semql);
            assert_eq!(actions_to_ast(&actions).unwrap(), s.semql, "sample: {}", s.question);
        }
    }

    #[test]
    fn value_distribution_shape_matches_fig9() {
        let c = generate(&CorpusConfig { train_size: 1500, ..CorpusConfig::tiny() });
        let mut counts = [0usize; 5];
        for s in &c.train {
            counts[s.num_question_values().min(4)] += 1;
        }
        let total = c.train.len() as f64;
        // Roughly half the questions carry no value, one-value questions are
        // the biggest value bucket, counts fall off monotonically.
        assert!((counts[0] as f64 / total - 0.50).abs() < 0.08, "{counts:?}");
        assert!((counts[1] as f64 / total - 0.36).abs() < 0.08, "{counts:?}");
        assert!(counts[1] > counts[2], "{counts:?}");
        assert!(counts[2] > counts[3], "{counts:?}");
        assert!(counts[3] + counts[4] > 0, "tail buckets must be populated: {counts:?}");
    }

    #[test]
    fn values_match_semql_references() {
        let c = tiny();
        for s in c.train.iter().chain(&c.dev) {
            let refs = s.semql.value_refs();
            assert_eq!(refs.len(), s.values.len(), "sample: {}", s.question);
            for r in refs {
                assert!(r.0 < s.values.len(), "dangling ValueRef in {}", s.question);
            }
            assert_eq!(s.values.len(), s.value_infos.len());
        }
    }

    #[test]
    fn question_surfaces_appear_in_questions() {
        let c = tiny();
        for s in c.train.iter().chain(&c.dev) {
            for vi in &s.value_infos {
                if !vi.implicit {
                    assert!(
                        s.question.to_lowercase().contains(&vi.question_text.to_lowercase()),
                        "surface '{}' missing from question '{}'",
                        vi.question_text,
                        s.question
                    );
                }
            }
        }
    }

    #[test]
    fn difficulty_mix_covers_multiple_levels() {
        let c = generate(&CorpusConfig { train_size: 600, ..CorpusConfig::tiny() });
        let mut seen = std::collections::BTreeSet::new();
        for s in &c.train {
            seen.insert(s.difficulty);
        }
        assert!(seen.len() >= 3, "difficulty mix too narrow: {seen:?}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate(&CorpusConfig::tiny());
        let b = generate(&CorpusConfig::tiny());
        for (x, y) in a.train.iter().zip(&b.train) {
            assert_eq!(x.question, y.question);
            assert_eq!(x.sql, y.sql);
        }
    }

    #[test]
    fn hard_value_surfaces_differ_from_db_values() {
        // The corpus must contain Hard/Extra-hard samples whose question text
        // does not literally contain the DB value (e.g. "French" → France).
        let c = generate(&CorpusConfig { train_size: 800, ..CorpusConfig::tiny() });
        let hard = c
            .train
            .iter()
            .flat_map(|s| &s.value_infos)
            .filter(|v| {
                !v.implicit
                    && v.difficulty >= crate::ValueDifficulty::Hard
                    && v.question_text != v.db_value
            })
            .count();
        assert!(hard > 0, "no hard surface forms generated");
    }
}
