//! Shared harness for the table/figure regeneration binaries.
//!
//! Every binary reads its scale from environment variables so the default
//! `cargo run` finishes in minutes while `VN_TRAIN=7000 VN_DEV=1034
//! VN_SEEDS=5 VN_EPOCHS=10` reproduces the paper-scale runs:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `VN_TRAIN` | training questions | 1800 |
//! | `VN_DEV` | dev questions | 300 |
//! | `VN_ROWS` | rows per table | 30 |
//! | `VN_EPOCHS` | training epochs | 6 |
//! | `VN_SEEDS` | independent runs to average (Fig. 10) | 3 |
//! | `VN_SEED` | base RNG seed | 42 |
//! | `VN_THREADS` | worker threads (0 = all cores); results are identical for any value | 0 |
//!
//! A variable that is set but is not a non-negative integer (`VN_TRAIN=7k`,
//! or empty) stops the binary with status 2, naming it, rather than run at
//! the default scale.

use valuenet_dataset::CorpusConfig;

pub use valuenet_core::{evaluate, evaluate_with_threads, EvalStats, SampleEval};

/// Scale knobs for the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Training questions.
    pub train_size: usize,
    /// Dev questions.
    pub dev_size: usize,
    /// Rows per table.
    pub rows_per_table: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Independent seeds to average.
    pub seeds: usize,
    /// Base seed.
    pub seed: u64,
}

/// The value of a `VN_*` variable: `default` when it is unset, an error
/// naming it when it is set to anything but a non-negative integer.
fn parse_env_usize(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(v) = value else { return Ok(default) };
    v.parse().map_err(|_| format!("{name} must be a non-negative integer, got {v:?}"))
}

fn env_usize(name: &str, default: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_env_usize(name, value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

impl BenchConfig {
    /// Reads the configuration from the environment (see module docs).
    pub fn from_env() -> Self {
        BenchConfig {
            train_size: env_usize("VN_TRAIN", 1800),
            dev_size: env_usize("VN_DEV", 300),
            rows_per_table: env_usize("VN_ROWS", 30),
            epochs: env_usize("VN_EPOCHS", 6),
            seeds: env_usize("VN_SEEDS", 3),
            seed: env_usize("VN_SEED", 42) as u64,
        }
    }

    /// The corresponding corpus configuration.
    pub fn corpus(&self, seed_offset: u64) -> CorpusConfig {
        CorpusConfig {
            seed: self.seed + seed_offset,
            train_size: self.train_size,
            dev_size: self.dev_size,
            rows_per_table: self.rows_per_table,
            surface_weights: valuenet_dataset::DEFAULT_SURFACE_WEIGHTS,
        }
    }

    /// The corresponding training configuration.
    pub fn train_cfg(&self, seed_offset: u64) -> valuenet_core::TrainConfig {
        valuenet_core::TrainConfig {
            epochs: self.epochs,
            seed: self.seed + seed_offset,
            threads: env_usize("VN_THREADS", 0),
            ..Default::default()
        }
    }
}

/// Mean and (population) standard deviation of a series.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::parse_env_usize;

    #[test]
    fn vn_variables_parse_or_name_themselves() {
        assert_eq!(parse_env_usize("VN_TRAIN", None, 1800), Ok(1800));
        assert_eq!(parse_env_usize("VN_TRAIN", Some("7000"), 1800), Ok(7000));
        assert_eq!(parse_env_usize("VN_SEEDS", Some("0"), 3), Ok(0));
        for bad in ["7k", "", " 60", "-1", "1.5"] {
            let err = parse_env_usize("VN_TRAIN", Some(bad), 1800).unwrap_err();
            assert!(err.contains("VN_TRAIN"), "{bad:?}: error must name the variable: {err}");
        }
    }
}
