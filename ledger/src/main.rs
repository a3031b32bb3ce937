//! The ValueNet performance ledger: one command, three workloads, every
//! end-to-end metric with its unit, a correctness gate, and — in a separate
//! traced run — per-layer timings taken from outside the program by calling
//! each layer's public functions. See `ledger/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload serve_decode --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is the
//! run's record (provenance, workload parameters, validity flags).

mod layers;
mod serve;
mod setup;
mod stats;
mod train;
mod translate;

use valuenet_obs::json::Json;

const USAGE: &str = "usage: ledger --workload <serve_decode|translate_lookup|train> --seed <n> \
                     --seconds <s> --trace <0|1> [--quick] [--repeat <n>] [--plant-mismatch]";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test-sized corpora and phases (the benchmark's own tests).
    pub quick: bool,
    /// Repeat index stamped on the record.
    pub repeat: u64,
    /// Corrupts one reference SQL so the correctness gate must trip.
    pub plant_mismatch: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        quick: false,
        repeat: 0,
        plant_mismatch: false,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--repeat" => {
                args.repeat = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--quick" => args.quick = true,
            "--plant-mismatch" => args.plant_mismatch = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "serve_decode" | "translate_lookup" | "train"
    ) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    Ok(args)
}

/// A correctness-gate failure: the question it failed on and why.
#[derive(Debug)]
pub struct Gate {
    pub question: String,
    pub detail: String,
}

impl Gate {
    pub fn new(question: &str, detail: impl Into<String>) -> Gate {
        Gate {
            question: question.to_string(),
            detail: detail.into(),
        }
    }
}

/// Fails the gate unless `got` is the reference SQL.
pub fn check_sql(
    question: &str,
    reference: &Option<String>,
    got: &Option<String>,
    what: &str,
) -> Result<(), Gate> {
    if reference == got {
        Ok(())
    } else {
        Err(Gate::new(
            question,
            format!("{what} SQL {got:?} differs from the reference {reference:?}"),
        ))
    }
}

/// What a workload hands back: counts, metrics and record fields.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub record: Vec<(String, Json)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.record.push((key.to_string(), value));
    }

    /// `setup_s`: the median of the set-ups' times, each kept on the record.
    pub fn setup_s(&mut self, times: &[f64]) {
        self.metric("setup_s", stats::median(times), "s");
        self.note(
            "setups_s",
            Json::Arr(times.iter().map(|&t| Json::Num(t)).collect()),
        );
    }
}

/// Replaces the first reference SQL so the gate has a mismatch to find.
pub fn plant(args: &Args, requests: &mut [setup::Request]) {
    if args.plant_mismatch {
        if let Some(r) = requests.first_mut() {
            r.reference = Some("SELECT 'planted wrong reference'".into());
        }
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.clone(), m)
            })
            .collect(),
    );
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ])
    .render()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve_decode" => serve::run(&args),
        "translate_lookup" => translate::run(&args),
        _ => train::run(&args),
    };
    match outcome {
        Ok(report) => {
            let detected = valuenet_tensor::simd::detected_level();
            let mut record = vec![
                ("type", Json::Str("ledger_record".into())),
                ("workload", Json::Str(args.workload.clone())),
                ("commit", Json::Str(stats::commit())),
                ("nproc", Json::Int(stats::nproc() as i64)),
                ("simd_detected", Json::Str(detected.name().into())),
                (
                    "simd_active",
                    Json::Str(valuenet_tensor::simd::level().name().into()),
                ),
                ("seed", Json::Int(args.seed as i64)),
                ("repeat", Json::Int(args.repeat as i64)),
                ("seconds", Json::Num(args.seconds)),
                ("trace", Json::Bool(args.trace)),
                ("quick", Json::Bool(args.quick)),
            ];
            let extra: Vec<(&str, Json)> = report
                .record
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            record.extend(extra);
            println!("{}", Json::obj(record).render());
            println!(
                "{}",
                result_line(
                    true,
                    report.attempted.max(1),
                    report.failed,
                    &report.metrics
                )
            );
        }
        Err(gate) => {
            eprintln!(
                "ledger: correctness gate failed on workload `{}`, question {:?}: {}",
                args.workload, gate.question, gate.detail
            );
            println!("{}", result_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = parse_args(&argv("--workload train --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("train", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn gate_reports_the_difference() {
        let r = Some("SELECT 1".to_string());
        assert!(check_sql("q", &r, &r.clone(), "served").is_ok());
        let e = check_sql("q", &r, &None, "served").unwrap_err();
        assert_eq!(e.question, "q");
        assert!(e.detail.contains("served"));
    }
}
