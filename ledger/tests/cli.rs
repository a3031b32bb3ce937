//! The benchmark's own tests: quick-size runs of the `ledger` binary.
//!
//! ```text
//! cargo test --release --offline --manifest-path ledger/Cargo.toml
//! ```

use std::process::{Command, Output};

use valuenet_obs::json::Json;

const WORKLOADS: [&str; 3] = ["serve_decode", "translate_lookup", "train"];

fn ledger(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ])
        .args(extra)
        .output()
        .expect("the ledger binary runs")
}

/// The last two stdout lines: the run's record and its result object.
fn record_and_result(out: &Output) -> (Json, Json) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected a record and a result line, got {stdout:?}"
    );
    let record = Json::parse(lines[lines.len() - 2]).expect("record line is JSON");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    (record, result)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let metrics = bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is an array");
    metrics
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric a result object printed, sorted.
fn printed(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is an object")
    };
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a numeric value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let end_to_end = sorted(declared("end_to_end"));
    let per_layer = sorted(declared("per_layer"));
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = ledger(workload, 1, trace, &[]);
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let (_, result) = record_and_result(&out);
            assert!(matches!(result.get("correct"), Some(Json::Bool(true))));
            assert!(result
                .get("attempted")
                .and_then(Json::as_f64)
                .is_some_and(|a| a >= 1.0));
            assert_eq!(&printed(&result), want, "{workload} trace={trace}");
        }
    }
}

#[test]
fn a_planted_wrong_reference_trips_the_gate() {
    for workload in WORKLOADS {
        let out = ledger(workload, 1, false, &["--plant-mismatch"]);
        assert!(
            !out.status.success(),
            "{workload}: the planted mismatch must fail the run"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("correctness gate failed"),
            "{workload}: {stderr}"
        );
        assert!(
            stderr.contains(workload) && stderr.contains("question"),
            "{workload}: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        let result = Json::parse(last).expect("result line is JSON");
        assert!(matches!(result.get("correct"), Some(Json::Bool(false))));
    }
}

#[test]
fn another_seed_changes_the_inputs_but_not_the_metric_set() {
    for workload in WORKLOADS {
        let runs: Vec<(Json, Json)> = [1, 2]
            .iter()
            .map(|&seed| {
                let out = ledger(workload, seed, false, &[]);
                assert!(out.status.success(), "{workload} seed={seed}");
                record_and_result(&out)
            })
            .collect();
        let digest = |r: &Json| {
            r.get("inputs_digest")
                .and_then(Json::as_str)
                .expect("digest")
                .to_string()
        };
        assert_ne!(
            digest(&runs[0].0),
            digest(&runs[1].0),
            "{workload}: the seed must change the inputs"
        );
        assert_eq!(
            printed(&runs[0].1),
            printed(&runs[1].1),
            "{workload}: same metrics for every seed"
        );
    }
}

#[test]
fn malformed_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the ledger binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
