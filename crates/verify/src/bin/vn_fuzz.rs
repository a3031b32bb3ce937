//! Deterministic differential fuzzer CLI.
//!
//! ```text
//! vn-fuzz [--cases N] [--seed S] [--fail-log PATH] [--inject-divergence]
//! vn-fuzz --replay CASE_SEED [--inject-divergence]
//! vn-fuzz --kernel N [--seed S]
//! vn-fuzz --lookup N [--seed S]
//! vn-fuzz --serve N [--seed S] [--report PATH]
//! vn-fuzz --serve-replay CASE_SEED
//! ```
//!
//! `--kernel N` switches to kernel mode: `N` seeded cases fuzz the packed
//! `W` and `Wᵀ` panels, the tape matmuls and backward's fold against their
//! scalar oracles at every SIMD level (`valuenet_verify::kernel_fuzz`)
//! instead of the SQL executor.
//!
//! `--lookup N` switches to lookup mode: `N` seeded cases compare the
//! inverted index's similarity search with a scan that has no blocking, and
//! `like_match` with the oracle's recursive LIKE
//! (`valuenet_verify::lookup_fuzz`).
//!
//! `--serve N` switches to serving mode: a trained tiny pipeline is served
//! over a Unix socket and `N` seeded fault cases (worker panics, stage
//! stalls, overload bursts, malformed frames) are fired at it
//! (`valuenet_verify::serve_fault`); `--serve-replay` re-runs one serve
//! case seed bit-identically, and `--report PATH` merges the serve-mode
//! results into an existing `run_report.json` as a
//! `serve_fault_injection` section.
//!
//! The modes (`--kernel`, `--lookup`, `--serve`, `--serve-replay` and
//! `--replay`) exclude each other, and each reads only its own flags:
//!
//! | mode | other flags it reads |
//! |---|---|
//! | executor (no mode flag) | `--cases --seed --fail-log --inject-divergence` |
//! | `--replay` | `--inject-divergence` |
//! | `--kernel`, `--lookup` | `--seed` |
//! | `--serve` | `--seed --report` |
//! | `--serve-replay` | none |
//!
//! Given two modes, a flag its mode would ignore, or any flag twice,
//! `vn-fuzz` exits with status 2 and names the flags before it runs a case.
//!
//! Runs `N` executor-vs-oracle cases derived from `S` (see
//! `valuenet_verify::fuzz`). Exits non-zero if any case diverges, printing a
//! shrunk reproducer per failure; `--replay` re-runs a single case seed (as
//! printed in a failure report) bit-identically. `--fail-log` additionally
//! writes every failing seed and report to a file, one block per failure —
//! CI uploads this as an artifact.

use std::process::ExitCode;

use valuenet_verify::{run_case, run_fuzz, CaseOutcome, FuzzConfig};

/// Each mode flag with the other flags that mode reads.
const MODES: [(&str, &[&str]); 5] = [
    ("--kernel", &["--seed"]),
    ("--lookup", &["--seed"]),
    ("--serve", &["--seed", "--report"]),
    ("--serve-replay", &[]),
    ("--replay", &["--inject-divergence"]),
];

/// The flags the executor fuzz (no mode flag) reads.
const EXECUTOR_FLAGS: &[&str] = &["--cases", "--seed", "--fail-log", "--inject-divergence"];

fn main() -> ExitCode {
    // Per-case spans and the fuzz.* outcome counters flow through
    // valuenet-obs; OBS=1 prints the span/counter summary, OBS_JSONL streams
    // per-case timings for CI to validate.
    valuenet_obs::init_from_env();
    let mut cfg = FuzzConfig { cases: 1000, seed: 42, inject_divergence: false };
    let mut replay: Option<u64> = None;
    let mut fail_log: Option<String> = None;
    let mut kernel: Option<usize> = None;
    let mut lookup: Option<usize> = None;
    let mut serve: Option<usize> = None;
    let mut serve_replay: Option<u64> = None;
    let mut report_path: Option<String> = None;

    let mut seen: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if seen.contains(&arg) {
            eprintln!("error: flag {arg} given twice");
            return ExitCode::from(2);
        }
        seen.push(arg.clone());
        let mut take = |what: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{arg} requires {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--cases" => {
                cfg.cases = parse_num(&take("a count")) as usize;
            }
            "--seed" => {
                cfg.seed = parse_num(&take("a seed"));
            }
            "--replay" => {
                replay = Some(parse_num(&take("a case seed")));
            }
            "--inject-divergence" => cfg.inject_divergence = true,
            "--fail-log" => fail_log = Some(take("a path")),
            "--kernel" => {
                kernel = Some(parse_num(&take("a case count")) as usize);
            }
            "--lookup" => {
                lookup = Some(parse_num(&take("a case count")) as usize);
            }
            "--serve" => {
                serve = Some(parse_num(&take("a case count")) as usize);
            }
            "--serve-replay" => {
                serve_replay = Some(parse_num(&take("a case seed")));
            }
            "--report" => report_path = Some(take("a path")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: vn-fuzz [--cases N] [--seed S] [--fail-log PATH] \
                     [--inject-divergence]\n\
                     \x20      vn-fuzz --replay CASE_SEED [--inject-divergence]\n\
                     \x20      vn-fuzz --kernel N [--seed S]\n\
                     \x20      vn-fuzz --lookup N [--seed S]\n\
                     \x20      vn-fuzz --serve N [--seed S] [--report PATH]\n\
                     \x20      vn-fuzz --serve-replay CASE_SEED"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let modes: Vec<(&str, &[&str])> =
        MODES.into_iter().filter(|(m, _)| seen.iter().any(|a| a == m)).collect();
    if modes.len() > 1 {
        let names: Vec<&str> = modes.iter().map(|(m, _)| *m).collect();
        eprintln!("error: {} select different fuzz modes; give one", names.join(" and "));
        return ExitCode::from(2);
    }
    let (mode, reads) = modes.first().copied().unwrap_or(("the executor fuzz", EXECUTOR_FLAGS));
    let ignored: Vec<&str> =
        seen.iter().map(String::as_str).filter(|a| *a != mode && !reads.contains(a)).collect();
    if !ignored.is_empty() {
        eprintln!("error: {mode} does not read {}", ignored.join(", "));
        return ExitCode::from(2);
    }

    if let Some(seed) = serve_replay {
        // Serve mode, single case: same fixture, one seed, bit-identical.
        let fx = valuenet_verify::ServeFixture::start();
        let mut report = valuenet_verify::ServeFuzzReport::default();
        let outcome = valuenet_verify::run_serve_case(&fx, &mut report, seed);
        fx.finish(&mut report);
        valuenet_obs::finish();
        return match outcome {
            Ok(desc) if report.failures.is_empty() => {
                println!("serve replay {seed}: {desc}");
                ExitCode::SUCCESS
            }
            Ok(desc) => {
                println!("serve replay {seed}: {desc}");
                for (s, f) in &report.failures {
                    println!("  INVARIANT VIOLATED (seed {s}): {f}");
                }
                ExitCode::FAILURE
            }
            Err(desc) => {
                println!("serve replay {seed}: FAILED\n  {desc}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(cases) = serve {
        // Serve mode: seeded fault injection against a live serving socket.
        let report =
            valuenet_verify::run_serve_fuzz(&valuenet_verify::ServeFuzzConfig { cases, seed: cfg.seed });
        println!(
            "vn-fuzz --serve: {} cases (seed {}): {} clean ({} bit-identical), \
             {} panics injected ({} recovered, {} quarantined), {} deadline hits, \
             {} bursts ({} shed), {} malformed frames, {} concurrent cases \
             ({} requests identical); \
             workers {}/{} live, {} panics / {} respawns; {} failures",
            report.cases,
            cfg.seed,
            report.clean,
            report.bit_identical,
            report.injected_panics,
            report.recovered,
            report.quarantined,
            report.deadline_hits,
            report.bursts,
            report.shed,
            report.malformed,
            report.concurrent,
            report.concurrent_identical,
            report.live_workers,
            report.configured_workers,
            report.worker_panics,
            report.worker_respawns,
            report.failures.len()
        );
        for (seed, failure) in &report.failures {
            println!(
                "\n=== serve failure (replay with: vn-fuzz --serve-replay {seed}) ===\n{failure}"
            );
        }
        if let Some(path) = &report_path {
            if let Err(e) = merge_serve_report(path, &report) {
                eprintln!("failed to update {path}: {e}");
            } else {
                println!("serve_fault_injection section merged into {path}");
            }
        }
        valuenet_obs::finish();
        return if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if let Some(cases) = kernel {
        // Kernel mode: fuzz the packed matmul kernel against its scalar
        // oracle instead of the SQL executor.
        let report = valuenet_verify::run_kernel_fuzz(cases, cfg.seed);
        println!(
            "vn-fuzz --kernel: {} kernel cases (seed {}): {} failures",
            report.cases,
            cfg.seed,
            report.failures.len()
        );
        for (seed, desc) in &report.failures {
            println!("  seed {seed}: {desc}");
        }
        valuenet_obs::finish();
        return if report.failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if let Some(cases) = lookup {
        // Lookup mode: the blocked similarity search and the iterative LIKE
        // matcher against their unblocked and recursive references.
        let report = valuenet_verify::run_lookup_fuzz(cases, cfg.seed);
        println!(
            "vn-fuzz --lookup: {} cases (seed {}): {} (query, k) lookups with {} hits, \
             {} LIKE pairs; {} failures",
            report.cases,
            cfg.seed,
            report.counts.lookups,
            report.counts.hits,
            report.counts.like_pairs,
            report.failures.len()
        );
        for (_, desc) in &report.failures {
            println!("  {desc}");
        }
        valuenet_obs::finish();
        return if report.failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if let Some(seed) = replay {
        let code = match run_case(seed, cfg.inject_divergence) {
            CaseOutcome::Agree { result_rows } => {
                println!("replay {seed}: executor and oracle agree ({result_rows} rows)");
                ExitCode::SUCCESS
            }
            CaseOutcome::BothErrored => {
                println!("replay {seed}: both executor and oracle errored (agreement)");
                ExitCode::SUCCESS
            }
            CaseOutcome::Divergence { report, .. } => {
                println!("replay {seed}: DIVERGENCE\n{report}");
                ExitCode::FAILURE
            }
        };
        valuenet_obs::finish();
        return code;
    }

    let report = run_fuzz(&cfg);
    println!(
        "vn-fuzz: {} cases (seed {}): {} agreements, {} both-errored, {} divergences",
        report.cases,
        cfg.seed,
        report.agreements,
        report.both_errored,
        report.divergences.len()
    );
    for (seed, failure) in &report.divergences {
        println!("\n=== divergence (replay with: vn-fuzz --replay {seed}) ===\n{failure}");
    }
    if let Some(path) = fail_log {
        if !report.divergences.is_empty() {
            let mut blob = String::new();
            for (seed, failure) in &report.divergences {
                blob.push_str(&format!("=== seed {seed} ===\n{failure}\n"));
            }
            if let Err(e) = std::fs::write(&path, blob) {
                eprintln!("failed to write {path}: {e}");
            }
        }
    }
    valuenet_obs::finish();
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Merges the serve-mode results into `run_report.json` as a
/// `serve_fault_injection` section (replacing any previous one), creating
/// the file if needed — the versioned envelope is preserved.
fn merge_serve_report(
    path: &str,
    report: &valuenet_verify::ServeFuzzReport,
) -> Result<(), String> {
    use valuenet_obs::json::Json;
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))? {
            Json::Obj(entries) => entries,
            _ => return Err(format!("{path} is not a JSON object")),
        },
        Err(_) => vec![(
            "schema_version".to_string(),
            Json::Int(valuenet_obs::RUN_REPORT_SCHEMA_VERSION),
        )],
    };
    entries.retain(|(k, _)| k != "serve_fault_injection");
    entries.push(("serve_fault_injection".to_string(), report.to_json()));
    std::fs::write(path, format!("{}\n", Json::Obj(entries).render()))
        .map_err(|e| format!("write {path}: {e}"))
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got {s:?}");
        std::process::exit(2);
    })
}
