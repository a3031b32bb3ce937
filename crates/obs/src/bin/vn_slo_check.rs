//! CI gate on SLO burn rates.
//!
//! Usage: `vn-slo-check <file.json|file.jsonl> [max-burn]`
//!
//! Walks the document (or each JSONL line) for SLO reports — any object
//! carrying both `availability_burn` and `latency_burn`, wherever it is
//! nested (a `stats` verb dump such as `vn_serve_smoke --slo-out` writes,
//! or a bare `type:"slo"` stream) — and exits nonzero when any burn rate exceeds `max-burn`
//! (default 1.0, i.e. the error budget is being consumed faster than
//! provisioned). Finding no SLO report at all is also a failure: a gate
//! that silently checks nothing is worse than no gate.

use std::process::ExitCode;
use valuenet_obs::json::Json;
use valuenet_obs::slo::check_slo_record;

/// Collects every object that looks like an SLO report, depth-first.
fn collect<'a>(v: &'a Json, out: &mut Vec<&'a Json>) {
    match v {
        Json::Obj(entries) => {
            if v.get("availability_burn").is_some() && v.get("latency_burn").is_some() {
                out.push(v);
            }
            for (_, child) in entries {
                collect(child, out);
            }
        }
        Json::Arr(items) => {
            for child in items {
                collect(child, out);
            }
        }
        _ => {}
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("usage: vn-slo-check <file.json|file.jsonl> [max-burn]");
        return ExitCode::from(2);
    };
    let max_burn: f64 = match args.get(1).map(|s| s.parse()) {
        None => 1.0,
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            eprintln!("vn-slo-check: max-burn must be a number, got {:?}", args[1]);
            return ExitCode::from(2);
        }
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("vn-slo-check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // JSONL and single-document files both reduce to "parse every non-empty
    // line-ish chunk": a pretty-printed single document has no per-line JSON,
    // so fall back to whole-file parse when line parsing yields nothing.
    let mut docs: Vec<Json> = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Ok(v) = Json::parse(line) {
            docs.push(v);
        }
    }
    if docs.is_empty() {
        match Json::parse(&text) {
            Ok(v) => docs.push(v),
            Err(e) => {
                eprintln!("vn-slo-check: {path}: invalid JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut reports: Vec<&Json> = Vec::new();
    for doc in &docs {
        collect(doc, &mut reports);
    }
    if reports.is_empty() {
        eprintln!("vn-slo-check: {path}: no SLO reports found");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for report in reports {
        match check_slo_record(report, max_burn) {
            Ok((name, avail, lat)) => println!(
                "vn-slo-check: {name}: availability burn {avail:.3}, latency burn {lat:.3} (max {max_burn:.2})"
            ),
            Err(e) => {
                eprintln!("vn-slo-check: BURN — {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
