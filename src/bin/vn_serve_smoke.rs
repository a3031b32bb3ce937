//! CI smoke driver for `valuenet-cli serve`.
//!
//! Connects to a running serving socket and walks the protocol end to end:
//! liveness, a batch of real translations, one malformed frame, one
//! injected worker panic (the server must run `--allow-faults`), recovery
//! of the panic's full trace from the flight recorder via the `trace`
//! verb, a `stats` cross-check of the pool invariants plus its SLO
//! section, delta-window stats semantics, and a clean `shutdown`. Exits
//! non-zero (with a description) on the first violated expectation.
//!
//! ```text
//! vn_serve_smoke --socket vn.sock [--seed 42] [--train 30] [--dev 10]
//!                [--rows 30] [--requests 12] [--slo-out serve-slo.json]
//! ```
//!
//! `--slo-out` writes the final cumulative `stats` payload to a file so CI
//! can gate the smoke run with `vn-slo-check`. An unknown flag, a flag
//! given twice or without its value, or a count that is not a non-negative
//! integer exits with status 2, naming the flag, before it connects.
//!
//! The corpus parameters must match the served model file's so the
//! driver regenerates the same databases and question set.

use std::time::Duration;

use valuenet::core::Stage;
use valuenet::dataset::{generate, CorpusConfig};
use valuenet::obs::json::Json;
use valuenet::serve::{translate_frame, verb_frame, Client, ErrorKind, FaultSpec, Response};

/// The flags `vn_serve_smoke` takes; each takes a value.
const FLAGS: [&str; 7] =
    ["--socket", "--seed", "--train", "--dev", "--rows", "--requests", "--slo-out"];

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn usage_error(msg: &str) -> ! {
    eprintln!("vn_serve_smoke: {msg}");
    std::process::exit(2);
}

/// Refuses an argument that is not one of [`FLAGS`], a flag given twice and
/// a flag without its value.
fn check_flags(args: &[String]) {
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if !FLAGS.contains(&a) {
            usage_error(&format!("unknown argument {a}"));
        }
        if seen.contains(&a) {
            usage_error(&format!("flag {a} given twice"));
        }
        seen.push(a);
        if it.next().is_none() {
            usage_error(&format!("flag {a} needs a value"));
        }
    }
}

fn arg_usize(args: &[String], name: &str, default: usize) -> usize {
    match arg(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            usage_error(&format!("{name} expects a non-negative integer, got {v:?}"))
        }),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("vn_serve_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args);
    let socket = arg(&args, "--socket").unwrap_or_else(|| "valuenet.sock".to_string());
    let requests = arg_usize(&args, "--requests", 12);
    let corpus = generate(&CorpusConfig {
        seed: arg_usize(&args, "--seed", 42) as u64,
        train_size: arg_usize(&args, "--train", 30),
        dev_size: arg_usize(&args, "--dev", 10),
        rows_per_table: arg_usize(&args, "--rows", 30),
        ..CorpusConfig::default()
    });

    // The server may still be loading its checkpoint: retry the connect.
    let path = std::path::Path::new(&socket);
    let mut client = None;
    for _ in 0..600 {
        match Client::connect(path) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    let mut client =
        client.unwrap_or_else(|| fail(&format!("server never came up on {socket}")));
    client.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");

    // 1. Liveness.
    match client.roundtrip(&verb_frame(0, "ping")) {
        Ok(Response::Pong { id: Some(0) }) => println!("ping: ok"),
        other => fail(&format!("ping failed: {other:?}")),
    }

    // 2. Real translations over train + dev questions (no gold values — the
    // served model runs the full candidate pipeline).
    let samples: Vec<_> = corpus.train.iter().chain(&corpus.dev).take(requests).collect();
    let mut translated = 0;
    let mut translate_failed = 0;
    for (i, sample) in samples.iter().enumerate() {
        let db = corpus.db(sample);
        let frame =
            translate_frame(i as i64 + 1, &db.schema().db_id, &sample.question, None, None, None);
        match client.roundtrip(&frame) {
            Ok(Response::Translated { id, body }) => {
                if id != Some(i as i64 + 1) {
                    fail(&format!("response id mismatch: {id:?} for request {}", i + 1));
                }
                if body.sql.is_empty() {
                    fail("ok response with empty SQL");
                }
                translated += 1;
            }
            Ok(Response::Error { error, .. }) if error.kind == ErrorKind::TranslateFailed => {
                translate_failed += 1;
            }
            other => fail(&format!("translate {} got {other:?}", i + 1)),
        }
    }
    println!("translate: {translated} ok, {translate_failed} typed translate_failed");
    if translated == 0 {
        fail("no question translated — served model looks broken");
    }

    // 3. A malformed frame must get a typed bad_request and leave the
    // connection usable.
    match client.roundtrip_raw("this { is not json") {
        Ok(Response::Error { error, .. }) if error.kind == ErrorKind::BadRequest => {
            println!("malformed frame: typed bad_request")
        }
        other => fail(&format!("malformed frame got {other:?}")),
    }
    match client.roundtrip(&verb_frame(900, "ping")) {
        Ok(Response::Pong { .. }) => {}
        other => fail(&format!("connection wedged after malformed frame: {other:?}")),
    }

    // 4. One injected worker panic: the pool must catch it, respawn, and
    // answer after a degraded retry.
    let sample = samples[0];
    let fault = FaultSpec {
        panic_stage: Some(Stage::EncodeDecode),
        panic_times: 1,
        ..Default::default()
    };
    let frame = translate_frame(
        901,
        &corpus.db(sample).schema().db_id,
        &sample.question,
        None,
        None,
        Some(&fault),
    );
    let panic_trace = match client.roundtrip(&frame) {
        Ok(Response::Translated { body, .. }) if body.retries >= 1 && body.degraded => {
            println!("injected panic: recovered on degraded retry");
            body.trace
        }
        Ok(Response::Error { error, trace, .. }) if error.kind == ErrorKind::TranslateFailed => {
            println!("injected panic: recovered (question untranslatable)");
            trace
        }
        other => fail(&format!("injected panic not recovered: {other:?}")),
    };
    let panic_trace =
        panic_trace.unwrap_or_else(|| fail("panic response carries no trace digest"));
    if panic_trace.attempts < 2 {
        fail(&format!("trace digest covers {} attempts, expected 2", panic_trace.attempts));
    }

    // 4b. The full span tree — including the killed attempt and its fault
    // attribution — is recoverable from the flight recorder over the wire.
    let frame = Json::obj(vec![
        ("id", Json::Int(904)),
        ("verb", Json::Str("trace".into())),
        ("trace_id", Json::Int(panic_trace.trace_id as i64)),
    ]);
    match client.roundtrip(&frame) {
        Ok(Response::Traces { traces, .. }) => {
            let arr = traces
                .get("traces")
                .and_then(Json::as_arr)
                .unwrap_or_else(|| fail("trace verb payload has no traces array"));
            if arr.len() != 1 {
                fail(&format!("flight recorder lookup found {} traces, expected 1", arr.len()));
            }
            let t = &arr[0];
            let attempts =
                t.get("attempts").and_then(Json::as_arr).map(<[Json]>::len).unwrap_or(0);
            let stages = t.get("stages").and_then(Json::as_arr).map(<[Json]>::len).unwrap_or(0);
            if attempts < 2 || stages == 0 {
                fail(&format!("flight trace incomplete: {attempts} attempts, {stages} stages"));
            }
            if t.get("fault").and_then(Json::as_str).is_none() {
                fail("flight trace has no fault attribution");
            }
            println!("trace verb: span tree recovered ({attempts} attempts, {stages} stages)");
        }
        other => fail(&format!("trace verb failed: {other:?}")),
    }

    // 5. Stats: pool invariants — no worker leak, every panic respawned.
    let stats = match client.roundtrip(&verb_frame(902, "stats")) {
        Ok(Response::Stats { stats, .. }) => stats,
        other => fail(&format!("stats verb failed: {other:?}")),
    };
    let pick = |root: &Json, path: &[&str]| -> i64 {
        let mut v = root.clone();
        for k in path {
            v = v.get(k).cloned().unwrap_or(Json::Null);
        }
        v.as_f64().map(|f| f as i64).unwrap_or(-1)
    };
    let live = pick(&stats, &["workers", "live"]);
    let configured = pick(&stats, &["workers", "configured"]);
    let panics = pick(&stats, &["workers", "panics"]);
    let respawns = pick(&stats, &["workers", "respawns"]);
    if live != configured {
        fail(&format!("worker leak: {live} live of {configured} configured"));
    }
    if panics < 1 || panics != respawns {
        fail(&format!("respawn mismatch: {panics} panics, {respawns} respawns"));
    }
    if pick(&stats, &["latency_us", "total", "count"]) < translated as i64 {
        fail("total latency histogram undercounts completions");
    }
    println!("stats: {live}/{configured} workers live, {panics} panics / {respawns} respawns");

    // 5b. The stats payload carries an SLO section with burn rates; keep it
    // for the CI burn gate when asked to.
    if stats.get("slo").and_then(|s| s.get("availability_burn")).is_none() {
        fail("stats payload has no SLO section");
    }
    if let Some(out) = arg(&args, "--slo-out") {
        std::fs::write(&out, format!("{}\n", stats.render()))
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!("slo: stats payload written to {out}");
    }

    // 5c. Delta-window stats: the first delta read drains the window, so a
    // second immediate read must report an empty window (gauges stay live).
    for (id, expect_empty) in [(905, false), (906, true)] {
        let frame = format!(r#"{{"id":{id},"verb":"stats","window":"delta"}}"#);
        match client.roundtrip_raw(&frame) {
            Ok(Response::Stats { stats, .. }) => {
                if stats.get("window").and_then(Json::as_str) != Some("delta") {
                    fail("delta stats not labelled as delta window");
                }
                let submitted = pick(&stats, &["requests", "submitted"]);
                if expect_empty && submitted != 0 {
                    fail(&format!("second delta window not empty: {submitted} submitted"));
                }
                if pick(&stats, &["workers", "live"]) != live {
                    fail("delta window lost the live-workers gauge");
                }
            }
            other => fail(&format!("delta stats verb failed: {other:?}")),
        }
    }
    println!("stats: delta windows reset on read");

    // 6. Clean shutdown.
    match client.roundtrip(&verb_frame(903, "shutdown")) {
        Ok(Response::ShutdownAck { .. }) => println!("shutdown: acknowledged"),
        other => fail(&format!("shutdown failed: {other:?}")),
    }
    println!("vn_serve_smoke: PASS");
}
