//! Engine and socket integration tests: bit-identity with the in-process
//! pipeline, panic recovery, quarantine, deadlines, overload shedding, and
//! adversarial inputs — all without real faults, using the deterministic
//! injection hooks.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use valuenet_core::{train, ModelConfig, Pipeline, Stage, TrainConfig, ValueMode, ValueNetModel, Vocab};
use valuenet_dataset::{generate, Corpus, CorpusConfig};
use valuenet_obs::json::Json;
use valuenet_preprocess::StatisticalNer;
use valuenet_serve::{
    serve_unix, translate_frame, verb_frame, Client, Engine, ErrorKind, FaultSpec, Response,
    ServeConfig, TranslateJob, MAX_FRAME_BYTES,
};

fn corpus() -> Corpus {
    generate(&CorpusConfig {
        seed: 11,
        train_size: 48,
        dev_size: 12,
        rows_per_table: 10,
        ..CorpusConfig::default()
    })
}

/// Training is deterministic, so two calls produce bit-identical pipelines
/// — one goes into the engine, the other is the single-process reference.
fn trained() -> Pipeline {
    let (pipeline, _) = train(
        &corpus(),
        ValueMode::Light,
        ModelConfig::tiny(),
        &TrainConfig { epochs: 3, verbose: false, ..Default::default() },
    );
    pipeline
}

/// A deterministic *untrained* pipeline — cheap, still exercises the full
/// request path (its predictions mostly fail to lower, which is fine for
/// robustness mechanics).
fn untrained() -> Pipeline {
    let c = corpus();
    let vocab = Vocab::build(c.train.iter().map(|s| s.question.as_str()));
    let model = ValueNetModel::new(ModelConfig::tiny(), vocab, 7);
    Pipeline::new(model, ValueMode::Light, StatisticalNer::new())
}

fn harness_config(workers: usize, queue_capacity: usize) -> ServeConfig {
    ServeConfig { workers, queue_capacity, allow_fault_injection: true, ..ServeConfig::default() }
}

fn job(id: i64, db: &str, question: &str, gold: &[String]) -> TranslateJob {
    TranslateJob {
        id: Some(id),
        db: db.into(),
        question: question.into(),
        gold_values: Some(gold.to_vec()),
        ..Default::default()
    }
}

fn expect_error(resp: Response, kind: ErrorKind) {
    match resp {
        Response::Error { error, .. } => assert_eq!(error.kind, kind, "detail: {}", error.detail),
        other => panic!("expected {kind:?} error, got {other:?}"),
    }
}

#[test]
fn trained_engine_end_to_end() {
    let reference = trained();
    let ref_corpus = corpus();
    let engine_corpus = corpus();
    let engine = Engine::start(trained(), engine_corpus.databases, harness_config(1, 4));

    // --- Bit-identity: served responses equal the in-process pipeline's.
    let mut compared = 0;
    for (i, sample) in ref_corpus.dev.iter().take(8).enumerate() {
        let db = ref_corpus.db(sample);
        let expect = reference
            .try_translate(db, &sample.question, Some(&sample.values))
            .expect("reference translation");
        let resp = engine.translate_blocking(job(
            i as i64,
            &db.schema().db_id,
            &sample.question,
            &sample.values,
        ));
        match (expect.sql.as_ref(), resp) {
            (Some(sql), Response::Translated { id, body }) => {
                assert_eq!(id, Some(i as i64));
                assert_eq!(body.sql, sql.to_string(), "SQL diverged on dev[{i}]");
                assert_eq!(
                    body.values,
                    expect.selected_values().unwrap(),
                    "values diverged on dev[{i}]"
                );
                let expect_rows: Vec<Vec<String>> = expect
                    .result
                    .as_ref()
                    .map(|rs| {
                        rs.rows
                            .iter()
                            .map(|r| r.iter().map(|d| d.to_string()).collect())
                            .collect()
                    })
                    .unwrap_or_default();
                assert_eq!(body.rows, expect_rows, "rows diverged on dev[{i}]");
                assert!(!body.degraded && body.retries == 0);
                compared += 1;
            }
            (None, resp) => expect_error(resp, ErrorKind::TranslateFailed),
            (Some(_), other) => panic!("expected translation, got {other:?}"),
        }
    }
    assert!(compared >= 4, "too few comparable dev translations ({compared})");

    let sample = &ref_corpus.dev[0];
    let db_name = ref_corpus.db(sample).schema().db_id.clone();

    // --- Panic once: retried on the degraded fresh-tape path, worker respawned.
    let panics_before = engine.stats().worker_panics();
    let mut j = job(100, &db_name, &sample.question, &sample.values);
    j.fault = Some(FaultSpec {
        panic_stage: Some(Stage::EncodeDecode),
        panic_times: 1,
        ..Default::default()
    });
    match engine.translate_blocking(j) {
        Response::Translated { body, .. } => {
            assert_eq!(body.retries, 1);
            assert!(body.degraded, "retry after panic must be the degraded retry");
            let t = body.trace.expect("response must carry its trace digest");
            assert_eq!(t.attempts, 2, "digest must count the killed attempt");
        }
        Response::Error { error, .. } => {
            assert_eq!(error.kind, ErrorKind::TranslateFailed, "unexpected: {error}")
        }
        other => panic!("unexpected response: {other:?}"),
    }
    assert_eq!(engine.stats().worker_panics(), panics_before + 1);

    // --- Panic persistently: quarantined after two worker kills.
    let mut j = job(101, &db_name, &sample.question, &sample.values);
    j.fault = Some(FaultSpec {
        panic_stage: Some(Stage::Preprocess),
        panic_times: 99,
        ..Default::default()
    });
    match engine.translate_blocking(j) {
        Response::Error { error, trace, .. } => {
            assert_eq!(error.kind, ErrorKind::Quarantined, "detail: {}", error.detail);
            let t = trace.expect("quarantine must carry its trace digest");
            assert_eq!(t.attempts, 2, "the second worker kill quarantines");
        }
        other => panic!("expected Quarantined error, got {other:?}"),
    }
    assert_eq!(engine.stats().rejected(ErrorKind::Quarantined), 1);

    // --- Deadline at a stage boundary: a stalled stage trips it.
    let mut j = job(102, &db_name, &sample.question, &sample.values);
    j.deadline_ms = Some(10);
    j.fault = Some(FaultSpec {
        delay_stage: Some(Stage::Preprocess),
        delay_ms: 60,
        ..Default::default()
    });
    expect_error(engine.translate_blocking(j), ErrorKind::DeadlineExceeded);

    // --- Deadline in queue + overload shedding: park the single worker on
    // a slow request, then overfill the bounded queue.
    let mut slow = job(103, &db_name, &sample.question, &sample.values);
    slow.fault = Some(FaultSpec {
        delay_stage: Some(Stage::Preprocess),
        delay_ms: 300,
        ..Default::default()
    });
    let slow_rx = engine.submit(slow).expect("slow job admitted");
    std::thread::sleep(std::time::Duration::from_millis(30)); // worker picks it up
    let mut doomed = job(104, &db_name, &sample.question, &sample.values);
    doomed.deadline_ms = Some(20); // will expire while queued
    let doomed_rx = engine.submit(doomed).expect("doomed job admitted");
    let mut queued = Vec::new();
    let mut shed = 0;
    for i in 0..8 {
        match engine.submit(job(110 + i, &db_name, &sample.question, &sample.values)) {
            Ok(rx) => queued.push(rx),
            Err(e) => {
                assert_eq!(e.kind, ErrorKind::Overload);
                shed += 1;
            }
        }
    }
    assert!(shed > 0, "bounded queue never shed");
    assert_eq!(engine.stats().rejected(ErrorKind::Overload), shed);
    expect_error(
        doomed_rx.recv().expect("doomed reply"),
        ErrorKind::DeadlineExceeded,
    );
    assert!(engine.stats().rejected(ErrorKind::DeadlineExceeded) >= 2);
    assert!(slow_rx.recv().is_ok(), "slow job must still be answered");
    for rx in queued {
        assert!(rx.recv().is_ok(), "queued job must be answered exactly once");
    }

    // --- Stats verb shape.
    let stats = engine.stats_json(false);
    assert_eq!(
        stats.get("workers").and_then(|w| w.get("configured")).and_then(|v| v.as_f64()),
        Some(1.0)
    );
    assert!(
        stats
            .get("latency_us")
            .and_then(|l| l.get("total"))
            .and_then(|t| t.get("count"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            >= 4.0,
        "latency histogram not populated: {}",
        stats.render()
    );
    let respawns = stats
        .get("workers")
        .and_then(|w| w.get("respawns"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    assert!(respawns >= 3.0, "panicked workers were not respawned");

    // --- No worker leaks: every panic respawned exactly one replacement.
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(engine.live_workers(), 1, "worker pool leaked or lost threads");

    // --- Shutdown: drains, stops workers, rejects new work.
    engine.shutdown();
    assert_eq!(engine.live_workers(), 0);
    expect_error(
        engine.translate_blocking(job(200, &db_name, &sample.question, &sample.values)),
        ErrorKind::ShuttingDown,
    );
}

#[test]
fn adversarial_inputs_get_typed_errors() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let engine = Engine::start(untrained(), c.databases, ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    // Empty and whitespace-only questions.
    expect_error(
        engine.translate_blocking(job(1, &db_name, "", &[])),
        ErrorKind::BadRequest,
    );
    expect_error(
        engine.translate_blocking(job(2, &db_name, "   \t  ", &[])),
        ErrorKind::BadRequest,
    );

    // Unknown database.
    expect_error(
        engine.translate_blocking(job(3, "no_such_db", "How many?", &[])),
        ErrorKind::UnknownDb,
    );

    // A 10k-character question must be rejected, not crash a worker.
    let huge = "why ".repeat(2500);
    expect_error(
        engine.translate_blocking(job(4, &db_name, &huge, &[])),
        ErrorKind::BadRequest,
    );

    // Fault directives are rejected when injection is not enabled.
    let mut j = job(5, &db_name, "How many?", &[]);
    j.fault = Some(FaultSpec {
        panic_stage: Some(Stage::Preprocess),
        panic_times: 1,
        ..Default::default()
    });
    expect_error(engine.translate_blocking(j), ErrorKind::BadRequest);

    // A hostile-but-valid question flows through the untrained model and
    // gets a *typed* outcome (no panic, no unwrap on input-derived data).
    let weird = "Ω≈ç√∫˜µ≤ \"quotes\" \\backslash\\ 'and'; -- DROP TABLE x; 🚀";
    match engine.translate_blocking(job(6, &db_name, weird, &["1".into()])) {
        Response::Translated { .. } => {}
        Response::Error { error, .. } => assert!(
            matches!(error.kind, ErrorKind::TranslateFailed | ErrorKind::Internal),
            "unexpected kind: {error}"
        ),
        other => panic!("unexpected response: {other:?}"),
    }
    assert_eq!(engine.live_workers(), 1, "adversarial input killed a worker");
}

/// A question of punctuation alone tokenizes to nothing: the pipeline
/// refuses it with a typed error before the encoder, so it is a
/// `bad_request`, no worker dies, and each rejection is counted once.
#[test]
fn a_question_with_no_word_tokens_is_a_bad_request() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let engine = Engine::start(untrained(), c.databases, harness_config(2, 8));
    for (id, question) in [(1, "?!"), (2, "..."), (3, ",")] {
        let reply = engine.translate_blocking(job(id, &db_name, question, &[]));
        expect_error(reply, ErrorKind::BadRequest);
    }
    assert_eq!(engine.stats().worker_panics(), 0, "a question with no tokens killed a worker");
    assert_eq!(engine.stats().rejected(ErrorKind::BadRequest), 3, "one rejection per request");
    assert_eq!(engine.stats().rejected(ErrorKind::Quarantined), 0);
    assert_eq!(engine.live_workers(), 2);
}

/// The tentpole invariant: a trace context allocated at admission survives
/// a worker panic, the respawn, and the degraded retry — the reply digest
/// and the flight-recorder span tree both cover *all* attempts.
#[test]
fn traces_survive_panic_respawn_and_degraded_retry() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let engine = Engine::start(untrained(), c.databases, harness_config(1, 8));

    let mut j = job(1, &db_name, "How many are there?", &["1".to_string()]);
    j.fault = Some(FaultSpec {
        panic_stage: Some(Stage::EncodeDecode),
        panic_times: 1,
        ..Default::default()
    });
    let summary = match engine.translate_blocking(j) {
        Response::Translated { body, .. } => {
            body.trace.expect("completed response must carry a trace digest")
        }
        Response::Error { error, trace, .. } => {
            assert_eq!(error.kind, ErrorKind::TranslateFailed, "unexpected: {error}");
            trace.expect("typed error must carry a trace digest")
        }
        other => panic!("unexpected response: {other:?}"),
    };
    assert_eq!(summary.attempts, 2, "panic + degraded retry = two attempts");
    assert!(
        summary.stages.iter().any(|(s, _)| s == "preprocess"),
        "per-stage totals missing from digest: {:?}",
        summary.stages
    );

    // The flight recorder retains the full span tree under the same id.
    let dump = engine.traces_json(Some(summary.trace_id), None);
    let traces = dump.get("traces").and_then(Json::as_arr).expect("traces array");
    assert_eq!(traces.len(), 1, "trace_id lookup must find the request");
    let t = &traces[0];
    let attempts = t.get("attempts").and_then(Json::as_arr).expect("attempts array");
    assert_eq!(attempts.len(), 2);
    assert_eq!(attempts[0].get("outcome").and_then(Json::as_str), Some("panic"));
    assert_eq!(attempts[0].get("degraded"), Some(&Json::Bool(false)));
    assert_eq!(attempts[1].get("degraded"), Some(&Json::Bool(true)));
    // Fault attribution names the injected fault, not just "a panic".
    let fault = t.get("fault").and_then(Json::as_str).expect("fault attribution");
    assert!(fault.contains("injected"), "fault not attributed to injection: {fault}");
    // Stage events from BOTH attempts survived the worker's death.
    let stages = t.get("stages").and_then(Json::as_arr).expect("stages array");
    assert!(stages.iter().any(|e| e.get("attempt") == Some(&Json::Int(0))));
    assert!(stages.iter().any(|e| e.get("attempt") == Some(&Json::Int(1))));
    engine.shutdown();
}

/// A quarantined request stays recoverable from the flight recorder with
/// full span tree and fault attribution, even after later traffic.
#[test]
fn quarantined_request_is_recoverable_from_flight_recorder() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let engine = Engine::start(untrained(), c.databases, harness_config(1, 8));

    let mut j = job(7, &db_name, "How many are there?", &["1".to_string()]);
    j.fault = Some(FaultSpec {
        panic_stage: Some(Stage::Preprocess),
        panic_times: 99,
        ..Default::default()
    });
    let trace_id = match engine.translate_blocking(j) {
        Response::Error { error, trace, .. } => {
            assert_eq!(error.kind, ErrorKind::Quarantined);
            trace.expect("quarantine must carry a trace digest").trace_id
        }
        other => panic!("expected quarantine, got {other:?}"),
    };
    // Later traffic does not evict the terminal trace.
    for i in 0..6 {
        let _ = engine.translate_blocking(job(20 + i, &db_name, "How many?", &["1".to_string()]));
    }
    let full = engine
        .flight()
        .find(trace_id)
        .expect("quarantined trace evicted from flight recorder");
    assert_eq!(full.outcome, "quarantined");
    assert_eq!(full.request_id, Some(7));
    assert!(full.fault.as_deref().unwrap_or("").contains("injected"));
    assert_eq!(full.attempts.len(), 2, "both kill attempts recorded");
    assert!(full.attempts.iter().all(|a| a.outcome == "panic"));
    assert!(!full.stages.is_empty(), "span tree lost");
    engine.shutdown();
}

/// `stats` delta windows reset on read; cumulative windows do not.
#[test]
fn stats_delta_windows_reset_between_reads() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let engine = Engine::start(untrained(), c.databases, harness_config(1, 8));
    let submitted = |s: &Json| {
        s.get("requests")
            .and_then(|r| r.get("submitted"))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
    };

    let _ = engine.translate_blocking(job(1, &db_name, "How many?", &["1".to_string()]));
    let d1 = engine.stats_json(true);
    assert_eq!(d1.get("window").and_then(Json::as_str), Some("delta"));
    assert_eq!(submitted(&d1), 1.0);
    // Nothing happened since: the next delta window is empty…
    let d2 = engine.stats_json(true);
    assert_eq!(submitted(&d2), 0.0);
    // …while the cumulative view still has everything, and gauges stay live.
    let cum = engine.stats_json(false);
    assert_eq!(cum.get("window").and_then(Json::as_str), Some("cumulative"));
    assert_eq!(submitted(&cum), 1.0);
    assert_eq!(
        cum.get("workers").and_then(|w| w.get("live")).and_then(Json::as_f64),
        Some(1.0)
    );
    // Both views carry an SLO section derived from the same window.
    for s in [&d2, &cum] {
        assert!(
            s.get("slo").and_then(|v| v.get("availability_burn")).is_some(),
            "missing slo section: {}",
            s.render()
        );
    }
    // Every window carries the same counter keys, one rejection counter
    // per error kind.
    let keys = |s: &Json, section: &str| -> Vec<String> {
        match s.get(section) {
            Some(Json::Obj(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("no `{section}` object in stats: {other:?}"),
        }
    };
    for s in [&d1, &d2, &cum] {
        assert_eq!(
            keys(s, "requests"),
            ["submitted", "completed", "retries", "degraded_completions"]
        );
        assert_eq!(keys(s, "workers"), ["configured", "live", "panics", "respawns"]);
        assert_eq!(
            keys(s, "rejections"),
            [
                "overload",
                "bad_request",
                "unknown_db",
                "deadline_exceeded",
                "translate_failed",
                "quarantined",
                "internal",
                "shutting_down",
            ]
        );
    }
    engine.shutdown();
}

/// Served responses are bit-identical to the in-process reference whether
/// requests arrive one at a time or all at once on a 2-worker engine.
#[test]
fn served_responses_match_in_process_reference_bitwise() {
    let reference = trained();
    let ref_corpus = corpus();
    let engine_corpus = corpus();
    let engine = Engine::start(trained(), engine_corpus.databases, harness_config(2, 16));

    let expectations: Vec<_> = ref_corpus
        .dev
        .iter()
        .take(8)
        .map(|sample| {
            let db = ref_corpus.db(sample);
            (
                db.schema().db_id.clone(),
                sample,
                reference
                    .try_translate(db, &sample.question, Some(&sample.values))
                    .expect("reference translation"),
            )
        })
        .collect();

    // Phase 1: sequential singles. Phase 2: all eight submitted at once, so
    // both workers translate concurrently.
    for concurrent in [false, true] {
        let responses: Vec<Response> = if concurrent {
            let rxs: Vec<_> = expectations
                .iter()
                .enumerate()
                .map(|(i, (db_id, sample, _))| {
                    engine
                        .submit(job(i as i64, db_id, &sample.question, &sample.values))
                        .expect("job admitted")
                })
                .collect();
            rxs.into_iter().map(|rx| rx.recv().expect("reply")).collect()
        } else {
            expectations
                .iter()
                .enumerate()
                .map(|(i, (db_id, sample, _))| {
                    engine.translate_blocking(job(i as i64, db_id, &sample.question, &sample.values))
                })
                .collect()
        };
        for (i, resp) in responses.into_iter().enumerate() {
            let expect = &expectations[i].2;
            match (expect.sql.as_ref(), resp) {
                (Some(sql), Response::Translated { body, .. }) => {
                    assert_eq!(body.sql, sql.to_string(), "SQL diverged on dev[{i}]");
                    assert_eq!(body.values, expect.selected_values().unwrap());
                    let expect_rows: Vec<Vec<String>> = expect
                        .result
                        .as_ref()
                        .map(|rs| {
                            rs.rows
                                .iter()
                                .map(|r| r.iter().map(|d| d.to_string()).collect())
                                .collect()
                        })
                        .unwrap_or_default();
                    assert_eq!(body.rows, expect_rows, "rows diverged on dev[{i}]");
                    assert!(!body.degraded && body.retries == 0);
                    let t = body.trace.expect("trace digest");
                    assert_eq!(t.batch_size, 1, "a decoded request reports a batch of one");
                }
                (None, resp) => expect_error(resp, ErrorKind::TranslateFailed),
                (Some(_), other) => panic!("expected translation, got {other:?}"),
            }
        }
    }
    engine.shutdown();
    assert_eq!(engine.live_workers(), 0);
}

/// A panicking request retries on the degraded fresh-tape path while
/// requests running beside it complete clean, charged no retry.
#[test]
fn panicking_request_retries_degraded_while_concurrent_requests_complete_clean() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let engine = Engine::start(untrained(), c.databases, harness_config(2, 16));
    let gold = vec!["1".to_string()];

    let mut bad = job(50, &db_name, "How many are there?", &gold);
    bad.fault = Some(FaultSpec {
        panic_stage: Some(Stage::EncodeDecode),
        panic_times: 1,
        ..Default::default()
    });
    let bad_rx = engine.submit(bad).expect("faulty job admitted");
    let clean_rx: Vec<_> = (0..3)
        .map(|i| {
            engine
                .submit(job(60 + i, &db_name, "How many are there?", &gold))
                .expect("clean job admitted")
        })
        .collect();

    let summary = match bad_rx.recv().expect("faulty reply") {
        Response::Translated { body, .. } => {
            assert_eq!(body.retries, 1);
            assert!(body.degraded, "post-panic retry must be the degraded retry");
            body.trace.expect("trace digest")
        }
        Response::Error { error, trace, .. } => {
            assert_eq!(error.kind, ErrorKind::TranslateFailed, "unexpected: {error}");
            trace.expect("trace digest")
        }
        other => panic!("unexpected response: {other:?}"),
    };
    assert_eq!(summary.attempts, 2, "panic + degraded retry = two attempts");
    assert_eq!(summary.batch_size, 1, "the degraded retry got past the decode");

    for rx in clean_rx {
        match rx.recv().expect("clean reply") {
            Response::Translated { body, .. } => {
                assert!(!body.degraded, "concurrent clean job was degraded");
                assert_eq!(body.retries, 0, "concurrent clean job charged a retry");
                assert_eq!(body.trace.expect("trace digest").attempts, 1);
            }
            Response::Error { error, trace, .. } => {
                assert_eq!(error.kind, ErrorKind::TranslateFailed, "unexpected: {error}");
                assert_eq!(trace.expect("trace digest").attempts, 1, "clean job re-attempted");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    // Exactly one worker died and exactly one replacement spawned. The dying
    // thread counts its respawn after requeueing the job, so poll briefly.
    assert_eq!(engine.stats().worker_panics(), 1);
    let until = Instant::now() + Duration::from_secs(5);
    while engine.stats().worker_respawns() < 1 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(engine.stats().worker_respawns(), 1);
    assert_eq!(engine.live_workers(), 2, "worker pool leaked after the panic");
    engine.shutdown();
}

#[test]
fn unix_socket_roundtrip() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let engine = Engine::start(untrained(), c.databases, ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let sock = std::env::temp_dir().join(format!("vn-serve-test-{}.sock", std::process::id()));
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(engine, &sock))
    };

    // Connect (the listener needs a moment to bind).
    let mut client = None;
    for _ in 0..100 {
        match Client::connect(&sock) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("could not connect to serve socket");

    // Liveness.
    match client.roundtrip(&verb_frame(1, "ping")).unwrap() {
        Response::Pong { id } => assert_eq!(id, Some(1)),
        other => panic!("expected pong, got {other:?}"),
    }

    // A malformed frame gets a typed bad_request — and the connection
    // stays usable.
    match client.roundtrip_raw("this is not json").unwrap() {
        Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Malformed with a recoverable id: the id is echoed back.
    match client.roundtrip_raw(r#"{"id":42,"verb":"warp"}"#).unwrap() {
        Response::Error { id, error, .. } => {
            assert_eq!(id, Some(42));
            assert_eq!(error.kind, ErrorKind::BadRequest);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // A detail long enough to be cut, with byte 200 inside the `é`: still a
    // bad_request with its id, and the connection answers the next frame.
    let long_verb = format!(r#"{{"id":43,"verb":"{}é"}}"#, "a".repeat(185));
    match client.roundtrip_raw(&long_verb).unwrap() {
        Response::Error { id, error, .. } => {
            assert_eq!(id, Some(43));
            assert_eq!(error.kind, ErrorKind::BadRequest);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    match client.roundtrip(&verb_frame(44, "ping")).unwrap() {
        Response::Pong { id } => assert_eq!(id, Some(44)),
        other => panic!("expected pong, got {other:?}"),
    }

    // A frame that is not valid UTF-8 gets a bad_request with no id, and
    // the same connection answers the next frame.
    {
        let mut raw = UnixStream::connect(&sock).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        raw.write_all(b"{\"id\":5,\"verb\":\"ping\xff\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("a non-UTF-8 frame must be answered");
        match Response::parse(&line).unwrap() {
            Response::Error { id, error, .. } => {
                assert_eq!(id, None);
                assert_eq!(error.kind, ErrorKind::BadRequest);
                assert!(error.detail.contains("UTF-8"), "unexpected detail: {error}");
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
        raw.write_all(format!("{}\n", verb_frame(6, "ping").render()).as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).expect("the connection must stay open");
        match Response::parse(&line).unwrap() {
            Response::Pong { id } => assert_eq!(id, Some(6)),
            other => panic!("expected pong, got {other:?}"),
        }
    }

    // One byte past the frame bound, with no newline: a typed bad_request
    // naming the bound, and that connection is closed. A fresh connection
    // still gets its pong.
    let bound = MAX_FRAME_BYTES;
    {
        let mut raw = UnixStream::connect(&sock).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&vec![b'x'; bound + 1]).unwrap();
        let mut line = String::new();
        BufReader::new(&raw).read_line(&mut line).expect("over-long frame must be answered");
        match Response::parse(&line).unwrap() {
            Response::Error { error, .. } => {
                assert_eq!(error.kind, ErrorKind::BadRequest);
                assert!(error.detail.contains(&bound.to_string()), "bound not named: {error}");
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
    }
    let mut fresh = Client::connect(&sock).expect("connect");
    match fresh.roundtrip(&verb_frame(45, "ping")).unwrap() {
        Response::Pong { id } => assert_eq!(id, Some(45)),
        other => panic!("expected pong, got {other:?}"),
    }

    // A real translate round trip (untrained model: typed outcome either
    // way), then an unknown database.
    let gold = vec!["1".to_string()];
    let frame = translate_frame(2, &db_name, "How many are there?", None, Some(&gold), None);
    match client.roundtrip(&frame).unwrap() {
        Response::Translated { id, .. } => assert_eq!(id, Some(2)),
        Response::Error { id, error, .. } => {
            assert_eq!(id, Some(2));
            assert_eq!(error.kind, ErrorKind::TranslateFailed, "unexpected: {error}");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    let frame = translate_frame(3, "nope", "How many?", None, Some(&gold), None);
    match client.roundtrip(&frame).unwrap() {
        Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::UnknownDb),
        other => panic!("expected unknown_db, got {other:?}"),
    }

    // Stats over the wire (cumulative by default, delta on request).
    match client.roundtrip(&verb_frame(4, "stats")).unwrap() {
        Response::Stats { stats, .. } => {
            assert!(stats.get("queue").is_some() && stats.get("workers").is_some());
            assert_eq!(stats.get("window").and_then(Json::as_str), Some("cumulative"));
        }
        other => panic!("expected stats, got {other:?}"),
    }
    match client.roundtrip_raw(r#"{"id":6,"verb":"stats","window":"delta"}"#).unwrap() {
        Response::Stats { stats, .. } => {
            assert_eq!(stats.get("window").and_then(Json::as_str), Some("delta"));
        }
        other => panic!("expected delta stats, got {other:?}"),
    }

    // The trace verb dumps the flight recorder.
    match client.roundtrip_raw(r#"{"id":7,"verb":"trace","last":4}"#).unwrap() {
        Response::Traces { id, traces } => {
            assert_eq!(id, Some(7));
            let arr = traces.get("traces").and_then(Json::as_arr).expect("traces array");
            assert!(!arr.is_empty(), "translate above must be retained");
        }
        other => panic!("expected traces, got {other:?}"),
    }

    // Graceful shutdown: acknowledged, server thread exits, socket gone.
    match client.roundtrip(&verb_frame(5, "shutdown")).unwrap() {
        Response::ShutdownAck { id } => assert_eq!(id, Some(5)),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join().expect("server thread").expect("serve_unix");
    assert!(!sock.exists(), "socket file not cleaned up");
}
