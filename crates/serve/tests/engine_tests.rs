//! Engine and socket integration tests: bit-identity with the in-process
//! pipeline, panic recovery, quarantine, deadlines, overload shedding, and
//! adversarial inputs — all without real faults, using the deterministic
//! injection hooks.

use valuenet_core::{train, ModelConfig, Pipeline, Stage, TrainConfig, ValueMode, ValueNetModel, Vocab};
use valuenet_dataset::{generate, Corpus, CorpusConfig};
use valuenet_obs::json::Json;
use valuenet_preprocess::StatisticalNer;
use valuenet_serve::{
    serve_unix, translate_frame, verb_frame, Client, Engine, ErrorKind, FaultSpec, Response,
    RetryPolicy, QuarantinePolicy, ServeConfig, TranslateJob,
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
    ServeConfig {
        workers,
        queue_capacity,
        allow_fault_injection: true,
        retry: RetryPolicy { max_retries: 2, base_ms: 5, cap_ms: 20 },
        quarantine: QuarantinePolicy { max_worker_kills: 2 },
        ..ServeConfig::default()
    }
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

    // --- Panic once: retried on the degraded scalar path, worker respawned.
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
            assert!(body.degraded, "retry after panic must take the scalar path");
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
    expect_error(engine.translate_blocking(j), ErrorKind::Quarantined);
    assert_eq!(engine.stats().quarantined(), 1);

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
    assert_eq!(engine.stats().shed(), shed);
    expect_error(
        doomed_rx.recv().expect("doomed reply"),
        ErrorKind::DeadlineExceeded,
    );
    assert!(engine.stats().deadline_missed() >= 2);
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
    engine.shutdown();
}

/// Cross-request batching must be invisible in the responses: every job
/// decoded in a shared step batch returns exactly what the in-process
/// reference pipeline produces for it alone, and a single in-flight request
/// on the batched path takes the identical PR 6 code path.
#[test]
fn batched_engine_matches_unbatched_reference_bitwise() {
    let reference = trained();
    let ref_corpus = corpus();
    let engine_corpus = corpus();
    let cfg = ServeConfig {
        batch_window_us: 30_000,
        batch_max: 8,
        ..harness_config(2, 16)
    };
    let engine = Engine::start(trained(), engine_corpus.databases, cfg);

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

    // Phase 1: sequential singles — a batch of one must be bit-identical.
    // Phase 2: all eight submitted at once so the 30 ms window co-batches
    // them, each response still bit-identical to its solo reference.
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
                    assert!(t.batch_size >= 1, "decoded request missing batch size");
                }
                (None, resp) => expect_error(resp, ErrorKind::TranslateFailed),
                (Some(_), other) => panic!("expected translation, got {other:?}"),
            }
        }
    }

    // The batching counters must reflect real shared batches: every decoded
    // job is a member of exactly one batch, and each batch flushed either on
    // the window timer or on reaching `batch_max`.
    let stats = engine.stats_json(false);
    let b = stats.get("batching").expect("stats must expose a batching section");
    let num = |k: &str| b.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(num("window_us"), 30_000.0);
    assert!(num("batches") >= 1.0, "no batches formed: {}", stats.render());
    assert_eq!(
        num("window_flushes") + num("size_flushes"),
        num("batches"),
        "every batch flushes exactly once: {}",
        stats.render()
    );
    assert!(num("members") >= num("batches"));
    let mean = b.get("occupancy").and_then(|o| o.get("mean")).and_then(Json::as_f64).unwrap();
    assert!(
        mean > 1.0,
        "concurrent phase never co-batched requests (mean occupancy {mean}): {}",
        stats.render()
    );
    engine.shutdown();
    assert_eq!(engine.live_workers(), 0);
}

/// A degraded scalar retry must never share a step batch: the scalar tier
/// is not bit-compatible with the fused kernels, so the engine decodes it
/// alone. Co-batched innocents of the panicking attempt complete cleanly
/// without spending any of their own retry budget.
#[test]
fn degraded_retry_decodes_alone_and_innocents_complete_clean() {
    let c = corpus();
    let db_name = c.databases[0].schema().db_id.clone();
    let cfg = ServeConfig {
        batch_window_us: 30_000,
        batch_max: 8,
        ..harness_config(1, 16)
    };
    let engine = Engine::start(untrained(), c.databases, cfg);
    let gold = vec!["1".to_string()];

    // The faulty job goes in first so the 30 ms window co-batches the three
    // clean ones behind it; its decode-stage panic then aborts the batch.
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
            assert!(body.degraded, "post-panic retry must take the scalar path");
            body.trace.expect("trace digest")
        }
        Response::Error { error, trace, .. } => {
            assert_eq!(error.kind, ErrorKind::TranslateFailed, "unexpected: {error}");
            trace.expect("trace digest")
        }
        other => panic!("unexpected response: {other:?}"),
    };
    assert_eq!(
        summary.batch_size, 1,
        "degraded scalar retry joined a shared batch (size {})",
        summary.batch_size
    );

    let mut cobatched = 0u32;
    for rx in clean_rx {
        match rx.recv().expect("clean reply") {
            Response::Translated { body, .. } => {
                assert!(!body.degraded, "innocent co-batched job was degraded");
                assert_eq!(body.retries, 0, "innocent job charged a retry");
                let t = body.trace.expect("trace digest");
                cobatched += u32::from(t.batch_size >= 2);
            }
            Response::Error { error, trace, .. } => {
                assert_eq!(error.kind, ErrorKind::TranslateFailed, "unexpected: {error}");
                let t = trace.expect("trace digest");
                assert_eq!(t.attempts, 1, "innocent job re-attempted");
                cobatched += u32::from(t.batch_size >= 2);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(
        cobatched >= 2,
        "clean jobs were never co-batched after the abort — the scenario is vacuous"
    );

    // Exactly one worker died and exactly one replacement spawned.
    assert_eq!(engine.stats().worker_panics(), 1);
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(engine.live_workers(), 1, "worker pool leaked after batch abort");
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
