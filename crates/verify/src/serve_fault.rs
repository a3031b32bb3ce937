//! Deterministic fault injection against the serving engine.
//!
//! `vn-fuzz --serve N` stands up a real server — trained tiny pipeline,
//! bounded queue, worker pool, Unix socket — and fires `N` seeded cases at
//! it through the wire protocol. Case `i` of base seed `S` is
//! [`crate::fuzz::case_seed`]`(S, i)`, exactly like the executor fuzzer, and
//! `--serve-replay <case seed>` re-runs one case bit-identically.
//!
//! Each case seed deterministically picks a scenario:
//!
//! * **clean** — a normal request; the response must be *bit-identical*
//!   (SQL text, selected values, result rows, row order) to the same
//!   question run through the single-process [`Pipeline`], trained
//!   identically.
//! * **panic** — the request carries a [`FaultSpec`] panicking the worker
//!   once at a seeded stage; the engine must catch it, respawn the worker
//!   and answer after a degraded-path retry.
//! * **poison** — the fault panics on every attempt; the request must be
//!   quarantined after two worker kills, and the pool must survive.
//! * **deadline** — a seeded stage stalls longer than the request's
//!   deadline; the reply must be a typed `deadline_exceeded`.
//! * **burst** — more concurrent requests than queue slots; every request
//!   must be answered exactly once (translated, or typed overload/deadline
//!   rejection) with no deadlock.
//! * **malformed** — protocol garbage on the wire; the server must answer
//!   `bad_request` and the same connection must keep working.
//! * **concurrent** — several clean requests fired at once, so both
//!   workers translate side by side; every one must still be bit-identical
//!   to its single-process reference. A seeded fraction adds a request that
//!   panics its worker: the clean requests must complete clean (no
//!   retries, not degraded) while the faulty one recovers on the degraded
//!   path.
//!
//! After the cases, the harness asserts the pool leaked nothing: live
//! workers equal the configured count, every caught panic has a matching
//! respawn, and the queue is empty.

use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use valuenet_core::{train, ModelConfig, Pipeline, Stage, TrainConfig, ValueMode};
use valuenet_dataset::{generate, Corpus, CorpusConfig};
use valuenet_obs::json::Json;
use valuenet_serve::{
    serve_unix, translate_frame, verb_frame, Client, Engine, ErrorKind, FaultSpec, Response,
    ServeConfig, TraceSummary, Translated,
};

use crate::fuzz::case_seed;

/// Serve-mode fuzz parameters.
#[derive(Debug, Clone)]
pub struct ServeFuzzConfig {
    /// Number of seeded cases.
    pub cases: usize,
    /// Base seed of the case stream.
    pub seed: u64,
}

impl Default for ServeFuzzConfig {
    fn default() -> Self {
        ServeFuzzConfig { cases: 300, seed: 42 }
    }
}

/// Aggregate results of a serve-mode fuzz run.
#[derive(Debug, Clone, Default)]
pub struct ServeFuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Clean requests compared against the single-process pipeline.
    pub clean: usize,
    /// Clean requests whose responses were bit-identical to the reference.
    pub bit_identical: usize,
    /// Cases that injected at least one worker panic.
    pub injected_panics: usize,
    /// Panic cases the engine recovered from (typed answer after respawn).
    pub recovered: usize,
    /// Poison cases correctly quarantined.
    pub quarantined: usize,
    /// Deadline cases correctly rejected with `deadline_exceeded`.
    pub deadline_hits: usize,
    /// Overload bursts fired.
    pub bursts: usize,
    /// Requests shed by admission control across all bursts.
    pub shed: u64,
    /// Malformed frames answered with `bad_request`.
    pub malformed: usize,
    /// Concurrent cases fired.
    pub concurrent: usize,
    /// Concurrent clean requests verified bit-identical to their reference.
    pub concurrent_identical: usize,
    /// Responses whose trace digest was verified complete (id, attempts,
    /// per-stage totals).
    pub traced: usize,
    /// Worker panics the server counted.
    pub worker_panics: u64,
    /// Worker respawns the server counted (must equal `worker_panics`).
    pub worker_respawns: u64,
    /// Live workers at the end (must equal the configured pool size).
    pub live_workers: u64,
    /// Configured pool size.
    pub configured_workers: u64,
    /// `(case seed, description)` for every violated invariant.
    pub failures: Vec<(u64, String)>,
}

impl ServeFuzzReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The `run_report.json` section for this run.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cases", Json::Int(self.cases as i64)),
            ("clean", Json::Int(self.clean as i64)),
            ("bit_identical", Json::Int(self.bit_identical as i64)),
            ("injected_panics", Json::Int(self.injected_panics as i64)),
            ("recovered", Json::Int(self.recovered as i64)),
            ("quarantined", Json::Int(self.quarantined as i64)),
            ("deadline_hits", Json::Int(self.deadline_hits as i64)),
            ("bursts", Json::Int(self.bursts as i64)),
            ("shed", Json::Int(self.shed as i64)),
            ("malformed", Json::Int(self.malformed as i64)),
            ("concurrent", Json::Int(self.concurrent as i64)),
            ("concurrent_identical", Json::Int(self.concurrent_identical as i64)),
            ("traced", Json::Int(self.traced as i64)),
            ("worker_panics", Json::Int(self.worker_panics as i64)),
            ("worker_respawns", Json::Int(self.worker_respawns as i64)),
            ("live_workers", Json::Int(self.live_workers as i64)),
            ("configured_workers", Json::Int(self.configured_workers as i64)),
            ("failures", Json::Int(self.failures.len() as i64)),
        ])
    }
}

/// Fixed pool shape for the harness: small enough that bursts overflow the
/// queue, big enough that quarantine (two worker kills) never empties the
/// pool.
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 4;
/// Stages whose guard gate is reached on every translation (`Execute` only
/// runs when a hypothesis survives lowering, so it would make
/// deadline/panic cases model-dependent).
const ALWAYS_STAGES: [Stage; 4] =
    [Stage::Preprocess, Stage::ValueLookup, Stage::EncodeDecode, Stage::PostProcess];

/// A running server plus the bit-identical single-process reference.
pub struct ServeFixture {
    /// The reference pipeline (trained identically to the served one).
    pub reference: Pipeline,
    /// The corpus questions are drawn from.
    pub corpus: Corpus,
    sock: PathBuf,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

fn harness_corpus() -> Corpus {
    generate(&CorpusConfig {
        seed: 11,
        train_size: 48,
        dev_size: 16,
        rows_per_table: 10,
        ..CorpusConfig::default()
    })
}

fn harness_pipeline() -> Pipeline {
    let (pipeline, _) = train(
        &harness_corpus(),
        ValueMode::Light,
        ModelConfig::tiny(),
        &TrainConfig { epochs: 3, verbose: false, ..Default::default() },
    );
    pipeline
}

impl ServeFixture {
    /// Trains the pipeline (twice — deterministically identical), starts
    /// the engine and socket server.
    pub fn start() -> ServeFixture {
        let corpus = harness_corpus();
        let engine_corpus = harness_corpus();
        let engine = Engine::start(
            harness_pipeline(),
            engine_corpus.databases,
            ServeConfig {
                workers: WORKERS,
                queue_capacity: QUEUE_CAPACITY,
                allow_fault_injection: true,
                ..ServeConfig::default()
            },
        );
        let sock = std::env::temp_dir().join(format!(
            "vn-serve-fuzz-{}-{:x}.sock",
            std::process::id(),
            &corpus as *const _ as usize
        ));
        let server = {
            let sock = sock.clone();
            std::thread::spawn(move || serve_unix(engine, &sock))
        };
        // Wait for the socket to come up.
        for _ in 0..200 {
            if Client::connect(&sock).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        ServeFixture { reference: harness_pipeline(), corpus, sock, server }
    }

    /// Opens a fresh connection with the anti-deadlock read timeout set.
    ///
    /// # Panics
    /// If the server is unreachable.
    pub fn client(&self) -> Client {
        let c = Client::connect(&self.sock).expect("connect to serve socket");
        c.set_read_timeout(Some(Duration::from_secs(60))).expect("set read timeout");
        c
    }

    /// Final pool-invariant check (via the `stats` verb), then shutdown.
    /// Returns the final stats payload.
    ///
    /// # Panics
    /// If the server thread itself failed.
    pub fn finish(self, report: &mut ServeFuzzReport) -> Json {
        let mut client = self.client();
        let stats = match client.roundtrip(&verb_frame(-1, "stats")) {
            Ok(Response::Stats { stats, .. }) => stats,
            other => {
                report
                    .failures
                    .push((0, format!("final stats verb failed: {other:?}")));
                Json::Null
            }
        };
        let pick = |path: &[&str]| -> u64 {
            let mut v = &stats;
            for k in path {
                match v.get(k) {
                    Some(next) => v = next,
                    None => return u64::MAX,
                }
            }
            v.as_f64().map(|f| f as u64).unwrap_or(u64::MAX)
        };
        report.worker_panics = pick(&["workers", "panics"]);
        report.worker_respawns = pick(&["workers", "respawns"]);
        report.live_workers = pick(&["workers", "live"]);
        report.configured_workers = pick(&["workers", "configured"]);
        if report.live_workers != report.configured_workers {
            report.failures.push((
                0,
                format!(
                    "worker leak: {} live of {} configured",
                    report.live_workers, report.configured_workers
                ),
            ));
        }
        if report.worker_panics != report.worker_respawns {
            report.failures.push((
                0,
                format!(
                    "respawn mismatch: {} panics, {} respawns",
                    report.worker_panics, report.worker_respawns
                ),
            ));
        }
        if pick(&["queue", "depth"]) != 0 {
            report.failures.push((0, "queue not drained after run".into()));
        }
        let _ = client.roundtrip(&verb_frame(-2, "shutdown"));
        let _ = self.server.join().expect("server thread panicked");
        stats
    }
}

/// Verifies a response-level trace digest is present and complete: nonzero
/// id, at least `min_attempts` attempts, and per-stage totals that include
/// `preprocess` (the gate every translation crosses). Returns the trace id.
fn check_trace(
    trace: Option<&TraceSummary>,
    min_attempts: u32,
    ctx: &str,
) -> Result<u64, String> {
    let t = trace.ok_or_else(|| format!("{ctx}: response carries no trace digest"))?;
    if t.trace_id == 0 {
        return Err(format!("{ctx}: zero trace id"));
    }
    if t.attempts < min_attempts {
        return Err(format!(
            "{ctx}: {} attempts in digest, expected >= {min_attempts}",
            t.attempts
        ));
    }
    if !t.stages.iter().any(|(s, _)| s == "preprocess") {
        return Err(format!("{ctx}: per-stage totals missing preprocess: {:?}", t.stages));
    }
    Ok(t.trace_id)
}

/// Fetches one trace from the flight recorder over the wire and verifies
/// the full span tree: terminal outcome, fault attribution, per-attempt
/// records and stage events.
fn check_flight_trace(
    client: &mut Client,
    rid: i64,
    trace_id: u64,
    outcome: &str,
    min_attempts: usize,
) -> Result<(), String> {
    let frame = Json::obj(vec![
        ("id", Json::Int(rid)),
        ("verb", Json::Str("trace".into())),
        ("trace_id", Json::Int(trace_id as i64)),
    ]);
    let resp = client
        .roundtrip(&frame)
        .map_err(|e| format!("trace verb roundtrip failed: {e}"))?;
    let Response::Traces { traces, .. } = resp else {
        return Err(format!("trace verb got unexpected frame: {resp:?}"));
    };
    let arr = traces
        .get("traces")
        .and_then(Json::as_arr)
        .ok_or("trace verb payload has no traces array")?;
    let [t] = arr else {
        return Err(format!(
            "trace {trace_id} not recoverable from flight recorder ({} matches)",
            arr.len()
        ));
    };
    if t.get("outcome").and_then(Json::as_str) != Some(outcome) {
        return Err(format!("flight trace outcome: {:?}, expected {outcome}", t.get("outcome")));
    }
    if t.get("fault").and_then(Json::as_str).is_none_or(str::is_empty) {
        return Err(format!("flight trace {trace_id} has no fault attribution"));
    }
    let attempts = t.get("attempts").and_then(Json::as_arr).map(<[Json]>::len).unwrap_or(0);
    if attempts < min_attempts {
        return Err(format!("flight trace has {attempts} attempts, expected >= {min_attempts}"));
    }
    if t.get("stages").and_then(Json::as_arr).is_none_or(<[Json]>::is_empty) {
        return Err(format!("flight trace {trace_id} lost its span tree"));
    }
    Ok(())
}

/// Bit-identity check between a served `Translated` body and the solo
/// single-process reference: SQL text, selected values, result rows and
/// row-order flag must all match exactly.
fn check_identical(
    expect: &valuenet_core::Prediction,
    body: &Translated,
    ctx: &str,
) -> Result<(), String> {
    let Some(sql) = expect.sql.as_ref() else {
        return Err(format!("{ctx}: reference produced no SQL but the server translated"));
    };
    let expect_values =
        expect.selected_values().map_err(|e| format!("{ctx}: reference values: {e}"))?;
    let expect_rows: Vec<Vec<String>> = expect
        .result
        .as_ref()
        .map(|rs| {
            rs.rows.iter().map(|r| r.iter().map(|d| d.to_string()).collect()).collect()
        })
        .unwrap_or_default();
    let expect_ordered = expect.result.as_ref().map(|rs| rs.ordered).unwrap_or(false);
    if body.sql != sql.to_string()
        || body.values != expect_values
        || body.rows != expect_rows
        || body.ordered != expect_ordered
    {
        return Err(format!(
            "{ctx}: served response diverged from pipeline: served sql `{}` vs `{}`",
            body.sql, sql
        ));
    }
    Ok(())
}

/// Runs one seeded case against the fixture. Returns a short outcome
/// description, or the invariant violation.
///
/// # Errors
/// A description of the violated invariant.
pub fn run_serve_case(fx: &ServeFixture, report: &mut ServeFuzzReport, seed: u64) -> Result<String, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_train = fx.corpus.train.len();
    let n_all = n_train + fx.corpus.dev.len();
    let idx = rng.gen_range(0..n_all);
    let sample = if idx < n_train { &fx.corpus.train[idx] } else { &fx.corpus.dev[idx - n_train] };
    let db = fx.corpus.db(sample);
    let db_name = db.schema().db_id.clone();
    let rid = (seed & 0x7FFF_FFFF) as i64;

    match rng.gen_range(0..100u32) {
        // ------------------------------------------------ clean: bit-identity
        0..=34 => {
            report.clean += 1;
            let expect = fx
                .reference
                .try_translate(db, &sample.question, Some(&sample.values))
                .map_err(|e| format!("reference pipeline failed: {e}"))?;
            let frame = translate_frame(
                rid,
                &db_name,
                &sample.question,
                None,
                Some(&sample.values),
                None,
            );
            let resp = fx
                .client()
                .roundtrip(&frame)
                .map_err(|e| format!("clean roundtrip failed: {e}"))?;
            match (expect.sql.as_ref(), resp) {
                (Some(_), Response::Translated { body, .. }) => {
                    check_trace(body.trace.as_ref(), 1, "clean translated")?;
                    report.traced += 1;
                    check_identical(&expect, &body, "clean")?;
                    report.bit_identical += 1;
                    Ok(format!("clean: identical ({} rows)", body.rows.len()))
                }
                (None, Response::Error { error, trace, .. })
                    if error.kind == ErrorKind::TranslateFailed =>
                {
                    check_trace(trace.as_ref(), 1, "clean translate_failed")?;
                    report.traced += 1;
                    report.bit_identical += 1;
                    Ok("clean: both failed to translate".into())
                }
                (gold, got) => Err(format!(
                    "clean outcome mismatch: reference sql {:?}, served {:?}",
                    gold.map(|s| s.to_string()),
                    got
                )),
            }
        }
        // --------------------------------------- panic once: recover degraded
        35..=49 => {
            report.injected_panics += 1;
            let stage = ALLOWED_PANIC_STAGES[rng.gen_range(0..ALLOWED_PANIC_STAGES.len())];
            let fault =
                FaultSpec { panic_stage: Some(stage), panic_times: 1, ..Default::default() };
            let frame = translate_frame(
                rid,
                &db_name,
                &sample.question,
                None,
                Some(&sample.values),
                Some(&fault),
            );
            let resp = fx
                .client()
                .roundtrip(&frame)
                .map_err(|e| format!("panic-case roundtrip failed: {e}"))?;
            match resp {
                Response::Translated { body, .. } => {
                    if body.retries == 0 || !body.degraded {
                        return Err(format!(
                            "panic case answered without degraded retry (retries {}, degraded {})",
                            body.retries, body.degraded
                        ));
                    }
                    // The digest must cover the killed attempt too.
                    check_trace(body.trace.as_ref(), 2, "panic recovered")?;
                    report.traced += 1;
                    report.recovered += 1;
                    Ok(format!("panic at {}: recovered degraded", stage.label()))
                }
                Response::Error { error, trace, .. }
                    if error.kind == ErrorKind::TranslateFailed =>
                {
                    check_trace(trace.as_ref(), 2, "panic untranslatable")?;
                    report.traced += 1;
                    report.recovered += 1;
                    Ok(format!("panic at {}: recovered (untranslatable)", stage.label()))
                }
                other => Err(format!("panic case not recovered: {other:?}")),
            }
        }
        // ------------------------------------------------- poison: quarantine
        50..=59 => {
            report.injected_panics += 1;
            let stage = ALLOWED_PANIC_STAGES[rng.gen_range(0..ALLOWED_PANIC_STAGES.len())];
            let fault =
                FaultSpec { panic_stage: Some(stage), panic_times: 99, ..Default::default() };
            let frame = translate_frame(
                rid,
                &db_name,
                &sample.question,
                None,
                Some(&sample.values),
                Some(&fault),
            );
            let resp = fx
                .client()
                .roundtrip(&frame)
                .map_err(|e| format!("poison roundtrip failed: {e}"))?;
            match resp {
                Response::Error { error, trace, .. } if error.kind == ErrorKind::Quarantined => {
                    let trace_id = check_trace(trace.as_ref(), 2, "quarantined")?;
                    report.traced += 1;
                    // The full span tree (with fault attribution) must be
                    // recoverable from the flight recorder over the wire.
                    check_flight_trace(
                        &mut fx.client(),
                        rid + 1,
                        trace_id,
                        "quarantined",
                        2,
                    )?;
                    report.quarantined += 1;
                    Ok(format!("poison at {}: quarantined, trace recovered", stage.label()))
                }
                other => Err(format!("poison case not quarantined: {other:?}")),
            }
        }
        // --------------------------------------------- stalled stage: deadline
        60..=69 => {
            let stage = ALWAYS_STAGES[rng.gen_range(0..ALWAYS_STAGES.len())];
            let deadline = rng.gen_range(5..15u64);
            let fault = FaultSpec {
                delay_stage: Some(stage),
                delay_ms: deadline + 40,
                ..Default::default()
            };
            let frame = translate_frame(
                rid,
                &db_name,
                &sample.question,
                Some(deadline),
                Some(&sample.values),
                Some(&fault),
            );
            let resp = fx
                .client()
                .roundtrip(&frame)
                .map_err(|e| format!("deadline roundtrip failed: {e}"))?;
            match resp {
                Response::Error { error, trace, .. }
                    if error.kind == ErrorKind::DeadlineExceeded =>
                {
                    // No stage requirement: the deadline may (rarely) expire
                    // while still queued, before any gate is crossed.
                    let t = trace
                        .as_ref()
                        .ok_or("deadline rejection carries no trace digest")?;
                    if t.attempts == 0 {
                        return Err("deadline trace has no attempt records".into());
                    }
                    report.traced += 1;
                    report.deadline_hits += 1;
                    Ok(format!("stall at {}: deadline enforced", stage.label()))
                }
                other => Err(format!("stalled request not deadline-rejected: {other:?}")),
            }
        }
        // --------------------------------------------------- overload burst
        70..=79 => {
            report.bursts += 1;
            // Park both workers on slow requests, then throw more requests
            // than the queue holds: sheds are typed, everyone is answered.
            let parked: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let frame = translate_frame(
                        rid + w as i64,
                        &db_name,
                        &sample.question,
                        None,
                        Some(&sample.values),
                        Some(&FaultSpec {
                            delay_stage: Some(Stage::Preprocess),
                            delay_ms: 150,
                            ..Default::default()
                        }),
                    );
                    let mut client = fx.client();
                    std::thread::spawn(move || client.roundtrip(&frame))
                })
                .collect();
            std::thread::sleep(Duration::from_millis(40)); // workers pick them up
            let burst = QUEUE_CAPACITY + 4;
            let others: Vec<_> = (0..burst)
                .map(|b| {
                    let frame = translate_frame(
                        rid + 100 + b as i64,
                        &db_name,
                        &sample.question,
                        None,
                        Some(&sample.values),
                        None,
                    );
                    let mut client = fx.client();
                    std::thread::spawn(move || client.roundtrip(&frame))
                })
                .collect();
            let mut shed_here = 0u64;
            for h in parked.into_iter().chain(others) {
                let resp = h
                    .join()
                    .map_err(|_| "burst client thread panicked".to_string())?
                    .map_err(|e| format!("burst roundtrip failed (possible stall): {e}"))?;
                match resp {
                    Response::Translated { body, .. } => {
                        check_trace(body.trace.as_ref(), 1, "burst translated")?;
                        report.traced += 1;
                    }
                    Response::Error { error, trace, .. } => match error.kind {
                        ErrorKind::Overload => {
                            // Shed before admission: there is nothing to trace.
                            if trace.is_some() {
                                return Err("shed response carries a trace digest".into());
                            }
                            shed_here += 1;
                        }
                        ErrorKind::TranslateFailed => {
                            check_trace(trace.as_ref(), 1, "burst translate_failed")?;
                            report.traced += 1;
                        }
                        ErrorKind::DeadlineExceeded => {
                            if trace.is_none() {
                                return Err("burst deadline rejection has no trace".into());
                            }
                            report.traced += 1;
                        }
                        other => {
                            return Err(format!("burst got unexpected rejection: {other:?}"))
                        }
                    },
                    other => return Err(format!("burst got unexpected frame: {other:?}")),
                }
            }
            if shed_here == 0 {
                return Err("burst overflowed the queue but nothing was shed".into());
            }
            report.shed += shed_here;
            Ok(format!("burst: {shed_here}/{burst} shed, all answered"))
        }
        // ------------------------------------------ concurrent: side-by-side identity
        80..=89 => {
            report.concurrent += 1;
            // Two or three clean requests fired simultaneously, so both
            // workers translate at once; each must be bit-identical to its
            // reference. Requests may repeat a question.
            let k = rng.gen_range(2..=3usize);
            let mut requests = Vec::with_capacity(k);
            for m in 0..k {
                let idx = rng.gen_range(0..n_all);
                let s = if idx < n_train {
                    &fx.corpus.train[idx]
                } else {
                    &fx.corpus.dev[idx - n_train]
                };
                let mdb = fx.corpus.db(s);
                let expect = fx
                    .reference
                    .try_translate(mdb, &s.question, Some(&s.values))
                    .map_err(|e| format!("reference failed on concurrent request {m}: {e}"))?;
                requests.push((mdb.schema().db_id.clone(), s, expect));
            }
            // A seeded 40% of cases add a request that panics its worker at
            // a seeded stage: the panic must not leak into the requests above.
            let panic_stage = (rng.gen_range(0..10u32) < 4)
                .then(|| ALLOWED_PANIC_STAGES[rng.gen_range(0..ALLOWED_PANIC_STAGES.len())]);

            let fault_handle = panic_stage.map(|stage| {
                report.injected_panics += 1;
                let frame = translate_frame(
                    rid + 50,
                    &db_name,
                    &sample.question,
                    None,
                    Some(&sample.values),
                    Some(&FaultSpec {
                        panic_stage: Some(stage),
                        panic_times: 1,
                        ..Default::default()
                    }),
                );
                let mut client = fx.client();
                std::thread::spawn(move || client.roundtrip(&frame))
            });
            let handles: Vec<_> = requests
                .iter()
                .enumerate()
                .map(|(m, (db_id, s, _))| {
                    let frame = translate_frame(
                        rid + m as i64,
                        db_id,
                        &s.question,
                        None,
                        Some(&s.values),
                        None,
                    );
                    let mut client = fx.client();
                    std::thread::spawn(move || client.roundtrip(&frame))
                })
                .collect();

            // Clean requests: bit-identical, untouched by the other
            // request's panic — no retries, not degraded, answered once.
            for (m, (h, (_, _, expect))) in handles.into_iter().zip(&requests).enumerate() {
                let resp = h
                    .join()
                    .map_err(|_| "concurrent client thread panicked".to_string())?
                    .map_err(|e| format!("concurrent request {m} roundtrip failed: {e}"))?;
                match (expect.sql.as_ref(), resp) {
                    (Some(_), Response::Translated { body, .. }) => {
                        if body.degraded || body.retries != 0 {
                            return Err(format!(
                                "concurrent request {m} caught another request's fault \
                                 (retries {}, degraded {})",
                                body.retries, body.degraded
                            ));
                        }
                        check_trace(body.trace.as_ref(), 1, "concurrent request")?;
                        report.traced += 1;
                        check_identical(expect, &body, &format!("concurrent request {m}"))?;
                        report.concurrent_identical += 1;
                    }
                    (None, Response::Error { error, trace, .. })
                        if error.kind == ErrorKind::TranslateFailed =>
                    {
                        check_trace(trace.as_ref(), 1, "concurrent request translate_failed")?;
                        report.traced += 1;
                        report.concurrent_identical += 1;
                    }
                    (gold, got) => {
                        return Err(format!(
                            "concurrent request {m} outcome mismatch: reference sql {:?}, \
                             served {:?}",
                            gold.map(|s| s.to_string()),
                            got
                        ))
                    }
                }
            }

            // The faulty request recovers on the degraded path.
            if let Some(h) = fault_handle {
                let resp = h
                    .join()
                    .map_err(|_| "faulty client thread panicked".to_string())?
                    .map_err(|e| format!("faulty request roundtrip failed: {e}"))?;
                let trace = match resp {
                    Response::Translated { body, .. } => {
                        if body.retries == 0 || !body.degraded {
                            return Err(format!(
                                "faulty request answered without degraded retry \
                                 (retries {}, degraded {})",
                                body.retries, body.degraded
                            ));
                        }
                        body.trace
                    }
                    Response::Error { error, trace, .. }
                        if error.kind == ErrorKind::TranslateFailed =>
                    {
                        trace
                    }
                    other => return Err(format!("faulty request not recovered: {other:?}")),
                };
                check_trace(trace.as_ref(), 2, "faulty request")?;
                report.traced += 1;
                report.recovered += 1;
            }
            Ok(match panic_stage {
                Some(stage) => format!(
                    "concurrent: {k} identical, panic at {} isolated",
                    stage.label()
                ),
                None => format!("concurrent: {k} identical"),
            })
        }
        // ----------------------------------------------- malformed protocol
        _ => {
            report.malformed += 1;
            let garbage = MALFORMED_FRAMES[rng.gen_range(0..MALFORMED_FRAMES.len())];
            let mut client = fx.client();
            let resp = client
                .roundtrip_raw(garbage)
                .map_err(|e| format!("malformed-frame roundtrip failed: {e}"))?;
            match resp {
                Response::Error { error, .. } if error.kind == ErrorKind::BadRequest => {}
                other => return Err(format!("garbage frame not rejected: {other:?}")),
            }
            // The same connection must still serve real traffic.
            match client
                .roundtrip(&verb_frame(rid, "ping"))
                .map_err(|e| format!("post-garbage ping failed: {e}"))?
            {
                Response::Pong { .. } => Ok("malformed frame rejected, connection intact".into()),
                other => Err(format!("connection wedged after garbage: {other:?}")),
            }
        }
    }
}

/// Stages panics may target. `Execute` is excluded for the same reason as
/// in [`ALWAYS_STAGES`]; a panic there is still covered by the engine's
/// unit tests.
const ALLOWED_PANIC_STAGES: [Stage; 4] = ALWAYS_STAGES;

/// Malformed wire frames the protocol must survive.
const MALFORMED_FRAMES: [&str; 8] = [
    "not json at all",
    "{\"unterminated\": \"",
    "[]",
    "{}",
    "{\"id\":\"string\",\"verb\":\"ping\"}",
    "{\"id\":9,\"verb\":\"warp_drive\"}",
    "{\"id\":9,\"verb\":\"translate\",\"db\":7,\"question\":\"q\"}",
    "{\"id\":9,\"verb\":\"translate\",\"db\":\"d\",\"question\":\"q\",\"fault\":{\"panic_stage\":\"nope\",\"panic_times\":1}}",
];

/// Runs the full serve-mode fuzz: fixture up, `cfg.cases` seeded cases,
/// pool-invariant epilogue, fixture down.
pub fn run_serve_fuzz(cfg: &ServeFuzzConfig) -> ServeFuzzReport {
    let _span = valuenet_obs::span("serve_fuzz");
    let fx = ServeFixture::start();
    let mut report = ServeFuzzReport { cases: cfg.cases, ..Default::default() };
    for i in 0..cfg.cases {
        let seed = case_seed(cfg.seed, i as u64);
        let _case = valuenet_obs::span("serve_fuzz.case");
        if let Err(desc) = run_serve_case(&fx, &mut report, seed) {
            report.failures.push((seed, desc));
        }
    }
    if report.cases > 0 && report.traced == 0 {
        report.failures.push((0, "no response carried a verified trace digest".into()));
    }
    fx.finish(&mut report);
    report
}
