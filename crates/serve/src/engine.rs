//! The serving engine: a bounded-queue worker pool around one loaded
//! [`Pipeline`].
//!
//! Request lifecycle:
//!
//! ```text
//! submit ──admission──▶ queue ──dequeue──▶ worker attempt ──▶ reply
//!            │(shed)      │(deadline)        │catch_unwind
//!            ▼            ▼                  ▼panic
//!         Overload   DeadlineExceeded   quarantine? ──yes──▶ Quarantined
//!                                          │no
//!                                          ▼
//!                               backoff + requeue (degraded scalar path),
//!                               worker respawns itself
//! ```
//!
//! Robustness invariants the fault harness asserts:
//!
//! * **Shed, don't stall** — a full queue rejects immediately with a typed
//!   [`ErrorKind::Overload`]; nothing blocks the socket thread.
//! * **Deadlines are enforced at dequeue and at every pipeline stage
//!   boundary** (via [`Pipeline::try_translate_guarded`]), so an expired
//!   request never occupies a worker for a full translation.
//! * **Panic isolation** — a worker panic (injected or real) is caught,
//!   the worker thread is replaced, and the request either retries with
//!   exponential backoff on the scalar degradation path or — after
//!   [`QuarantinePolicy::max_worker_kills`] kills — is quarantined.
//! * **Every admitted request is answered exactly once**; workers only
//!   exit on shutdown or panic-respawn, so no job is silently dropped.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::admission::{AdmissionPolicy, Deadline, QuarantinePolicy, RetryPolicy};
use crate::fault::FaultSpec;
use crate::protocol::{ErrorKind, Response, ServeError, Translated, TraceSummary};
use valuenet_core::{Pipeline, PipelineError, PreparedRequest, Stage, StageTimings, ValueNetModel};
use valuenet_obs::json::Json;
use valuenet_obs::trace::{install_ctx, AttemptTrace, RequestTrace, SpanCtx};
use valuenet_obs::{bucket_index, percentile_from_counts, FlightRecorder, SloPolicy, NBUCKETS};
use valuenet_storage::Database;

/// Worker threads are named with this prefix; the quiet panic hook uses it
/// to suppress the default panic banner for isolated (caught) panics.
const WORKER_PREFIX: &str = "vn-serve-worker";

// Tracing mirrors of the always-on engine stats: when the obs layer is
// enabled (OBS=1 / OBS_JSONL), shed/deadline/panic totals appear in the
// span summary and each attempt runs under a `serve.request` span.
static OBS_SHED: valuenet_obs::Counter = valuenet_obs::Counter::new("serve.shed");
static OBS_DEADLINE_MISSED: valuenet_obs::Counter =
    valuenet_obs::Counter::new("serve.deadline_missed");
static OBS_WORKER_PANICS: valuenet_obs::Counter =
    valuenet_obs::Counter::new("serve.worker_panics");
static OBS_QUARANTINED: valuenet_obs::Counter = valuenet_obs::Counter::new("serve.quarantined");

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Default per-request deadline budget in milliseconds (`0` = none);
    /// requests may override it.
    pub default_deadline_ms: u64,
    /// Longest accepted question, in characters.
    pub max_question_chars: usize,
    /// Retry/backoff policy for panicked requests.
    pub retry: RetryPolicy,
    /// Poisoned-request quarantine policy.
    pub quarantine: QuarantinePolicy,
    /// Whether requests may carry [`FaultSpec`] directives (harness only).
    pub allow_fault_injection: bool,
    /// Flight-recorder capacity (retained request traces, split between
    /// clean and terminal-failure rings).
    pub flight_capacity: usize,
    /// Service-level objectives evaluated by the `stats` verb.
    pub slo: SloPolicy,
    /// Cross-request batching window in µs (`0` = decode every request
    /// alone, the pre-batching behaviour). With a window, a worker that
    /// dequeues a request keeps collecting concurrently queued requests for
    /// up to this long and decodes them in one fused pass.
    pub batch_window_us: u64,
    /// Most requests a single decode batch may carry; reaching it flushes
    /// the batch before the window expires.
    pub batch_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 0,
            max_question_chars: 8192,
            retry: RetryPolicy { max_retries: 2, base_ms: 10, cap_ms: 200 },
            quarantine: QuarantinePolicy { max_worker_kills: 2 },
            allow_fault_injection: false,
            flight_capacity: 256,
            slo: SloPolicy::default(),
            batch_window_us: 0,
            batch_max: 8,
        }
    }
}

/// A translate submission (the engine-side mirror of the protocol's
/// `translate` verb).
#[derive(Debug, Clone, Default)]
pub struct TranslateJob {
    /// Correlation id, echoed in the response.
    pub id: Option<i64>,
    /// Database name.
    pub db: String,
    /// The question.
    pub question: String,
    /// Deadline budget override (`None` = server default, `Some(0)` = none).
    pub deadline_ms: Option<u64>,
    /// Gold value options (ValueNet-light).
    pub gold_values: Option<Vec<String>>,
    /// Fault directives (rejected unless the server allows injection).
    pub fault: Option<FaultSpec>,
}

/// One queued request attempt.
struct Job {
    id: Option<i64>,
    db: String,
    question: String,
    deadline: Deadline,
    gold_values: Option<Vec<String>>,
    fault: Option<FaultSpec>,
    reply: mpsc::Sender<Response>,
    /// Submission time (µs on the engine epoch) — end-to-end latency base.
    submitted_us: u64,
    /// Last (re-)enqueue time, for the queue-wait histogram.
    enqueued_us: u64,
    /// Earliest dequeue time (ms) — retry backoff.
    not_before_ms: u64,
    /// Worker panics this request has caused so far.
    panics: u32,
    /// Whether the next attempt runs on the scalar degradation path.
    degraded: bool,
    /// The request's trace, carried across retries so stage events from a
    /// panicked attempt and its degraded retry land in one span tree.
    /// `None` once [`finish_trace`] has filed it.
    trace: Option<RequestTrace>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
    live_workers: usize,
    spawned_total: u64,
}

/// An always-on latency histogram (the obs `Histogram` no-ops when tracing
/// is disabled, but the `stats` verb must work regardless), sharing the obs
/// crate's bucket layout and percentile arithmetic.
struct ServeHist {
    counts: [AtomicU64; NBUCKETS],
}

impl ServeHist {
    fn new() -> Self {
        ServeHist { counts: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn record_us(&self, us: u64) {
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Percentile summary of a bucket-count vector (cumulative snapshot or
    /// a delta window — same arithmetic).
    fn json_from_counts(counts: &[u64]) -> Json {
        let total: u64 = counts.iter().sum();
        Json::obj(vec![
            ("count", Json::Int(total as i64)),
            ("p50_us", Json::Num(percentile_from_counts(counts, 0.50))),
            ("p90_us", Json::Num(percentile_from_counts(counts, 0.90))),
            ("p99_us", Json::Num(percentile_from_counts(counts, 0.99))),
        ])
    }
}

/// Always-on serving counters and per-stage latency histograms, surfaced by
/// the protocol's `stats` verb.
pub struct EngineStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    retries: AtomicU64,
    degraded_completions: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    // Rejections, by taxonomy class.
    shed: AtomicU64,
    bad_request: AtomicU64,
    unknown_db: AtomicU64,
    deadline_missed: AtomicU64,
    translate_failed: AtomicU64,
    quarantined: AtomicU64,
    internal: AtomicU64,
    shutting_down: AtomicU64,
    // Latencies (µs).
    total: ServeHist,
    queue_wait: ServeHist,
    stage_hists: [ServeHist; Stage::ALL.len()],
    // Cross-request batching (all zero while batching is disabled; degraded
    // scalar retries decode alone and are not counted as batches).
    batches: AtomicU64,
    batch_members: AtomicU64,
    batch_window_flushes: AtomicU64,
    batch_size_flushes: AtomicU64,
    batch_occupancy: ServeHist,
}

impl EngineStats {
    fn new() -> Self {
        EngineStats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded_completions: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            bad_request: AtomicU64::new(0),
            unknown_db: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            translate_failed: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            shutting_down: AtomicU64::new(0),
            total: ServeHist::new(),
            queue_wait: ServeHist::new(),
            stage_hists: std::array::from_fn(|_| ServeHist::new()),
            batches: AtomicU64::new(0),
            batch_members: AtomicU64::new(0),
            batch_window_flushes: AtomicU64::new(0),
            batch_size_flushes: AtomicU64::new(0),
            batch_occupancy: ServeHist::new(),
        }
    }

    fn count_rejection(&self, kind: ErrorKind) {
        match kind {
            ErrorKind::Overload => OBS_SHED.add(1),
            ErrorKind::DeadlineExceeded => OBS_DEADLINE_MISSED.add(1),
            ErrorKind::Quarantined => OBS_QUARANTINED.add(1),
            _ => {}
        }
        let c = match kind {
            ErrorKind::Overload => &self.shed,
            ErrorKind::BadRequest => &self.bad_request,
            ErrorKind::UnknownDb => &self.unknown_db,
            ErrorKind::DeadlineExceeded => &self.deadline_missed,
            ErrorKind::TranslateFailed => &self.translate_failed,
            ErrorKind::Quarantined => &self.quarantined,
            ErrorKind::Internal => &self.internal,
            ErrorKind::ShuttingDown => &self.shutting_down,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn record_stages(&self, t: &StageTimings) {
        let us = [
            t.pre_processing,
            t.value_lookup,
            t.encoder_decoder,
            t.post_processing,
            t.query_execution,
        ];
        for (hist, d) in self.stage_hists.iter().zip(us) {
            hist.record_us(d.as_micros() as u64);
        }
    }

    /// Number of requests shed by admission control.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Number of worker panics caught (injected or real).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Number of replacement workers spawned after panics.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Number of requests answered successfully.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Number of deadline rejections (queued or mid-pipeline).
    pub fn deadline_missed(&self) -> u64 {
        self.deadline_missed.load(Ordering::Relaxed)
    }

    /// Number of quarantined (poisoned) requests.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Number of decode batches formed (0 while batching is disabled).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Total requests carried by those batches; `batch_members / batches`
    /// is the mean batch occupancy.
    pub fn batch_members(&self) -> u64 {
        self.batch_members.load(Ordering::Relaxed)
    }

    /// Bucket counts of the batch-occupancy histogram (obs bucket layout —
    /// feed to `valuenet_obs::percentile_from_counts`).
    pub fn batch_occupancy_counts(&self) -> Vec<u64> {
        self.batch_occupancy.counts()
    }

    fn record_batch(&self, occupancy: usize, size_flush: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_members.fetch_add(occupancy as u64, Ordering::Relaxed);
        self.batch_occupancy.record_us(occupancy as u64);
        let c = if size_flush { &self.batch_size_flushes } else { &self.batch_window_flushes };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// A coherent copy of every monotonic counter and histogram — the unit
    /// of the `stats` verb's snapshot-and-diff delta windows.
    fn window(&self) -> StatsWindow {
        StatsWindow {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded_completions: self.degraded_completions.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_request: self.bad_request.load(Ordering::Relaxed),
            unknown_db: self.unknown_db.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            translate_failed: self.translate_failed.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            internal: self.internal.load(Ordering::Relaxed),
            shutting_down: self.shutting_down.load(Ordering::Relaxed),
            total: self.total.counts(),
            queue_wait: self.queue_wait.counts(),
            stages: self.stage_hists.iter().map(ServeHist::counts).collect(),
            batches: self.batches.load(Ordering::Relaxed),
            batch_members: self.batch_members.load(Ordering::Relaxed),
            batch_window_flushes: self.batch_window_flushes.load(Ordering::Relaxed),
            batch_size_flushes: self.batch_size_flushes.load(Ordering::Relaxed),
            batch_occupancy: self.batch_occupancy.counts(),
        }
    }
}

/// One snapshot of the monotonic serving stats. Cumulative `stats` renders
/// the current snapshot directly; delta `stats` renders `current − base`
/// and advances the base (interval semantics).
#[derive(Clone, Default)]
struct StatsWindow {
    submitted: u64,
    completed: u64,
    retries: u64,
    degraded_completions: u64,
    worker_panics: u64,
    worker_respawns: u64,
    shed: u64,
    bad_request: u64,
    unknown_db: u64,
    deadline_missed: u64,
    translate_failed: u64,
    quarantined: u64,
    internal: u64,
    shutting_down: u64,
    total: Vec<u64>,
    queue_wait: Vec<u64>,
    stages: Vec<Vec<u64>>,
    batches: u64,
    batch_members: u64,
    batch_window_flushes: u64,
    batch_size_flushes: u64,
    batch_occupancy: Vec<u64>,
}

impl StatsWindow {
    /// Element-wise `self − base`. Counters are monotonic, so saturating
    /// subtraction only guards against torn relaxed reads.
    fn since(&self, base: &StatsWindow) -> StatsWindow {
        let sub = |a: u64, b: u64| a.saturating_sub(b);
        let sub_vec = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .zip(b.iter().chain(std::iter::repeat(&0)))
                .map(|(x, y)| x.saturating_sub(*y))
                .collect()
        };
        StatsWindow {
            submitted: sub(self.submitted, base.submitted),
            completed: sub(self.completed, base.completed),
            retries: sub(self.retries, base.retries),
            degraded_completions: sub(self.degraded_completions, base.degraded_completions),
            worker_panics: sub(self.worker_panics, base.worker_panics),
            worker_respawns: sub(self.worker_respawns, base.worker_respawns),
            shed: sub(self.shed, base.shed),
            bad_request: sub(self.bad_request, base.bad_request),
            unknown_db: sub(self.unknown_db, base.unknown_db),
            deadline_missed: sub(self.deadline_missed, base.deadline_missed),
            translate_failed: sub(self.translate_failed, base.translate_failed),
            quarantined: sub(self.quarantined, base.quarantined),
            internal: sub(self.internal, base.internal),
            shutting_down: sub(self.shutting_down, base.shutting_down),
            total: sub_vec(&self.total, &base.total),
            queue_wait: sub_vec(&self.queue_wait, &base.queue_wait),
            stages: self
                .stages
                .iter()
                .enumerate()
                .map(|(i, s)| sub_vec(s, base.stages.get(i).map_or(&[][..], Vec::as_slice)))
                .collect(),
            batches: sub(self.batches, base.batches),
            batch_members: sub(self.batch_members, base.batch_members),
            batch_window_flushes: sub(self.batch_window_flushes, base.batch_window_flushes),
            batch_size_flushes: sub(self.batch_size_flushes, base.batch_size_flushes),
            batch_occupancy: sub_vec(&self.batch_occupancy, &base.batch_occupancy),
        }
    }
}

struct Shared {
    pipeline: Pipeline,
    dbs: HashMap<String, Database>,
    cfg: ServeConfig,
    epoch: Instant,
    q: Mutex<QueueState>,
    cond: Condvar,
    /// Batch token: with a batching window configured, the holder runs
    /// [`next_batch`] *and* the decode, so exactly one batch is in flight at
    /// a time. Arrivals accumulate in the queue while the current batch
    /// computes and the next batch fills instantly from the backlog, instead
    /// of the stream being sharded into fragments by however many workers
    /// were idle at that moment (which also thrashes the cache with
    /// concurrent decode tapes). Extra workers exist to absorb panics —
    /// a replacement takes the token over from a dead holder.
    assembler: Mutex<()>,
    stats: EngineStats,
    /// Retained request traces (the `trace` verb's source of truth).
    flight: FlightRecorder,
    /// JSONL path quarantined traces are auto-dumped to (`OBS_FLIGHT_DUMP`).
    flight_dump: Option<String>,
    /// Base snapshot for delta-window `stats` (see [`StatsWindow`]).
    stats_base: Mutex<StatsWindow>,
}

/// The long-lived serving engine. Dropping it shuts the worker pool down.
pub struct Engine {
    shared: Arc<Shared>,
}

impl Engine {
    /// Loads the pipeline into a worker pool and starts serving.
    ///
    /// # Panics
    /// If `cfg.workers` is zero or a worker thread cannot be spawned.
    pub fn start(pipeline: Pipeline, databases: Vec<Database>, cfg: ServeConfig) -> Engine {
        assert!(cfg.workers > 0, "serve engine needs at least one worker");
        install_quiet_panic_hook();
        let dbs = databases
            .into_iter()
            .map(|db| (db.schema().db_id.clone(), db))
            .collect::<HashMap<_, _>>();
        let shared = Arc::new(Shared {
            pipeline,
            dbs,
            cfg,
            epoch: Instant::now(),
            q: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
                live_workers: 0,
                spawned_total: 0,
            }),
            cond: Condvar::new(),
            assembler: Mutex::new(()),
            stats: EngineStats::new(),
            flight: FlightRecorder::new(cfg.flight_capacity.max(2)),
            flight_dump: std::env::var("OBS_FLIGHT_DUMP").ok().filter(|s| !s.is_empty()),
            stats_base: Mutex::new(StatsWindow::default()),
        });
        for _ in 0..cfg.workers {
            spawn_worker(&shared);
        }
        Engine { shared }
    }

    /// Milliseconds since the engine epoch (the deadline clock).
    pub fn now_ms(&self) -> u64 {
        ms_since(self.shared.epoch)
    }

    /// Registered database names.
    pub fn database_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.dbs.keys().cloned().collect();
        names.sort();
        names
    }

    /// Currently live worker threads.
    pub fn live_workers(&self) -> usize {
        self.shared.q.lock().unwrap().live_workers
    }

    /// Currently queued (not yet dequeued) requests.
    pub fn queue_depth(&self) -> usize {
        self.shared.q.lock().unwrap().jobs.len()
    }

    /// Serving counters and histograms.
    pub fn stats(&self) -> &EngineStats {
        &self.shared.stats
    }

    /// Submits a translate request. Synchronous rejections (validation,
    /// admission, shutdown) return `Err`; admitted requests return the
    /// receiver their response will arrive on — exactly one response per
    /// admitted request.
    ///
    /// # Errors
    /// [`ErrorKind::BadRequest`], [`ErrorKind::UnknownDb`],
    /// [`ErrorKind::Overload`] or [`ErrorKind::ShuttingDown`].
    pub fn submit(&self, req: TranslateJob) -> Result<mpsc::Receiver<Response>, ServeError> {
        let sh = &self.shared;
        sh.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let reject = |kind: ErrorKind, detail: String| {
            sh.stats.count_rejection(kind);
            Err(ServeError::new(kind, detail))
        };
        if req.fault.is_some() && !sh.cfg.allow_fault_injection {
            return reject(
                ErrorKind::BadRequest,
                "fault injection is not enabled on this server".into(),
            );
        }
        if req.question.trim().is_empty() {
            return reject(ErrorKind::BadRequest, "empty question".into());
        }
        if req.question.chars().count() > sh.cfg.max_question_chars {
            return reject(
                ErrorKind::BadRequest,
                format!("question exceeds {} characters", sh.cfg.max_question_chars),
            );
        }
        if !sh.dbs.contains_key(&req.db) {
            return reject(ErrorKind::UnknownDb, format!("unknown database `{}`", req.db));
        }
        let now_ms = ms_since(sh.epoch);
        let now_us = us_since(sh.epoch);
        let budget = req.deadline_ms.unwrap_or(sh.cfg.default_deadline_ms);
        let mut trace = RequestTrace::new(req.id, req.db.clone(), budget);
        // Injected faults are attributed up front: if this request later
        // panics a worker, the flight recorder shows what was asked for.
        if let Some(f) = &req.fault {
            if !f.is_noop() {
                trace.fault = Some(format!("injected: {}", f.render().render()));
            }
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id: req.id,
            db: req.db,
            question: req.question,
            deadline: Deadline::from_budget(now_ms, budget),
            gold_values: req.gold_values,
            fault: req.fault,
            reply: tx,
            submitted_us: now_us,
            enqueued_us: now_us,
            not_before_ms: 0,
            panics: 0,
            degraded: false,
            trace: Some(trace),
        };
        let admission = AdmissionPolicy { capacity: sh.cfg.queue_capacity };
        {
            let mut q = sh.q.lock().unwrap();
            if q.shutting_down {
                drop(q);
                return reject(ErrorKind::ShuttingDown, "server is shutting down".into());
            }
            if !admission.admit(q.jobs.len()) {
                drop(q);
                return reject(
                    ErrorKind::Overload,
                    format!("queue full ({} queued)", sh.cfg.queue_capacity),
                );
            }
            q.jobs.push_back(job);
        }
        sh.cond.notify_one();
        Ok(rx)
    }

    /// Submits and waits for the response (rejections become typed error
    /// responses carrying the request id).
    pub fn translate_blocking(&self, req: TranslateJob) -> Response {
        let id = req.id;
        match self.submit(req) {
            Ok(rx) => rx.recv().unwrap_or_else(|_| {
                // A dropped sender without a reply would be an engine bug;
                // surface it as a typed internal error, never a hang.
                self.shared.stats.count_rejection(ErrorKind::Internal);
                Response::Error {
                    id,
                    error: ServeError::new(ErrorKind::Internal, "reply channel closed"),
                    trace: None,
                }
            }),
            Err(error) => Response::Error { id, error, trace: None },
        }
    }

    /// The `stats` verb payload. Cumulative by default; with `delta` the
    /// counters and histograms cover only the interval since the previous
    /// delta call (snapshot-and-diff), while the worker/queue gauges stay
    /// instantaneous either way.
    pub fn stats_json(&self, delta: bool) -> Json {
        let sh = &self.shared;
        let (depth, live) = {
            let q = sh.q.lock().unwrap();
            (q.jobs.len(), q.live_workers)
        };
        let cur = sh.stats.window();
        let (win, window_label) = if delta {
            let mut base = sh.stats_base.lock().unwrap();
            let d = cur.since(&base);
            *base = cur;
            (d, "delta")
        } else {
            (cur, "cumulative")
        };
        let int = |v: u64| Json::Int(v as i64);
        let mut latencies: Vec<(&str, Json)> = vec![
            ("total", ServeHist::json_from_counts(&win.total)),
            ("queue_wait", ServeHist::json_from_counts(&win.queue_wait)),
        ];
        for (stage, counts) in Stage::ALL.iter().zip(&win.stages) {
            latencies.push((stage.label(), ServeHist::json_from_counts(counts)));
        }
        // SLO eligibility: the server's own failures burn the budget; client
        // errors (bad_request, unknown_db) and orderly shutdown do not.
        let good = win.completed + win.translate_failed;
        let bad = win.shed + win.deadline_missed + win.quarantined + win.internal;
        let slo = sh.cfg.slo.evaluate(window_label, good, good + bad, &win.total);
        Json::obj(vec![
            ("window", Json::Str(window_label.into())),
            (
                "workers",
                Json::obj(vec![
                    ("configured", Json::Int(sh.cfg.workers as i64)),
                    ("live", Json::Int(live as i64)),
                    ("panics", int(win.worker_panics)),
                    ("respawns", int(win.worker_respawns)),
                ]),
            ),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::Int(depth as i64)),
                    ("capacity", Json::Int(sh.cfg.queue_capacity as i64)),
                ]),
            ),
            (
                "requests",
                Json::obj(vec![
                    ("submitted", int(win.submitted)),
                    ("completed", int(win.completed)),
                    ("retries", int(win.retries)),
                    ("degraded_completions", int(win.degraded_completions)),
                ]),
            ),
            (
                "rejections",
                Json::obj(vec![
                    ("overload", int(win.shed)),
                    ("bad_request", int(win.bad_request)),
                    ("unknown_db", int(win.unknown_db)),
                    ("deadline_exceeded", int(win.deadline_missed)),
                    ("translate_failed", int(win.translate_failed)),
                    ("quarantined", int(win.quarantined)),
                    ("internal", int(win.internal)),
                    ("shutting_down", int(win.shutting_down)),
                ]),
            ),
            ("latency_us", Json::Obj(
                latencies.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            )),
            (
                "batching",
                Json::obj(vec![
                    ("window_us", Json::Int(sh.cfg.batch_window_us as i64)),
                    ("batch_max", Json::Int(sh.cfg.batch_max as i64)),
                    ("batches", int(win.batches)),
                    ("members", int(win.batch_members)),
                    ("window_flushes", int(win.batch_window_flushes)),
                    ("size_flushes", int(win.batch_size_flushes)),
                    (
                        "occupancy",
                        Json::obj(vec![
                            (
                                "mean",
                                Json::Num(if win.batches == 0 {
                                    0.0
                                } else {
                                    win.batch_members as f64 / win.batches as f64
                                }),
                            ),
                            ("p50", Json::Num(percentile_from_counts(&win.batch_occupancy, 0.50))),
                            ("p99", Json::Num(percentile_from_counts(&win.batch_occupancy, 0.99))),
                        ]),
                    ),
                ]),
            ),
            ("slo", slo.to_json(&sh.cfg.slo, None)),
            (
                "flight",
                Json::obj(vec![
                    ("recorded", Json::Int(sh.flight.recorded() as i64)),
                    ("capacity", Json::Int(sh.cfg.flight_capacity as i64)),
                ]),
            ),
        ])
    }

    /// The `trace` verb payload: retained flight-recorder traces, optionally
    /// filtered to one `trace_id` or truncated to the newest `last`.
    pub fn traces_json(&self, trace_id: Option<u64>, last: Option<usize>) -> Json {
        self.shared.flight.to_json(trace_id, last)
    }

    /// The flight recorder (test and harness access).
    pub fn flight(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// Graceful shutdown: stop admitting, drain the queue, wait for every
    /// worker (including respawn replacements) to exit. Idempotent.
    pub fn shutdown(&self) {
        let sh = &self.shared;
        let mut q = sh.q.lock().unwrap();
        q.shutting_down = true;
        sh.cond.notify_all();
        while q.live_workers > 0 {
            let (guard, _) = sh
                .cond
                .wait_timeout(q, Duration::from_millis(200))
                .unwrap();
            q = guard;
            sh.cond.notify_all();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn ms_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

fn us_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

/// Installs a process-wide panic hook that silences the default banner for
/// worker threads (their panics are caught and handled); all other threads
/// keep the previous hook.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let is_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_PREFIX));
            if !is_worker {
                prev(info);
            }
        }));
    });
}

fn spawn_worker(shared: &Arc<Shared>) {
    {
        let mut q = shared.q.lock().unwrap();
        q.live_workers += 1;
        q.spawned_total += 1;
    }
    let idx = shared.q.lock().unwrap().spawned_total;
    let sh = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("{WORKER_PREFIX}-{idx}"))
        .spawn(move || {
            let panicked = worker_loop(&sh);
            if panicked {
                sh.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
                spawn_worker(&sh);
            }
            let mut q = sh.q.lock().unwrap();
            q.live_workers -= 1;
            drop(q);
            sh.cond.notify_all();
        })
        .expect("failed to spawn serve worker");
}

/// Runs batches until shutdown (returns `false`) or a caught panic
/// (returns `true`; the caller respawns a replacement and lets this thread
/// die, so any thread-local state the panic may have wedged is discarded).
fn worker_loop(sh: &Arc<Shared>) -> bool {
    if sh.cfg.batch_window_us > 0 {
        // One batch in flight at a time: the token holder runs assembly *and*
        // decode, and keeps the token for its whole life, so one worker with
        // warm thread-local state (decode tape, packed-weight cache) processes
        // every batch instead of the stream being sharded into fragments — or
        // decoded on rotating cold threads — by however many workers were idle
        // at that moment. Arrivals accumulate in the queue while the current
        // batch computes, and the next batch then fills straight from the
        // backlog; the window is only ever waited out when load is light. The
        // other workers sleep here until the holder dies (panic or shutdown)
        // and one of them takes over. (A poisoned token just means the holder
        // panicked mid-batch; batch state lives in the queue, so it is always
        // safe to take over.)
        let _token = sh.assembler.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let Some(jobs) = next_batch(sh) else { return false };
            if process_batch(sh, jobs) {
                return true;
            }
        }
    }
    loop {
        let Some(jobs) = next_batch(sh) else { return false };
        if process_batch(sh, jobs) {
            return true;
        }
    }
}

/// One batch member mid-flight: its job, the queue wait recorded at
/// dequeue, the attempt's ambient trace context (kept installed-on-demand
/// across all three phases so the open `encode_decode` stage spans the
/// shared decode), and — between the prepare and finish phases — its
/// prepared request.
struct Member<'a> {
    job: Job,
    queue_wait_us: u64,
    ctx: Option<SpanCtx>,
    prepared: Option<PreparedRequest<'a>>,
}

/// Drains the member's pending stage events into its trace (closing any
/// open stage). Call only when the attempt is over — settling or requeueing
/// — never between phases.
fn flush_ctx(job: &mut Job, ctx: &Option<SpanCtx>) {
    if let (Some(trace), Some(ctx)) = (job.trace.as_mut(), ctx.as_ref()) {
        trace.stages.extend(ctx.take_events());
    }
}

/// Returns an unprocessed co-batched member to the *front* of the queue
/// after another member panicked the worker: no reply has been sent, so the
/// request simply gets re-dispatched (and re-decoded) by a healthy worker.
/// Its own retry budget is untouched — it did nothing wrong.
fn requeue_innocent(sh: &Shared, mut member: Member<'_>) {
    flush_ctx(&mut member.job, &member.ctx);
    member.prepared = None;
    member.job.enqueued_us = us_since(sh.epoch);
    let mut q = sh.q.lock().unwrap();
    q.jobs.push_front(member.job);
    drop(q);
    sh.cond.notify_all();
}

/// Completes a member: stamps latency and the trace digest, records stats,
/// replies.
fn settle_ok(sh: &Shared, mut member: Member<'_>, mut body: Box<Translated>) {
    let latency = us_since(sh.epoch).saturating_sub(member.job.submitted_us);
    body.latency_us = latency;
    sh.stats.total.record_us(latency);
    sh.stats.completed.fetch_add(1, Ordering::Relaxed);
    if body.degraded {
        sh.stats.degraded_completions.fetch_add(1, Ordering::Relaxed);
    }
    record_attempt(&mut member.job, member.queue_wait_us, "ok", "");
    body.trace = finish_trace(sh, &mut member.job, "completed");
    let _ = member.job.reply.send(Response::Translated { id: member.job.id, body });
}

/// Rejects a member with a typed error.
fn settle_error(sh: &Shared, member: &mut Member<'_>, err: ServeError) {
    let label = if err.kind == ErrorKind::DeadlineExceeded { "deadline" } else { "error" };
    record_attempt(&mut member.job, member.queue_wait_us, label, &err.detail);
    reject_job(sh, &mut member.job, err.kind, err.detail);
}

/// Handles a member whose attempt panicked the worker: retry on the
/// degraded scalar path with backoff, or quarantine/fail when the budget is
/// spent. `count_event` attributes the underlying thread-panic to exactly
/// one member when a shared decode takes several members down together,
/// keeping `worker_panics == worker_respawns`.
fn settle_panic(sh: &Shared, mut member: Member<'_>, msg: String, count_event: bool) {
    if count_event {
        OBS_WORKER_PANICS.add(1);
        sh.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
    }
    let job = &mut member.job;
    record_attempt(job, member.queue_wait_us, "panic", &msg);
    if let Some(t) = job.trace.as_mut() {
        // Prefer the injected-fault attribution from admission;
        // a real (uninjected) panic attributes to its message.
        t.fault.get_or_insert(msg);
    }
    job.panics += 1;
    if sh.cfg.quarantine.quarantined(job.panics) {
        let detail = format!("request killed {} workers", job.panics);
        reject_job(sh, job, ErrorKind::Quarantined, detail);
    } else if sh.cfg.retry.allows_retry(job.panics) {
        sh.stats.retries.fetch_add(1, Ordering::Relaxed);
        job.degraded = true;
        job.not_before_ms =
            ms_since(sh.epoch).saturating_add(sh.cfg.retry.backoff_ms(job.panics));
        job.enqueued_us = us_since(sh.epoch);
        let mut q = sh.q.lock().unwrap();
        // Retries bypass admission: the request already holds its slot,
        // shedding it now would break at-most-once accounting.
        q.jobs.push_back(member.job);
        drop(q);
        sh.cond.notify_all();
    } else {
        reject_job(sh, job, ErrorKind::Internal, "retry budget exhausted".into());
    }
}

/// Processes one assembled batch through three phases — per-member prepare
/// (stage gates, faults, deadlines), one shared decode, per-member finish —
/// and settles every member exactly once. Returns `true` when a panic was
/// caught and the worker thread must be replaced.
///
/// Fault isolation: every injected fault fires at a stage gate, and all
/// stage gates run in the per-member prepare/finish phases, each under its
/// own `catch_unwind` — so a faulted member can never poison a co-batched
/// request's *result*. On any caught panic the batch is abandoned the way
/// the single-request engine abandons its job: the panicking member is
/// settled (retry/quarantine), unfinished co-batched members go back to the
/// queue front for a healthy worker, and this thread dies (its thread-local
/// state may be wedged).
fn process_batch(sh: &Arc<Shared>, jobs: Vec<Job>) -> bool {
    let mut pending: VecDeque<Job> = jobs.into();
    let mut members: Vec<Member<'_>> = Vec::with_capacity(pending.len());

    // Phase A: per-member admission-to-prepared, each under its own
    // catch_unwind with its own trace context installed.
    while let Some(mut job) = pending.pop_front() {
        let now_ms = ms_since(sh.epoch);
        let queue_wait_us = us_since(sh.epoch).saturating_sub(job.enqueued_us);
        if job.deadline.expired(now_ms) {
            // Spent its budget in the queue: answer without running a stage.
            record_attempt(&mut job, queue_wait_us, "deadline", "deadline expired in queue");
            reject_job(sh, &mut job, ErrorKind::DeadlineExceeded, "deadline expired in queue".into());
            continue;
        }
        sh.stats.queue_wait.record_us(queue_wait_us);
        // The attempt's stage events are recorded through an ambient context
        // whose buffer is shared (Arc) with this scope — a panic unwinding
        // the attempt cannot lose them, and the guard uninstalls either way.
        let ctx = job.trace.as_ref().map(|t| SpanCtx::new(t.trace_id, job.panics));
        let outcome = {
            let _span = valuenet_obs::span("serve.request");
            let _ctx_guard = ctx.as_ref().map(install_ctx);
            catch_unwind(AssertUnwindSafe(|| prepare_attempt(sh, &job)))
        };
        let mut member = Member { job, queue_wait_us, ctx, prepared: None };
        match outcome {
            Ok(Ok(prepared)) => {
                member.prepared = Some(prepared);
                members.push(member);
            }
            Ok(Err(err)) => {
                flush_ctx(&mut member.job, &member.ctx);
                settle_error(sh, &mut member, err);
            }
            Err(panic) => {
                flush_ctx(&mut member.job, &member.ctx);
                settle_panic(sh, member, panic_message(panic.as_ref()), true);
                for m in members {
                    requeue_innocent(sh, m);
                }
                for job in pending {
                    let m = Member { job, queue_wait_us: 0, ctx: None, prepared: None };
                    requeue_innocent(sh, m);
                }
                return true;
            }
        }
    }
    if members.is_empty() {
        return false;
    }

    // Phase B: one fused decode over every prepared member. No stage gate
    // runs here, so injected faults cannot fire; a (real) panic takes every
    // member to the retry path together. The open `encode_decode` stage in
    // each member's context spans this phase — each request's trace charges
    // it the full shared decode, which is the latency it experienced.
    // Stamp the decode cohort size on every member that got this far —
    // including degraded singletons and the window-0 path, where it records
    // that the request decoded alone (1). 0 means the attempt never
    // reached the neural decode.
    let n = members.len();
    for m in &mut members {
        if let Some(t) = m.job.trace.as_mut() {
            t.batch_size = n as u32;
        }
    }
    let degraded = members[0].job.degraded;
    let outcome = {
        let _span = valuenet_obs::span("serve.batch");
        catch_unwind(AssertUnwindSafe(|| {
            let mut refs: Vec<&mut PreparedRequest<'_>> =
                members.iter_mut().filter_map(|m| m.prepared.as_mut()).collect();
            let mut run = || sh.pipeline.decode_batch(&mut refs);
            if degraded {
                // Degraded retries decode alone (next_batch never co-batches
                // them) on the scalar tape — the PR 6 degradation ladder.
                ValueNetModel::with_scalar_fallback(run)
            } else {
                run()
            }
        }))
    };
    if let Err(panic) = outcome {
        let msg = panic_message(panic.as_ref());
        for (i, mut m) in members.into_iter().enumerate() {
            flush_ctx(&mut m.job, &m.ctx);
            settle_panic(sh, m, msg.clone(), i == 0);
        }
        return true;
    }

    // Phase C: per-member lowering, execution-guided selection and reply,
    // again each under its own catch_unwind and trace context.
    let mut rest = members.into_iter();
    while let Some(mut member) = rest.next() {
        let prepared = member.prepared.take().expect("prepared in phase A");
        let outcome = {
            let _span = valuenet_obs::span("serve.request");
            let _ctx_guard = member.ctx.as_ref().map(install_ctx);
            catch_unwind(AssertUnwindSafe(|| finish_attempt(sh, &member.job, prepared)))
        };
        flush_ctx(&mut member.job, &member.ctx);
        match outcome {
            Ok(Ok(body)) => settle_ok(sh, member, body),
            Ok(Err(err)) => settle_error(sh, &mut member, err),
            Err(panic) => {
                settle_panic(sh, member, panic_message(panic.as_ref()), true);
                for m in rest {
                    requeue_innocent(sh, m);
                }
                return true;
            }
        }
    }
    false
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Appends one attempt record to the job's trace (no-op once it is filed).
fn record_attempt(job: &mut Job, queue_wait_us: u64, outcome: &'static str, detail: &str) {
    if let Some(t) = job.trace.as_mut() {
        t.attempts.push(AttemptTrace {
            attempt: job.panics,
            degraded: job.degraded,
            queue_wait_us,
            outcome,
            detail: detail.to_string(),
        });
    }
}

/// Finishes the job's trace with a terminal outcome, files it in the flight
/// recorder (auto-dumping quarantines to `OBS_FLIGHT_DUMP`), and returns
/// the wire digest.
fn finish_trace(sh: &Shared, job: &mut Job, outcome: &str) -> Option<TraceSummary> {
    let mut t = job.trace.take()?;
    t.finish(outcome);
    let summary = TraceSummary::from_trace(&t);
    if outcome == ErrorKind::Quarantined.label() {
        if let Some(path) = &sh.flight_dump {
            if let Err(e) = FlightRecorder::append_jsonl(path, &t) {
                eprintln!("valuenet-serve: cannot dump quarantined trace to {path}: {e}");
            }
        }
    }
    sh.flight.record(t);
    Some(summary)
}

fn reject_job(sh: &Shared, job: &mut Job, kind: ErrorKind, detail: String) {
    sh.stats.count_rejection(kind);
    let trace = finish_trace(sh, job, kind.label());
    let _ = job
        .reply
        .send(Response::Error { id: job.id, error: ServeError { kind, detail }, trace });
}

/// Pops the next eligible job: FIFO among jobs whose retry backoff has
/// elapsed. Blocks until a job is eligible or shutdown empties the queue.
/// During shutdown the queue is drained ignoring backoff delays.
fn next_job(sh: &Arc<Shared>) -> Option<Job> {
    let mut q = sh.q.lock().unwrap();
    loop {
        if q.shutting_down {
            return q.jobs.pop_front();
        }
        let now = ms_since(sh.epoch);
        if let Some(pos) = q.jobs.iter().position(|j| j.not_before_ms <= now) {
            return q.jobs.remove(pos);
        }
        // Nothing eligible: sleep until the nearest backoff expiry (or a
        // notify). The cap bounds the wait so shutdown is never missed.
        let wait_ms = q
            .jobs
            .iter()
            .map(|j| j.not_before_ms.saturating_sub(now))
            .min()
            .unwrap_or(200)
            .clamp(1, 200);
        let (guard, _) = sh.cond.wait_timeout(q, Duration::from_millis(wait_ms)).unwrap();
        q = guard;
    }
}

/// Assembles the next decode batch: the first job comes from the blocking
/// dequeue; with a batching window configured, up to `batch_max − 1` more
/// eligible requests are collected for at most `batch_window_us` — a
/// bounded latency spend that buys kernel-level throughput. The batch also
/// flushes early on quiescence (no eligible arrival for a quarter of the
/// window), so the full window is only ever waited out while jobs keep
/// trickling in. Degraded scalar retries always decode alone, and a zero
/// window reduces to the unbatched engine.
fn next_batch(sh: &Arc<Shared>) -> Option<Vec<Job>> {
    let first = next_job(sh)?;
    let window_us = sh.cfg.batch_window_us;
    let max = sh.cfg.batch_max.max(1);
    if window_us == 0 {
        return Some(vec![first]);
    }
    if max == 1 || first.degraded {
        if !first.degraded {
            sh.stats.record_batch(1, true);
        }
        return Some(vec![first]);
    }
    let mut batch = vec![first];
    let flush_at = Instant::now() + Duration::from_micros(window_us);
    // Quiescence flush: co-batchable arrivals come in bursts (replies
    // releasing blocked clients, a dispatcher tick). Once no eligible job
    // has arrived for a fraction of the window, more arrivals inside the
    // budget are unlikely, and waiting out the rest of the window would be
    // pure added latency — worse, on a saturated host it is dead time no
    // other request can use. The window stays the hard upper bound.
    let idle = Duration::from_micros((window_us / 4).max(1));
    let mut idle_at = Instant::now() + idle;
    let mut q = sh.q.lock().unwrap();
    let size_flush = loop {
        if q.shutting_down {
            break false;
        }
        let now = ms_since(sh.epoch);
        let before = batch.len();
        while batch.len() < max {
            // FIFO among eligible co-batchable jobs; degraded retries are
            // left for a solo dequeue.
            let Some(pos) = q.jobs.iter().position(|j| j.not_before_ms <= now && !j.degraded)
            else {
                break;
            };
            if let Some(j) = q.jobs.remove(pos) {
                batch.push(j);
            }
        }
        if batch.len() >= max {
            break true;
        }
        let now = Instant::now();
        if batch.len() > before {
            idle_at = now + idle;
        }
        let deadline = flush_at.min(idle_at);
        if now >= deadline {
            break false;
        }
        let (guard, _) = sh.cond.wait_timeout(q, deadline - now).unwrap();
        q = guard;
    };
    drop(q);
    sh.stats.record_batch(batch.len(), size_flush);
    Some(batch)
}

/// Maps a typed pipeline failure to the protocol taxonomy. `deadline_hit`
/// distinguishes a guard abort caused by an expired deadline from any other
/// abort.
fn map_pipeline_error(e: PipelineError, deadline_hit: bool) -> ServeError {
    match e {
        PipelineError::Aborted { stage } => {
            if deadline_hit {
                ServeError::new(
                    ErrorKind::DeadlineExceeded,
                    format!("deadline expired entering {}", stage.label()),
                )
            } else {
                ServeError::new(
                    ErrorKind::Internal,
                    format!("translation aborted entering {}", stage.label()),
                )
            }
        }
        PipelineError::MissingGoldValues => {
            ServeError::new(ErrorKind::BadRequest, "light mode requires gold_values")
        }
        e @ PipelineError::DanglingValuePointer { .. } => {
            ServeError::new(ErrorKind::Internal, e.to_string())
        }
    }
}

/// Builds the per-request stage guard — injected fault directives plus the
/// deadline check at every stage boundary — as local bindings (`guard` and
/// the named deadline flag), shared by the prepare and finish halves of an
/// attempt.
macro_rules! stage_guard {
    ($sh:expr, $job:expr, $guard:ident, $deadline_hit:ident) => {
        let deadline = $job.deadline;
        let epoch = $sh.epoch;
        let fault = $job.fault;
        let panics_so_far = $job.panics;
        let mut $deadline_hit = false;
        let mut $guard = |stage: Stage| -> bool {
            if let Some(f) = &fault {
                if f.delay_stage == Some(stage) && f.delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(f.delay_ms));
                }
                if f.panic_stage == Some(stage) && panics_so_far < f.panic_times {
                    panic!("injected fault: panic entering {}", stage.label());
                }
            }
            if deadline.expired(ms_since(epoch)) {
                $deadline_hit = true;
                return false;
            }
            true
        };
    };
}

/// The front half of a translation attempt: every stage through input
/// assembly, with injected faults and deadline checks at the stage gates.
fn prepare_attempt<'a>(sh: &'a Shared, job: &Job) -> Result<PreparedRequest<'a>, ServeError> {
    let db = sh.dbs.get(&job.db).expect("db checked at submit");
    stage_guard!(sh, job, guard, deadline_hit);
    let res = sh.pipeline.prepare_guarded(db, &job.question, job.gold_values.as_deref(), &mut guard);
    res.map_err(|e| map_pipeline_error(e, deadline_hit))
}

/// The back half of a translation attempt: SemQL lowering, execution-guided
/// selection and response assembly over the decoded hypotheses.
fn finish_attempt(
    sh: &Shared,
    job: &Job,
    prepared: PreparedRequest<'_>,
) -> Result<Box<Translated>, ServeError> {
    stage_guard!(sh, job, guard, deadline_hit);
    let res = sh.pipeline.finish_guarded(prepared, &mut guard);
    match res {
        Ok(p) => {
            let sql = match &p.sql {
                Some(s) => s.to_string(),
                None => {
                    return Err(ServeError::new(
                        ErrorKind::TranslateFailed,
                        "no executable SQL synthesized",
                    ))
                }
            };
            let values = p
                .selected_values()
                .map_err(|e| ServeError::new(ErrorKind::Internal, e.to_string()))?;
            let (rows, ordered) = match &p.result {
                Some(rs) => (
                    rs.rows
                        .iter()
                        .map(|r| r.iter().map(|d| d.to_string()).collect())
                        .collect(),
                    rs.ordered,
                ),
                None => (Vec::new(), false),
            };
            sh.stats.record_stages(&p.timings);
            Ok(Box::new(Translated {
                sql,
                rows,
                ordered,
                values,
                latency_us: 0, // stamped by the worker loop
                retries: job.panics,
                degraded: job.degraded,
                trace: None, // stamped by the worker loop
            }))
        }
        Err(e) => Err(map_pipeline_error(e, deadline_hit)),
    }
}
