//! The serving engine: a bounded-queue worker pool around one loaded
//! [`Pipeline`].
//!
//! Request lifecycle:
//!
//! ```text
//! submit ──admission──▶ queue ──dequeue──▶ worker attempt ──▶ reply
//!            │(shed)      │(deadline)        │catch_unwind
//!            ▼            ▼                  ▼panic
//!         Overload   DeadlineExceeded   second kill? ──yes──▶ Quarantined
//!                                          │no
//!                                          ▼
//!                               10 ms backoff + requeue (degraded: fresh
//!                               tape), worker respawns itself
//! ```
//!
//! A worker attempt is one request through
//! [`Pipeline::try_translate_guarded`] under one `catch_unwind`. Its stage
//! guard fires injected faults and checks the deadline at every gate; a
//! degraded retry runs the whole call under
//! [`ValueNetModel::with_tape_fallback`], which swaps the recycled tape and
//! the shared weight panels for a fresh tape whose panels are packed for
//! it alone. Each request decodes alone:
//! neither the engine nor the decoder co-batches requests, because on
//! `serve_decode` a shared decode cost the same per request and lowered
//! throughput (DESIGN.md §15).
//!
//! Robustness invariants the fault harness asserts:
//!
//! * **Shed, don't stall** — a full queue rejects immediately with a typed
//!   [`ErrorKind::Overload`]; nothing blocks the socket thread.
//! * **Deadlines are enforced at dequeue and at every pipeline stage
//!   boundary** (via [`Pipeline::try_translate_guarded`]), so an expired
//!   request never occupies a worker for a full translation.
//! * **Panic isolation** — a worker panic (injected or real) is caught and
//!   the worker thread is replaced. The first kill requeues the request
//!   once, degraded, after a fixed 10 ms backoff (`RETRY_BACKOFF_MS`); the
//!   second quarantines it.
//! * **Every admitted request is answered exactly once**; workers only
//!   exit on shutdown or panic-respawn, so no job is silently dropped.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::admission::{AdmissionPolicy, Deadline};
use crate::fault::FaultSpec;
use crate::protocol::{ErrorKind, Response, ServeError, Translated, TraceSummary};
use valuenet_core::{Pipeline, PipelineError, Stage, StageTimings, ValueNetModel};
use valuenet_obs::json::Json;
use valuenet_obs::trace::{install_ctx, AttemptTrace, RequestTrace, SpanCtx};
use valuenet_obs::{percentile_from_counts, AtomicBuckets, FlightRecorder, SloPolicy};
use valuenet_storage::Database;

/// Worker threads are named with this prefix; the quiet panic hook uses it
/// to suppress the default panic banner for isolated (caught) panics.
const WORKER_PREFIX: &str = "vn-serve-worker";

/// Longest accepted question, in characters.
pub(crate) const MAX_QUESTION_CHARS: usize = 8192;

/// Delay before a request whose attempt killed a worker re-enters the
/// queue for its one degraded retry.
const RETRY_BACKOFF_MS: u64 = 10;

/// Retained request traces, split between clean and terminal-failure rings.
const FLIGHT_CAPACITY: usize = 256;

/// The settings `valuenet_cli serve` exposes.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Default per-request deadline budget in milliseconds (`0` = none);
    /// requests may override it.
    pub default_deadline_ms: u64,
    /// Whether requests may carry [`FaultSpec`] directives (harness only).
    pub allow_fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 0,
            allow_fault_injection: false,
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
    /// Whether the next attempt is the degraded retry (a fresh tape, no
    /// packed weights).
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

/// Percentile summary of a latency bucket-count vector (cumulative snapshot
/// or a delta window — same arithmetic).
fn latency_json(counts: &[u64]) -> Json {
    let total: u64 = counts.iter().sum();
    Json::obj(vec![
        ("count", Json::Int(total as i64)),
        ("p50_us", Json::Num(percentile_from_counts(counts, 0.50))),
        ("p90_us", Json::Num(percentile_from_counts(counts, 0.90))),
        ("p99_us", Json::Num(percentile_from_counts(counts, 0.99))),
    ])
}

/// Always-on serving counters and per-stage latency histograms, surfaced by
/// the protocol's `stats` verb.
#[derive(Default)]
pub struct EngineStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    retries: AtomicU64,
    degraded_completions: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    /// Rejections, indexed by `ErrorKind as usize`.
    rejections: [AtomicU64; ErrorKind::ALL.len()],
    // Latencies (µs).
    total: AtomicBuckets,
    queue_wait: AtomicBuckets,
    stage_hists: [AtomicBuckets; Stage::ALL.len()],
}

impl EngineStats {
    fn count_rejection(&self, kind: ErrorKind) {
        self.rejections[kind as usize].fetch_add(1, Ordering::Relaxed);
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
            hist.record(d.as_micros() as u64);
        }
    }

    /// Number of requests rejected with `kind` (shed by admission control
    /// for [`ErrorKind::Overload`]).
    pub fn rejected(&self, kind: ErrorKind) -> u64 {
        self.rejections[kind as usize].load(Ordering::Relaxed)
    }

    /// Number of worker panics caught (injected or real).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Number of replacement workers spawned after panics.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// A coherent copy of every monotonic counter and histogram — the unit
    /// of the `stats` verb's snapshot-and-diff delta windows.
    fn window(&self) -> StatsWindow {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsWindow {
            submitted: load(&self.submitted),
            completed: load(&self.completed),
            retries: load(&self.retries),
            degraded_completions: load(&self.degraded_completions),
            worker_panics: load(&self.worker_panics),
            worker_respawns: load(&self.worker_respawns),
            rejections: self.rejections.each_ref().map(load),
            total: self.total.counts(),
            queue_wait: self.queue_wait.counts(),
            stages: self.stage_hists.iter().map(AtomicBuckets::counts).collect(),
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
    rejections: [u64; ErrorKind::ALL.len()],
    total: Vec<u64>,
    queue_wait: Vec<u64>,
    stages: Vec<Vec<u64>>,
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
            rejections: std::array::from_fn(|i| sub(self.rejections[i], base.rejections[i])),
            total: sub_vec(&self.total, &base.total),
            queue_wait: sub_vec(&self.queue_wait, &base.queue_wait),
            stages: self
                .stages
                .iter()
                .enumerate()
                .map(|(i, s)| sub_vec(s, base.stages.get(i).map_or(&[][..], Vec::as_slice)))
                .collect(),
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
            stats: EngineStats::default(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
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
        if req.question.chars().count() > MAX_QUESTION_CHARS {
            return reject(
                ErrorKind::BadRequest,
                format!("question exceeds {MAX_QUESTION_CHARS} characters"),
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
            ("total", latency_json(&win.total)),
            ("queue_wait", latency_json(&win.queue_wait)),
        ];
        for (stage, counts) in Stage::ALL.iter().zip(&win.stages) {
            latencies.push((stage.label(), latency_json(counts)));
        }
        // SLO eligibility: the server's own failures burn the budget; client
        // errors (bad_request, unknown_db) and orderly shutdown do not.
        let rejected = |kind: ErrorKind| win.rejections[kind as usize];
        let good = win.completed + rejected(ErrorKind::TranslateFailed);
        let bad: u64 = [
            ErrorKind::Overload,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Quarantined,
            ErrorKind::Internal,
        ]
        .into_iter()
        .map(rejected)
        .sum();
        let slo_policy = SloPolicy::default();
        let slo = slo_policy.evaluate(window_label, good, good + bad, &win.total);
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
            ("rejections", Json::obj(ErrorKind::ALL.map(|k| (k.label(), int(rejected(k)))).into())),
            ("latency_us", Json::Obj(
                latencies.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            )),
            ("slo", slo.to_json(&slo_policy)),
            (
                "flight",
                Json::obj(vec![
                    ("recorded", Json::Int(sh.flight.recorded() as i64)),
                    ("capacity", Json::Int(FLIGHT_CAPACITY as i64)),
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
            // Merge this thread's spans before it counts as gone; its TLS
            // destructor runs after `shutdown()` may have returned.
            valuenet_obs::flush_thread();
            let mut q = sh.q.lock().unwrap();
            q.live_workers -= 1;
            drop(q);
            sh.cond.notify_all();
        })
        .expect("failed to spawn serve worker");
}

/// Runs one attempt per dequeued job until shutdown (returns `false`) or a
/// caught panic (returns `true`; the caller respawns a replacement and lets
/// this thread die, so any thread-local state the panic may have wedged is
/// discarded).
fn worker_loop(sh: &Arc<Shared>) -> bool {
    while let Some(mut job) = next_job(sh) {
        let queue_wait_us = us_since(sh.epoch).saturating_sub(job.enqueued_us);
        if job.deadline.expired(ms_since(sh.epoch)) {
            // Spent its budget in the queue: answer without running a stage.
            record_attempt(&mut job, queue_wait_us, "deadline", "deadline expired in queue");
            reject_job(sh, &mut job, ErrorKind::DeadlineExceeded, "deadline expired in queue".into());
            continue;
        }
        sh.stats.queue_wait.record(queue_wait_us);
        // The attempt's stage events are recorded through an ambient context
        // whose buffer is shared (Arc) with this scope — a panic unwinding
        // the attempt cannot lose them, and the guard uninstalls either way.
        let ctx = job.trace.as_ref().map(|t| SpanCtx::new(t.trace_id, job.panics));
        let mut decoded = false;
        let outcome = {
            let _span = valuenet_obs::span("serve.request");
            let _ctx_guard = ctx.as_ref().map(install_ctx);
            catch_unwind(AssertUnwindSafe(|| attempt(sh, &job, &mut decoded)))
        };
        if let (Some(t), Some(ctx)) = (job.trace.as_mut(), &ctx) {
            t.stages.extend(ctx.take_events());
            if decoded {
                t.batch_size = 1;
            }
        }
        match outcome {
            Ok(Ok(body)) => settle_ok(sh, job, queue_wait_us, body),
            Ok(Err(err)) => {
                let label = if err.kind == ErrorKind::DeadlineExceeded { "deadline" } else { "error" };
                record_attempt(&mut job, queue_wait_us, label, &err.detail);
                reject_job(sh, &mut job, err.kind, err.detail);
            }
            Err(panic) => {
                settle_panic(sh, job, queue_wait_us, panic_message(panic.as_ref()));
                return true;
            }
        }
    }
    false
}

/// Completes a job: stamps latency and the trace digest, records stats,
/// replies.
fn settle_ok(sh: &Shared, mut job: Job, queue_wait_us: u64, mut body: Box<Translated>) {
    let latency = us_since(sh.epoch).saturating_sub(job.submitted_us);
    body.latency_us = latency;
    sh.stats.total.record(latency);
    sh.stats.completed.fetch_add(1, Ordering::Relaxed);
    if body.degraded {
        sh.stats.degraded_completions.fetch_add(1, Ordering::Relaxed);
    }
    record_attempt(&mut job, queue_wait_us, "ok", "");
    body.trace = finish_trace(sh, &mut job, "completed");
    let _ = job.reply.send(Response::Translated { id: job.id, body });
}

/// Handles a job whose attempt panicked the worker: the first kill requeues
/// it for one degraded retry after [`RETRY_BACKOFF_MS`], the second (the
/// degraded retry's) quarantines it.
fn settle_panic(sh: &Shared, mut job: Job, queue_wait_us: u64, msg: String) {
    sh.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
    record_attempt(&mut job, queue_wait_us, "panic", &msg);
    if let Some(t) = job.trace.as_mut() {
        // Prefer the injected-fault attribution from admission;
        // a real (uninjected) panic attributes to its message.
        t.fault.get_or_insert(msg);
    }
    job.panics += 1;
    if job.degraded {
        let detail = format!("request killed {} workers", job.panics);
        reject_job(sh, &mut job, ErrorKind::Quarantined, detail);
        return;
    }
    sh.stats.retries.fetch_add(1, Ordering::Relaxed);
    job.degraded = true;
    job.not_before_ms = ms_since(sh.epoch) + RETRY_BACKOFF_MS;
    job.enqueued_us = us_since(sh.epoch);
    let mut q = sh.q.lock().unwrap();
    // Retries bypass admission: the request already holds its slot,
    // shedding it now would break at-most-once accounting.
    q.jobs.push_back(job);
    drop(q);
    sh.cond.notify_all();
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
        e @ PipelineError::NoWordTokens => ServeError::new(ErrorKind::BadRequest, e.to_string()),
        e @ PipelineError::DanglingValuePointer { .. } => {
            ServeError::new(ErrorKind::Internal, e.to_string())
        }
    }
}

/// One translation attempt: the whole pipeline under a stage guard that
/// fires injected faults and checks the deadline at every stage gate. The
/// guard sets `decoded` on reaching [`Stage::PostProcess`], which only
/// follows the neural decode. A degraded retry runs on a fresh tape.
fn attempt(sh: &Shared, job: &Job, decoded: &mut bool) -> Result<Box<Translated>, ServeError> {
    let db = sh.dbs.get(&job.db).expect("db checked at submit");
    let mut deadline_hit = false;
    let mut guard = |stage: Stage| -> bool {
        *decoded |= stage == Stage::PostProcess;
        if let Some(f) = &job.fault {
            if f.delay_stage == Some(stage) && f.delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(f.delay_ms));
            }
            if f.panic_stage == Some(stage) && job.panics < f.panic_times {
                panic!("injected fault: panic entering {}", stage.label());
            }
        }
        if job.deadline.expired(ms_since(sh.epoch)) {
            deadline_hit = true;
            return false;
        }
        true
    };
    let mut run = || {
        sh.pipeline.try_translate_guarded(db, &job.question, job.gold_values.as_deref(), &mut guard)
    };
    let res = if job.degraded { ValueNetModel::with_tape_fallback(run) } else { run() };
    let p = res.map_err(|e| map_pipeline_error(e, deadline_hit))?;
    let Some(sql) = &p.sql else {
        return Err(ServeError::new(ErrorKind::TranslateFailed, "no executable SQL synthesized"));
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
        sql: sql.to_string(),
        rows,
        ordered,
        values,
        latency_us: 0, // stamped by the worker loop
        retries: job.panics,
        degraded: job.degraded,
        trace: None, // stamped by the worker loop
    }))
}
