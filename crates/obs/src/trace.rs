//! Request-scoped trace contexts.
//!
//! The serving engine allocates a [`TraceId`] for every admitted request
//! and builds a [`RequestTrace`] as the request moves through the bounded
//! queue, worker attempts, retries and the reply path. Per-stage timing is
//! collected through an ambient [`SpanCtx`]: the worker installs the
//! context for the duration of one attempt ([`install_ctx`]) and the
//! pipeline reports every stage boundary ([`enter_stage`], with the same
//! clock reading it times the stage by) without knowing anything about the
//! engine. Because the context's event buffer sits behind an
//! `Arc<Mutex<…>>` shared with the queued job, the recorded stages survive
//! a worker panic — the respawned worker's degraded retry appends to the
//! same trace.
//!
//! When no context is installed (training, evaluation, plain library use)
//! [`enter_stage`] is one relaxed atomic load — the same discipline as the
//! rest of this crate.
//!
//! Timestamps are microseconds on the process-wide observability epoch
//! ([`crate::now_ns`]), so durations are directly comparable across
//! threads and with span data.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Microseconds since the process observability epoch.
#[inline]
pub fn now_us() -> u64 {
    crate::now_ns() / 1_000
}

/// Process-unique request trace identifier (dense, allocated at admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Allocates the next id (never zero).
    pub fn next() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One stage-gate-to-stage-gate region of one attempt.
#[derive(Debug, Clone)]
pub struct StageEvent {
    /// Stage label (`preprocess`, `value_lookup`, …).
    pub stage: &'static str,
    /// Attempt index the stage ran in (0 = first attempt).
    pub attempt: u32,
    /// Entry timestamp, µs on the process epoch.
    pub start_us: u64,
    /// Duration until the next gate (or the attempt's end), µs.
    pub dur_us: u64,
}

/// One worker attempt of a request.
#[derive(Debug, Clone)]
pub struct AttemptTrace {
    /// Attempt index (0 = first attempt).
    pub attempt: u32,
    /// Whether the attempt was the degraded retry (a fresh tape, no packed
    /// weights).
    pub degraded: bool,
    /// Queue wait before this attempt (dispatch − enqueue), µs.
    pub queue_wait_us: u64,
    /// `ok`, `panic`, `deadline`, or `error`.
    pub outcome: &'static str,
    /// Free-form detail (panic message, error kind, …).
    pub detail: String,
}

/// The complete per-request trace, finished at reply time.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// Protocol correlation id, when the client sent one.
    pub request_id: Option<i64>,
    /// Database the request targeted.
    pub db: String,
    /// Deadline budget in ms (0 = none).
    pub deadline_ms: u64,
    /// Admission timestamp, µs on the process epoch.
    pub submitted_us: u64,
    /// Reply timestamp, µs on the process epoch (0 until finished).
    pub finished_us: u64,
    /// Terminal outcome: `completed` or an error-kind label
    /// (`quarantined`, `deadline_exceeded`, …).
    pub outcome: String,
    /// Fault attribution (rendered `FaultSpec` / panic message), when the
    /// request carried or triggered one.
    pub fault: Option<String>,
    /// Stage-gate regions across all attempts, in order.
    pub stages: Vec<StageEvent>,
    /// Per-attempt records, in order.
    pub attempts: Vec<AttemptTrace>,
    /// Requests in the neural decode of the last attempt that got past it:
    /// 1 once an attempt has, 0 if none did.
    pub batch_size: u32,
}

impl RequestTrace {
    /// A fresh trace for an admitted request.
    pub fn new(request_id: Option<i64>, db: String, deadline_ms: u64) -> RequestTrace {
        RequestTrace {
            trace_id: TraceId::next(),
            request_id,
            db,
            deadline_ms,
            submitted_us: now_us(),
            finished_us: 0,
            outcome: String::new(),
            fault: None,
            stages: Vec::new(),
            attempts: Vec::new(),
            batch_size: 0,
        }
    }

    /// Marks the trace finished with a terminal outcome label.
    pub fn finish(&mut self, outcome: &str) {
        self.finished_us = now_us();
        self.outcome = outcome.to_string();
    }

    /// Whether the terminal outcome is anything but a clean completion —
    /// such traces are pinned in the flight recorder.
    pub fn is_terminal_failure(&self) -> bool {
        !self.outcome.is_empty() && self.outcome != "completed"
    }

    /// End-to-end latency (admission to reply), µs.
    pub fn total_us(&self) -> u64 {
        self.finished_us.saturating_sub(self.submitted_us)
    }

    /// Summed queue wait across all attempts, µs.
    pub fn queue_wait_us(&self) -> u64 {
        self.attempts.iter().map(|a| a.queue_wait_us).sum()
    }

    /// Total duration per stage label, aggregated across attempts, in
    /// first-seen order.
    pub fn stage_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for ev in &self.stages {
            match totals.iter_mut().find(|(s, _)| *s == ev.stage) {
                Some((_, d)) => *d += ev.dur_us,
                None => totals.push((ev.stage, ev.dur_us)),
            }
        }
        totals
    }

    /// The full span tree as JSON — the flight-recorder / `trace`-verb
    /// representation (`type:"trace"` in JSONL streams).
    pub fn to_json(&self) -> Json {
        let stages = self
            .stages
            .iter()
            .map(|ev| {
                Json::obj(vec![
                    ("stage", Json::Str(ev.stage.into())),
                    ("attempt", Json::Int(ev.attempt as i64)),
                    ("start_us", Json::Int(ev.start_us as i64)),
                    ("dur_us", Json::Int(ev.dur_us as i64)),
                ])
            })
            .collect();
        let attempts = self
            .attempts
            .iter()
            .map(|a| {
                Json::obj(vec![
                    ("attempt", Json::Int(a.attempt as i64)),
                    ("degraded", Json::Bool(a.degraded)),
                    ("queue_wait_us", Json::Int(a.queue_wait_us as i64)),
                    ("outcome", Json::Str(a.outcome.into())),
                    ("detail", Json::Str(a.detail.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("type", Json::Str("trace".into())),
            ("trace_id", Json::Int(self.trace_id.0 as i64)),
            (
                "request_id",
                match self.request_id {
                    Some(i) => Json::Int(i),
                    None => Json::Null,
                },
            ),
            ("db", Json::Str(self.db.clone())),
            ("deadline_ms", Json::Int(self.deadline_ms as i64)),
            ("submitted_us", Json::Int(self.submitted_us as i64)),
            ("finished_us", Json::Int(self.finished_us as i64)),
            ("total_us", Json::Int(self.total_us() as i64)),
            ("queue_wait_us", Json::Int(self.queue_wait_us() as i64)),
            ("outcome", Json::Str(self.outcome.clone())),
            (
                "fault",
                match &self.fault {
                    Some(f) => Json::Str(f.clone()),
                    None => Json::Null,
                },
            ),
            ("batch_size", Json::Int(self.batch_size as i64)),
            ("stages", Json::Arr(stages)),
            ("attempts", Json::Arr(attempts)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Ambient per-attempt context
// ---------------------------------------------------------------------------

struct CtxInner {
    attempt: u32,
    /// The stage currently between gates, with its entry timestamp.
    open: Option<(&'static str, u64)>,
    events: Vec<StageEvent>,
}

/// The per-attempt recording handle shared between the worker (which owns
/// the job) and the ambient thread-local slot the pipeline reports into.
/// The mutex makes the buffer reachable after a panic unwinds the attempt.
#[derive(Clone)]
pub struct SpanCtx {
    trace_id: TraceId,
    inner: Arc<Mutex<CtxInner>>,
}

impl SpanCtx {
    /// A fresh context for attempt `attempt` of `trace_id`.
    pub fn new(trace_id: TraceId, attempt: u32) -> SpanCtx {
        SpanCtx {
            trace_id,
            inner: Arc::new(Mutex::new(CtxInner { attempt, open: None, events: Vec::new() })),
        }
    }

    /// The trace this context records for.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Closes the open stage (attributing elapsed time to it) and opens
    /// `stage` at `now_ns`, a [`crate::now_ns`] reading. Called by the
    /// pipeline at every stage boundary.
    pub fn enter_stage(&self, stage: &'static str, now_ns: u64) {
        let now = now_ns / 1_000;
        let mut inner = lock_inner(&self.inner);
        inner.close(now);
        inner.open = Some((stage, now));
    }

    /// Closes any open stage and drains the recorded events. Called once by
    /// the worker when the attempt ends (cleanly or by panic).
    pub fn take_events(&self) -> Vec<StageEvent> {
        let now = now_us();
        let mut inner = lock_inner(&self.inner);
        inner.close(now);
        std::mem::take(&mut inner.events)
    }
}

impl CtxInner {
    /// Records the open stage, if any, as ending at `now` (µs).
    fn close(&mut self, now: u64) {
        if let Some((stage, start)) = self.open.take() {
            let dur_us = now.saturating_sub(start);
            self.events.push(StageEvent { stage, attempt: self.attempt, start_us: start, dur_us });
        }
    }
}

fn lock_inner(m: &Mutex<CtxInner>) -> std::sync::MutexGuard<'_, CtxInner> {
    // A panic while the guard holds the lock would poison it; the events are
    // still wanted for the trace.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Count of installed contexts across all threads — the `enter_stage` fast
/// path bails on this one relaxed load when no request is being traced.
static ACTIVE_CTXS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<SpanCtx>> = const { RefCell::new(None) };
}

/// Uninstalls the ambient context on drop (including panic unwind).
pub struct CtxGuard {
    _private: (),
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().take());
        ACTIVE_CTXS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Installs `ctx` as the calling thread's ambient trace context for the
/// guard's lifetime. Stage gates crossed while the guard lives are recorded
/// into `ctx`.
pub fn install_ctx(ctx: &SpanCtx) -> CtxGuard {
    CURRENT.with(|c| *c.borrow_mut() = Some(ctx.clone()));
    ACTIVE_CTXS.fetch_add(1, Ordering::Relaxed);
    CtxGuard { _private: () }
}

/// Reports a stage boundary crossed at `now_ns` (a [`crate::now_ns`]
/// reading) to the ambient context, if one is installed on this thread.
/// One relaxed atomic load otherwise.
#[inline]
pub fn enter_stage(stage: &'static str, now_ns: u64) {
    if ACTIVE_CTXS.load(Ordering::Relaxed) == 0 {
        return;
    }
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.enter_stage(stage, now_ns);
        }
    });
}

/// The trace id of the ambient context, if one is installed on this thread.
pub fn current_trace_id() -> Option<TraceId> {
    if ACTIVE_CTXS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().as_ref().map(SpanCtx::trace_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert!(a.0 > 0 && b.0 > 0);
    }

    #[test]
    fn stage_events_partition_the_attempt() {
        let ctx = SpanCtx::new(TraceId::next(), 0);
        ctx.enter_stage("preprocess", crate::now_ns());
        ctx.enter_stage("value_lookup", crate::now_ns());
        ctx.enter_stage("execute", crate::now_ns());
        let events = ctx.take_events();
        assert_eq!(
            events.iter().map(|e| e.stage).collect::<Vec<_>>(),
            vec!["preprocess", "value_lookup", "execute"]
        );
        // Contiguous: each stage ends where the next begins.
        for w in events.windows(2) {
            assert_eq!(w[0].start_us + w[0].dur_us, w[1].start_us);
        }
        assert!(events.iter().all(|e| e.attempt == 0));
        // Drained: a second take is empty.
        assert!(ctx.take_events().is_empty());
    }

    #[test]
    fn ambient_context_routes_to_installed_ctx_only() {
        assert_eq!(current_trace_id(), None);
        enter_stage("ignored", crate::now_ns()); // no ctx installed: must be a no-op
        let ctx = SpanCtx::new(TraceId::next(), 1);
        {
            let _g = install_ctx(&ctx);
            assert_eq!(current_trace_id(), Some(ctx.trace_id()));
            enter_stage("preprocess", crate::now_ns());
            enter_stage("execute", crate::now_ns());
        }
        assert_eq!(current_trace_id(), None);
        enter_stage("also_ignored", crate::now_ns());
        let events = ctx.take_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.attempt == 1));
    }

    #[test]
    fn stage_totals_aggregate_repeated_stages() {
        let mut t = RequestTrace::new(Some(7), "db".into(), 100);
        t.stages = vec![
            StageEvent { stage: "execute", attempt: 0, start_us: 0, dur_us: 5 },
            StageEvent { stage: "post_process", attempt: 0, start_us: 5, dur_us: 2 },
            StageEvent { stage: "execute", attempt: 0, start_us: 7, dur_us: 3 },
        ];
        assert_eq!(t.stage_totals(), vec![("execute", 8), ("post_process", 2)]);
        t.finish("completed");
        assert!(!t.is_terminal_failure());
        t.finish("quarantined");
        assert!(t.is_terminal_failure());
        let j = t.to_json();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("trace"));
        assert_eq!(j.get("outcome").and_then(Json::as_str), Some("quarantined"));
        assert_eq!(j.get("stages").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
    }
}
