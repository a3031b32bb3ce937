//! Zero-dependency tracing, metrics and profiling for the ValueNet pipeline.
//!
//! Three primitives, one registry, four sinks:
//!
//! * **Spans** ([`span`]) — hierarchical wall-clock regions timed with the
//!   process-wide monotonic clock. Each thread keeps its own span stack and
//!   aggregation table (no locks on the hot path); when a thread ends —
//!   including the short-lived scoped workers `valuenet-par` fans out — its
//!   table is merged into the global registry, so aggregate counts and
//!   durations are identical for any thread count.
//! * **Counters** ([`Counter`]) — `static`-friendly atomic totals, e.g. FLOPs
//!   executed or database rows scanned.
//! * **Histograms** ([`Histogram`]) — `static`-friendly fixed-bucket
//!   distributions (see [`hist`]) with p50/p90/p99 extraction. Span
//!   durations get a histogram per span path automatically.
//!
//! Everything is gated on one process-wide flag: with observability disabled
//! (the default) a span is a single relaxed atomic load and a counter add is
//! the same, so instrumented kernels stay within noise of uninstrumented
//! ones.
//!
//! Sinks, selected via environment variables (read by [`init_from_env`]):
//!
//! | variable | effect |
//! |---|---|
//! | `OBS=1` | enable; print the span-tree summary to stderr on [`finish`] |
//! | `OBS_JSONL=path` | enable; stream span/counter/histogram/metric events as JSONL |
//! | `OBS_CHROME_TRACE=path` | enable; write a `chrome://tracing` / Perfetto trace on [`finish`] |
//! | `OBS_EVENT_CAP=n` | cap raw span events kept in memory (default 1,000,000) |
//! | `OBS_PROFILE=path` | enable; write each span path's self time as collapsed stacks on [`finish`] ([`collapsed_stacks`]) |
//!
//! Observability v2 adds request-scoped primitives on top ([`trace`],
//! [`flight`], [`slo`], [`check`]) — see `DESIGN.md`
//! ("Observability" and "Observability v2") for the span taxonomy and the
//! serving-path trace model.

pub mod check;
pub mod flight;
mod hist;
pub mod json;
mod sink;
pub mod slo;
pub mod trace;

pub use flight::FlightRecorder;
pub use hist::{bucket_bounds, bucket_index, percentile_from_counts, AtomicBuckets, NBUCKETS};
pub use sink::{
    chrome_trace, collapsed_stacks, jsonl_line, summary, write_run_report, DifficultyRow,
    JsonlWriter, RUN_REPORT_SCHEMA_VERSION,
};
pub use slo::{SloPolicy, SloReport};
pub use trace::{RequestTrace, SpanCtx, TraceId};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable flag, configuration and clock
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Whether raw span events (for the JSONL / Chrome-trace sinks) are kept.
static EVENTS_WANTED: AtomicBool = AtomicBool::new(false);
static EVENT_COUNT: AtomicU64 = AtomicU64::new(0);
/// Cached copy of [`Config::event_cap`] so the span hot path never locks.
static EVENT_CAP: AtomicU64 = AtomicU64::new(1_000_000);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Sink configuration (normally derived from the environment).
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Stream events to this JSONL file on [`finish`].
    pub jsonl: Option<String>,
    /// Write a Chrome-trace JSON file on [`finish`].
    pub chrome_trace: Option<String>,
    /// Write the collapsed-stack profile ([`collapsed_stacks`]) on [`finish`].
    pub profile: Option<String>,
    /// Print the human-readable tree summary to stderr on [`finish`].
    pub summary: bool,
    /// Maximum raw span events kept in memory (0 = default 1,000,000).
    pub event_cap: usize,
}

impl Config {
    fn event_cap(&self) -> u64 {
        if self.event_cap == 0 {
            1_000_000
        } else {
            self.event_cap as u64
        }
    }
}

fn config() -> MutexGuard<'static, Config> {
    static CONFIG: OnceLock<Mutex<Config>> = OnceLock::new();
    lock(CONFIG.get_or_init(|| Mutex::new(Config::default())))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// True when observability is collecting. All instrumentation primitives
/// check this one relaxed atomic first; this is the whole disabled-path cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off (sinks are configured via [`install`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Installs a sink configuration and enables collection.
pub fn install(cfg: Config) {
    EVENTS_WANTED
        .store(cfg.jsonl.is_some() || cfg.chrome_trace.is_some(), Ordering::Relaxed);
    EVENT_CAP.store(cfg.event_cap(), Ordering::Relaxed);
    *config() = cfg;
    set_enabled(true);
}

/// Reads `OBS`, `OBS_JSONL`, `OBS_CHROME_TRACE`, `OBS_PROFILE` and
/// `OBS_EVENT_CAP` and enables observability if any sink is requested.
/// Returns whether collection is now enabled. Binaries call this once at
/// startup and [`finish`] once at exit; libraries only instrument.
pub fn init_from_env() -> bool {
    let path = |var: &str| std::env::var(var).ok().filter(|s| !s.is_empty());
    let jsonl = path("OBS_JSONL");
    let chrome_trace = path("OBS_CHROME_TRACE");
    let profile = path("OBS_PROFILE");
    let summary = std::env::var("OBS").map(|v| v != "0").unwrap_or(false);
    let event_cap = std::env::var("OBS_EVENT_CAP").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    if jsonl.is_none() && chrome_trace.is_none() && profile.is_none() && !summary {
        return false;
    }
    install(Config { jsonl, chrome_trace, profile, summary, event_cap });
    true
}

/// Nanoseconds since the process's observability epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Span paths: interned (parent, name) chains
// ---------------------------------------------------------------------------

const ROOT: u32 = u32::MAX;

#[derive(Default)]
struct PathTable {
    /// `(parent id, name)` per node, in interning order (parents first).
    nodes: Vec<(u32, &'static str)>,
    index: HashMap<(u32, &'static str), u32>,
}

impl PathTable {
    fn intern(&mut self, parent: u32, name: &'static str) -> u32 {
        if let Some(&id) = self.index.get(&(parent, name)) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push((parent, name));
        self.index.insert((parent, name), id);
        id
    }

    /// The names from root to `id`.
    fn path(&self, id: u32) -> Vec<&'static str> {
        let mut names = Vec::new();
        let mut cur = id;
        while cur != ROOT {
            let (parent, name) = self.nodes[cur as usize];
            names.push(name);
            cur = parent;
        }
        names.reverse();
        names
    }
}

/// Per-path aggregate: call count, duration moments, duration histogram.
#[derive(Clone)]
struct Agg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: Vec<u64>,
}

impl Agg {
    fn new() -> Self {
        Agg { count: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0, buckets: vec![0; NBUCKETS] }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// One finished span occurrence (kept only when a raw-event sink is active).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name (leaf, not the full path).
    pub name: &'static str,
    /// Observability thread id (dense, assigned on first use per thread).
    pub tid: u32,
    /// Nesting depth at the time the span ran (0 = thread root).
    pub depth: u16,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

// ---------------------------------------------------------------------------
// Thread-local collection state
// ---------------------------------------------------------------------------

struct ThreadState {
    tid: u32,
    stack: Vec<u32>,
    paths: PathTable,
    aggs: Vec<Agg>,
    events: Vec<SpanEvent>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            paths: PathTable::default(),
            aggs: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Merges collected data into the global registry and resets the local
    /// tables, re-interning any still-open span stack so open spans keep
    /// valid ids.
    fn flush(&mut self) {
        let paths = std::mem::take(&mut self.paths);
        let aggs = std::mem::take(&mut self.aggs);
        let events = std::mem::take(&mut self.events);
        if !aggs.is_empty() || !events.is_empty() {
            let mut g = global();
            // Local interning order guarantees parents precede children, so a
            // single forward pass can map local ids to global ids.
            let mut map = vec![ROOT; paths.nodes.len()];
            for (local_id, &(parent, name)) in paths.nodes.iter().enumerate() {
                let gparent = if parent == ROOT { ROOT } else { map[parent as usize] };
                map[local_id] = g.paths.intern(gparent, name);
            }
            for (local_id, agg) in aggs.iter().enumerate() {
                if agg.count == 0 {
                    continue;
                }
                let gid = map[local_id] as usize;
                if g.aggs.len() <= gid {
                    g.aggs.resize_with(gid + 1, Agg::new);
                }
                g.aggs[gid].merge(agg);
            }
            g.events.extend(events);
        }
        // Rebuild the open stack against the fresh local table.
        let old_stack = std::mem::take(&mut self.stack);
        let mut parent = ROOT;
        for old_id in old_stack {
            let name = paths.nodes[old_id as usize].1;
            parent = self.paths.intern(parent, name);
            self.stack.push(parent);
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// Merges this thread's collected spans into the global registry. Worker
/// threads flush automatically when they exit; long-lived threads (and the
/// main thread, via [`finish`] / [`snapshot`]) flush explicitly.
pub fn flush_thread() {
    TLS.with(|s| s.borrow_mut().flush());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An RAII guard timing a region. Created by [`span`] or [`span_at`];
/// records on drop, or at [`Span::close_at`].
#[must_use = "a span measures the region it is alive for"]
pub struct Span {
    path: u32,
    name: &'static str,
    start_ns: u64,
    active: bool,
}

/// Opens a span named `name`, nested under the innermost open span on this
/// thread. When observability is disabled this is a single atomic load.
#[inline]
pub fn span(name: &'static str) -> Span {
    let mut span = span_at(name, 0);
    if span.active {
        span.start_ns = now_ns();
    }
    span
}

/// [`span`] from `start_ns`, a [`now_ns`] reading the caller took, so one
/// reading can end one region ([`Span::close_at`]) and start the next.
#[inline]
pub fn span_at(name: &'static str, start_ns: u64) -> Span {
    if !enabled() {
        return Span { path: 0, name, start_ns: 0, active: false };
    }
    let path = TLS.with(|s| {
        let mut st = s.borrow_mut();
        let parent = st.stack.last().copied().unwrap_or(ROOT);
        let id = st.paths.intern(parent, name);
        st.stack.push(id);
        id
    });
    Span { path, name, start_ns, active: true }
}

impl Span {
    /// Ends the span at `end_ns`, a [`now_ns`] reading the caller already
    /// took, instead of reading the clock on drop.
    pub fn close_at(mut self, end_ns: u64) {
        if self.active {
            self.record(end_ns);
        }
    }

    /// Records the span as ending at `end_ns`; it is inactive afterwards.
    fn record(&mut self, end_ns: u64) {
        self.active = false;
        let dur_ns = end_ns.saturating_sub(self.start_ns);
        TLS.with(|s| {
            let mut st = s.borrow_mut();
            // Pop back to this span: drop order guarantees inner spans closed
            // first, so the top of the stack is this span's id.
            debug_assert_eq!(st.stack.last().copied(), Some(self.path));
            st.stack.pop();
            let depth = st.stack.len() as u16;
            let id = self.path as usize;
            if st.aggs.len() <= id {
                st.aggs.resize_with(id + 1, Agg::new);
            }
            st.aggs[id].record(dur_ns);
            if EVENTS_WANTED.load(Ordering::Relaxed) {
                let cap = EVENT_CAP.load(Ordering::Relaxed);
                if EVENT_COUNT.fetch_add(1, Ordering::Relaxed) < cap {
                    let tid = st.tid;
                    st.events.push(SpanEvent {
                        name: self.name,
                        tid,
                        depth,
                        start_ns: self.start_ns,
                        dur_ns,
                    });
                }
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            self.record(now_ns());
        }
    }
}

// ---------------------------------------------------------------------------
// Counters and histograms (static-friendly, lock-free)
// ---------------------------------------------------------------------------

struct GlobalState {
    paths: PathTable,
    aggs: Vec<Agg>,
    events: Vec<SpanEvent>,
    counters: Vec<&'static Counter>,
    histograms: Vec<&'static Histogram>,
    metrics: Vec<Metric>,
}

fn global() -> MutexGuard<'static, GlobalState> {
    static GLOBAL: OnceLock<Mutex<GlobalState>> = OnceLock::new();
    lock(GLOBAL.get_or_init(|| {
        Mutex::new(GlobalState {
            paths: PathTable::default(),
            aggs: Vec::new(),
            events: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
            metrics: Vec::new(),
        })
    }))
}

/// A named monotonic counter, designed to live in a `static`:
///
/// ```
/// static ROWS: valuenet_obs::Counter = valuenet_obs::Counter::new("exec.rows_scanned");
/// ROWS.add(128);
/// ```
///
/// Adds are relaxed atomic increments; with observability disabled they are
/// a single atomic load. Counters self-register in the global registry on
/// first use.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A counter named `name` (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `n`; no-op while observability is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            global().counters.push(self);
        }
    }
}

/// A named fixed-bucket histogram for a `static` (see [`hist`] for the
/// bucket layout). Records are two relaxed atomic increments.
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: AtomicBuckets,
    registered: AtomicBool,
}

impl Histogram {
    /// A histogram named `name` (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: AtomicBuckets::new(),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one value; no-op while observability is disabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            global().histograms.push(self);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets.record(v);
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile `q` in `(0, 1]`, as a bucket midpoint
    /// (relative error ≤ 12.5%). 0.0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        percentile_from_counts(&self.buckets.counts(), q)
    }
}

// ---------------------------------------------------------------------------
// Metrics (sparse named time series, e.g. per-epoch loss)
// ---------------------------------------------------------------------------

/// One point of a named series (e.g. `train.epoch_loss` at epoch 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Series name.
    pub name: &'static str,
    /// Series index (epoch, step, …).
    pub index: u64,
    /// Value.
    pub value: f64,
}

/// Records one metric point; no-op while observability is disabled.
pub fn metric(name: &'static str, index: u64, value: f64) {
    if !enabled() {
        return;
    }
    global().metrics.push(Metric { name, index, value });
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Aggregate statistics of one span path.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Names from root to this span.
    pub path: Vec<String>,
    /// Occurrences.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Fastest occurrence.
    pub min_ns: u64,
    /// Slowest occurrence.
    pub max_ns: u64,
    /// Median duration (bucket midpoint).
    pub p50_ns: f64,
    /// 90th-percentile duration.
    pub p90_ns: f64,
    /// 99th-percentile duration.
    pub p99_ns: f64,
}

impl SpanStat {
    /// `a/b/c` form of the path.
    pub fn path_string(&self) -> String {
        self.path.join("/")
    }

    /// Nesting depth (0 = root).
    pub fn depth(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Counter value at snapshot time.
#[derive(Debug, Clone)]
pub struct CounterStat {
    /// Counter name.
    pub name: String,
    /// Total.
    pub value: u64,
}

/// Histogram summary at snapshot time.
#[derive(Debug, Clone)]
pub struct HistStat {
    /// Histogram name.
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// p50 (bucket midpoint).
    pub p50: f64,
    /// p90.
    pub p90: f64,
    /// p99.
    pub p99: f64,
}

/// A point-in-time copy of everything the registry has aggregated.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Span aggregates in deterministic tree order (depth-first, siblings
    /// sorted by name), independent of thread scheduling.
    pub spans: Vec<SpanStat>,
    /// Raw span events (present only when an event sink is configured).
    pub events: Vec<SpanEvent>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistStat>,
    /// Metric points in recording order.
    pub metrics: Vec<Metric>,
    /// Raw span events discarded after the event cap was hit.
    pub dropped_events: u64,
}

impl Snapshot {
    /// The span aggregate whose path ends with `name` (first match in tree
    /// order).
    pub fn span_named(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path.last().map(String::as_str) == Some(name))
    }

    /// The counter named `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }
}

/// Flushes the current thread and captures a [`Snapshot`]. Does not clear
/// the registry — snapshots are cumulative.
pub fn snapshot() -> Snapshot {
    flush_thread();
    let g = global();
    // Children per node, then DFS with siblings sorted by name so the order
    // is independent of which worker thread flushed first.
    let n = g.paths.nodes.len();
    let mut roots: Vec<u32> = Vec::new();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (id, &(parent, _)) in g.paths.nodes.iter().enumerate() {
        if parent == ROOT {
            roots.push(id as u32);
        } else {
            children[parent as usize].push(id as u32);
        }
    }
    let by_name = |table: &PathTable, ids: &mut Vec<u32>| {
        ids.sort_by_key(|&id| table.nodes[id as usize].1);
    };
    by_name(&g.paths, &mut roots);
    for c in &mut children {
        by_name(&g.paths, c);
    }
    let mut spans = Vec::new();
    let mut stack: Vec<u32> = roots.into_iter().rev().collect();
    while let Some(id) = stack.pop() {
        if let Some(agg) = g.aggs.get(id as usize) {
            if agg.count > 0 {
                spans.push(SpanStat {
                    path: g.paths.path(id).into_iter().map(String::from).collect(),
                    count: agg.count,
                    total_ns: agg.total_ns,
                    min_ns: agg.min_ns,
                    max_ns: agg.max_ns,
                    p50_ns: percentile_from_counts(&agg.buckets, 0.50),
                    p90_ns: percentile_from_counts(&agg.buckets, 0.90),
                    p99_ns: percentile_from_counts(&agg.buckets, 0.99),
                });
            }
        }
        for &c in children[id as usize].iter().rev() {
            stack.push(c);
        }
    }

    let mut counters: Vec<CounterStat> = g
        .counters
        .iter()
        .map(|c| CounterStat { name: c.name().to_string(), value: c.get() })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut histograms: Vec<HistStat> = g
        .histograms
        .iter()
        .map(|h| HistStat {
            name: h.name().to_string(),
            count: h.count(),
            sum: h.sum(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p99: h.percentile(0.99),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));

    let cap = EVENT_CAP.load(Ordering::Relaxed);
    let recorded = EVENT_COUNT.load(Ordering::Relaxed);
    Snapshot {
        spans,
        events: g.events.clone(),
        counters,
        histograms,
        metrics: g.metrics.clone(),
        dropped_events: recorded.saturating_sub(cap.min(recorded)),
    }
}

/// Flushes, snapshots, and drives every configured sink: tree summary to
/// stderr (`OBS=1`), JSONL event stream (`OBS_JSONL`), Chrome trace
/// (`OBS_CHROME_TRACE`), collapsed-stack profile (`OBS_PROFILE`). All four
/// read the one snapshot this returns for further processing (e.g. the
/// run report). Safe to call when disabled (returns an empty snapshot).
pub fn finish() -> Snapshot {
    let snap = snapshot();
    let cfg = config().clone();
    if cfg.summary {
        eprint!("{}", summary(&snap));
    }
    let report = |path: &str, r: std::io::Result<()>| {
        if let Err(e) = r {
            eprintln!("valuenet-obs: cannot write {path}: {e}");
        }
    };
    if let Some(path) = &cfg.jsonl {
        report(path, sink::write_jsonl(path, &snap));
    }
    if let Some(path) = &cfg.chrome_trace {
        report(path, std::fs::write(path, chrome_trace(&snap)));
    }
    if let Some(path) = &cfg.profile {
        report(path, sink::write_profile(path, &snap));
    }
    snap
}

/// Clears all aggregated state (spans, events, counter/histogram values,
/// metrics) and the calling thread's local tables. Intended for tests;
/// sinks and the enabled flag are untouched.
pub fn reset() {
    TLS.with(|s| {
        let mut st = s.borrow_mut();
        let open = st.stack.len();
        st.paths = PathTable::default();
        st.aggs = Vec::new();
        st.events = Vec::new();
        st.stack.clear();
        // Open spans would record against a cleared table; tests reset
        // between top-level regions, so there should be none.
        debug_assert_eq!(open, 0, "reset() with open spans");
    });
    let mut g = global();
    g.paths = PathTable::default();
    g.aggs = Vec::new();
    g.events = Vec::new();
    g.metrics = Vec::new();
    for c in &g.counters {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in &g.histograms {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.buckets.reset();
    }
    EVENT_COUNT.store(0, Ordering::Relaxed);
}
