//! Output sinks: human-readable tree summary, JSONL event stream,
//! Chrome-trace export, and the structured run report.
//!
//! ## JSONL format (`OBS_JSONL=path`)
//!
//! One JSON object per line. The first line is a `meta` record carrying
//! `schema_version`; every later line has a `type` discriminator:
//!
//! ```text
//! {"type":"meta","schema_version":1,"clock":"monotonic_ns"}
//! {"type":"span","name":"train.epoch","tid":0,"depth":0,"start_ns":...,"dur_ns":...}
//! {"type":"span_agg","path":"train.epoch/train.batch","count":...,"total_ns":...,"p50_ns":...,"p90_ns":...,"p99_ns":...}
//! {"type":"counter","name":"tensor.matmul.flops","value":...}
//! {"type":"histogram","name":"beam.candidates_per_step","count":...,"sum":...,"p50":...,"p90":...,"p99":...}
//! {"type":"metric","name":"train.epoch_loss","index":2,"value":0.41}
//! ```
//!
//! ## Chrome trace (`OBS_CHROME_TRACE=path`)
//!
//! The standard `{"traceEvents":[...]}` JSON accepted by `chrome://tracing`
//! and <https://ui.perfetto.dev>: one complete (`"ph":"X"`) event per span
//! occurrence, microsecond timestamps, observability thread ids as `tid`.

use crate::json::Json;
use crate::{Snapshot, SpanStat};
use std::io::{BufWriter, Write};

/// Version stamp written into every JSONL stream and run report. Bump when
/// a field changes meaning so downstream parsers (`vn-obs-check`, saved
/// run reports and checkpoints) can dispatch on it.
pub const RUN_REPORT_SCHEMA_VERSION: i64 = 1;

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

/// Writes JSON objects one per line, stamping each record with
/// `schema_version` (unless the record already carries one). Used by the
/// observability event stream and by checkpoints, so every machine-readable
/// artifact in the repository shares one versioned envelope.
pub struct JsonlWriter {
    out: BufWriter<std::fs::File>,
}

impl JsonlWriter {
    /// Creates/truncates `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(JsonlWriter { out: BufWriter::new(std::fs::File::create(path)?) })
    }

    /// Writes one record, injecting `schema_version` as the first field if
    /// the object does not already have one. Non-object values are written
    /// unchanged.
    pub fn write(&mut self, record: Json) -> std::io::Result<()> {
        let record = match record {
            Json::Obj(mut entries) => {
                if !entries.iter().any(|(k, _)| k == "schema_version") {
                    entries.insert(
                        0,
                        ("schema_version".to_string(), Json::Int(RUN_REPORT_SCHEMA_VERSION)),
                    );
                }
                Json::Obj(entries)
            }
            other => other,
        };
        writeln!(self.out, "{}", record.render())
    }

    /// Flushes buffered lines to disk.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Writes the full snapshot as a JSONL event stream.
pub fn write_jsonl(path: &str, snap: &Snapshot) -> std::io::Result<()> {
    let mut w = JsonlWriter::create(path)?;
    w.write(Json::obj(vec![
        ("type", Json::Str("meta".into())),
        ("clock", Json::Str("monotonic_ns".into())),
        ("dropped_events", Json::Int(snap.dropped_events as i64)),
    ]))?;
    for e in &snap.events {
        w.write(Json::obj(vec![
            ("type", Json::Str("span".into())),
            ("name", Json::Str(e.name.into())),
            ("tid", Json::Int(e.tid as i64)),
            ("depth", Json::Int(e.depth as i64)),
            ("start_ns", Json::Int(e.start_ns as i64)),
            ("dur_ns", Json::Int(e.dur_ns as i64)),
        ]))?;
    }
    for s in &snap.spans {
        w.write(Json::obj(vec![
            ("type", Json::Str("span_agg".into())),
            ("path", Json::Str(s.path_string())),
            ("name", Json::Str(s.path.last().cloned().unwrap_or_default())),
            ("count", Json::Int(s.count as i64)),
            ("total_ns", Json::Int(s.total_ns as i64)),
            ("min_ns", Json::Int(s.min_ns as i64)),
            ("max_ns", Json::Int(s.max_ns as i64)),
            ("p50_ns", Json::Num(s.p50_ns)),
            ("p90_ns", Json::Num(s.p90_ns)),
            ("p99_ns", Json::Num(s.p99_ns)),
        ]))?;
    }
    for c in &snap.counters {
        w.write(Json::obj(vec![
            ("type", Json::Str("counter".into())),
            ("name", Json::Str(c.name.clone())),
            ("value", Json::Int(c.value as i64)),
        ]))?;
    }
    for h in &snap.histograms {
        w.write(Json::obj(vec![
            ("type", Json::Str("histogram".into())),
            ("name", Json::Str(h.name.clone())),
            ("count", Json::Int(h.count as i64)),
            ("sum", Json::Int(h.sum as i64)),
            ("p50", Json::Num(h.p50)),
            ("p90", Json::Num(h.p90)),
            ("p99", Json::Num(h.p99)),
        ]))?;
    }
    for m in &snap.metrics {
        w.write(Json::obj(vec![
            ("type", Json::Str("metric".into())),
            ("name", Json::Str(m.name.into())),
            ("index", Json::Int(m.index as i64)),
            ("value", Json::Num(m.value)),
        ]))?;
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Chrome trace
// ---------------------------------------------------------------------------

/// Renders the snapshot's raw events as Chrome-trace JSON (load in
/// `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn chrome_trace(snap: &Snapshot) -> String {
    let mut events: Vec<Json> = Vec::with_capacity(snap.events.len() + 1);
    events.push(Json::obj(vec![
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("args", Json::obj(vec![("name", Json::Str("valuenet".into()))])),
    ]));
    for e in &snap.events {
        events.push(Json::obj(vec![
            ("name", Json::Str(e.name.into())),
            ("cat", Json::Str("valuenet".into())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(e.tid as i64)),
            ("ts", Json::Num(e.start_ns as f64 / 1e3)),
            ("dur", Json::Num(e.dur_ns as f64 / 1e3)),
        ]));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// Tree summary
// ---------------------------------------------------------------------------

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders the human-readable summary: the span tree with per-path count,
/// total, mean and percentiles, then counters (plus derived matmul GFLOP/s
/// when the kernel counters are present), histograms and metrics.
pub fn summary(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "── valuenet-obs summary ──");
    if !snap.spans.is_empty() {
        let name_width = snap
            .spans
            .iter()
            .map(|s| 2 * s.depth() + s.path.last().map(String::len).unwrap_or(0))
            .max()
            .unwrap_or(0)
            .max(4);
        let _ = writeln!(
            out,
            "{:<name_width$} {:>9} {:>10} {:>10} {:>10} {:>10}",
            "span", "count", "total", "mean", "p50", "p99"
        );
        for s in &snap.spans {
            let label = format!(
                "{}{}",
                "  ".repeat(s.depth()),
                s.path.last().map(String::as_str).unwrap_or("")
            );
            let mean = s.total_ns as f64 / s.count.max(1) as f64;
            let _ = writeln!(
                out,
                "{label:<name_width$} {:>9} {:>10} {:>10} {:>10} {:>10}",
                s.count,
                fmt_ns(s.total_ns as f64),
                fmt_ns(mean),
                fmt_ns(s.p50_ns),
                fmt_ns(s.p99_ns),
            );
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for c in &snap.counters {
            let _ = writeln!(out, "  {:<32} {}", c.name, c.value);
        }
        // Derived kernel throughput when the matmul counters are present.
        if let (Some(flops), Some(ns)) =
            (snap.counter("tensor.matmul.flops"), snap.counter("tensor.matmul.nanos"))
        {
            if ns > 0 {
                let _ = writeln!(
                    out,
                    "  {:<32} {:.2}",
                    "tensor.matmul.gflops (derived)",
                    flops as f64 / ns as f64
                );
            }
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "histograms (count / p50 / p90 / p99):");
        for h in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<32} {} / {:.1} / {:.1} / {:.1}",
                h.name, h.count, h.p50, h.p90, h.p99
            );
        }
    }
    if !snap.metrics.is_empty() {
        let _ = writeln!(out, "metrics (last value per series):");
        let mut seen: Vec<&'static str> = Vec::new();
        for m in snap.metrics.iter().rev() {
            if !seen.contains(&m.name) {
                seen.push(m.name);
            }
        }
        seen.reverse();
        for name in seen {
            if let Some(m) = snap.metrics.iter().rev().find(|m| m.name == name) {
                let _ = writeln!(out, "  {:<32} [{}] = {:.6}", m.name, m.index, m.value);
            }
        }
    }
    if snap.dropped_events > 0 {
        let _ = writeln!(
            out,
            "note: {} raw span events dropped after the event cap (OBS_EVENT_CAP)",
            snap.dropped_events
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

/// Execution-accuracy input for one Spider difficulty class.
#[derive(Debug, Clone)]
pub struct DifficultyRow {
    /// Class label (`Easy`, `Medium`, `Hard`, `Extra-Hard`).
    pub label: String,
    /// Correctly answered questions.
    pub correct: u64,
    /// Scored questions.
    pub total: u64,
}

fn span_stat_json(s: &SpanStat) -> Json {
    Json::obj(vec![
        ("path", Json::Str(s.path_string())),
        ("count", Json::Int(s.count as i64)),
        ("total_ms", Json::Num(s.total_ns as f64 / 1e6)),
        ("p50_ms", Json::Num(s.p50_ns / 1e6)),
        ("p90_ms", Json::Num(s.p90_ns / 1e6)),
        ("p99_ms", Json::Num(s.p99_ns / 1e6)),
    ])
}

/// Builds the structured run report joining per-difficulty Execution
/// Accuracy with the per-stage latency distribution of the snapshot.
pub fn run_report(rows: &[DifficultyRow], snap: &Snapshot) -> Json {
    let correct: u64 = rows.iter().map(|r| r.correct).sum();
    let total: u64 = rows.iter().map(|r| r.total).sum();
    let by_difficulty: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("difficulty", Json::Str(r.label.clone())),
                ("correct", Json::Int(r.correct as i64)),
                ("total", Json::Int(r.total as i64)),
                (
                    "accuracy",
                    if r.total > 0 {
                        Json::Num(r.correct as f64 / r.total as f64)
                    } else {
                        Json::Null
                    },
                ),
            ])
        })
        .collect();
    let stages: Vec<Json> = snap.spans.iter().map(span_stat_json).collect();
    let counters: Vec<Json> = snap
        .counters
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("name", Json::Str(c.name.clone())),
                ("value", Json::Int(c.value as i64)),
            ])
        })
        .collect();
    let metrics: Vec<Json> = snap
        .metrics
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::Str(m.name.into())),
                ("index", Json::Int(m.index as i64)),
                ("value", Json::Num(m.value)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema_version", Json::Int(RUN_REPORT_SCHEMA_VERSION)),
        (
            "execution_accuracy",
            Json::obj(vec![
                (
                    "overall",
                    if total > 0 {
                        Json::Num(correct as f64 / total as f64)
                    } else {
                        Json::Null
                    },
                ),
                ("by_difficulty", Json::Arr(by_difficulty)),
            ]),
        ),
        ("stages", Json::Arr(stages)),
        ("counters", Json::Arr(counters)),
        ("metrics", Json::Arr(metrics)),
    ])
}

/// Writes [`run_report`] to `path` as a single JSON document.
pub fn write_run_report(
    path: &str,
    rows: &[DifficultyRow],
    snap: &Snapshot,
) -> std::io::Result<()> {
    std::fs::write(path, run_report(rows, snap).render())
}

/// Like [`write_run_report`], but appends caller-provided top-level sections
/// to the report object — e.g. the quantized-inference accuracy comparison
/// that `table1_difficulty` produces next to the f32 run.
pub fn write_run_report_with(
    path: &str,
    rows: &[DifficultyRow],
    snap: &Snapshot,
    extra: Vec<(String, Json)>,
) -> std::io::Result<()> {
    let mut report = run_report(rows, snap);
    if let Json::Obj(fields) = &mut report {
        fields.extend(extra);
    }
    std::fs::write(path, report.render())
}
