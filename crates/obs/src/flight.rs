//! A fixed-size flight recorder for completed request traces.
//!
//! The recorder keeps the last N [`RequestTrace`]s in two rings: a *clean*
//! ring for completed requests and a *pinned* ring for terminal failures
//! (panic, quarantine, deadline miss). Routing by outcome
//! is the pinning policy: a flood of healthy traffic can only ever evict
//! other healthy traces — the request that killed a worker five minutes ago
//! is still there when someone asks, no matter how busy the server has been
//! since. Terminal traces are evicted only by newer terminal traces.
//!
//! Slot assignment is a lock-free `fetch_add` on a per-ring cursor; the
//! slot swap itself is a short per-slot mutex (writers touch exactly one
//! slot, readers copy one slot at a time), so recording never contends on
//! a recorder-wide lock.

use crate::json::Json;
use crate::trace::RequestTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Ring {
    slots: Vec<Mutex<Option<(u64, RequestTrace)>>>,
    cursor: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    fn push(&self, seq: u64, trace: RequestTrace) {
        let idx = (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        *lock(&self.slots[idx]) = Some((seq, trace));
    }

    fn collect(&self, out: &mut Vec<(u64, RequestTrace)>) {
        for slot in &self.slots {
            if let Some((seq, trace)) = lock(slot).as_ref() {
                out.push((*seq, trace.clone()));
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The flight recorder. See the module docs for the pinning policy.
pub struct FlightRecorder {
    clean: Ring,
    pinned: Ring,
    seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` traces, split evenly between the
    /// clean and pinned rings (at least one slot each).
    pub fn new(capacity: usize) -> FlightRecorder {
        let half = (capacity / 2).max(1);
        FlightRecorder {
            clean: Ring::new(half),
            pinned: Ring::new(capacity.saturating_sub(half).max(1)),
            seq: AtomicU64::new(0),
        }
    }

    /// Records a finished trace, routing terminal failures to the pinned
    /// ring.
    pub fn record(&self, trace: RequestTrace) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if trace.is_terminal_failure() {
            self.pinned.push(seq, trace);
        } else {
            self.clean.push(seq, trace);
        }
    }

    /// Traces recorded so far (recorder lifetime total, not retained count).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// A copy of every retained trace, oldest first.
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        let mut entries: Vec<(u64, RequestTrace)> = Vec::new();
        self.clean.collect(&mut entries);
        self.pinned.collect(&mut entries);
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, t)| t).collect()
    }

    /// The retained trace with id `trace_id`, if still in a ring.
    pub fn find(&self, trace_id: u64) -> Option<RequestTrace> {
        self.snapshot().into_iter().find(|t| t.trace_id.0 == trace_id)
    }

    /// The `trace`-verb payload: retained traces (newest last), optionally
    /// filtered to one trace id or truncated to the last `last`.
    pub fn to_json(&self, trace_id: Option<u64>, last: Option<usize>) -> Json {
        let mut traces = self.snapshot();
        if let Some(id) = trace_id {
            traces.retain(|t| t.trace_id.0 == id);
        }
        if let Some(n) = last {
            let skip = traces.len().saturating_sub(n);
            traces.drain(..skip);
        }
        Json::obj(vec![
            ("recorded", Json::Int(self.recorded() as i64)),
            ("retained", Json::Int(traces.len() as i64)),
            ("traces", Json::Arr(traces.iter().map(RequestTrace::to_json).collect())),
        ])
    }

    /// Appends one trace to a JSONL file (creating it with a `meta` line if
    /// new/empty) — the quarantine auto-dump. Records carry the
    /// `schema_version` envelope so `vn-obs-check` validates the file.
    ///
    /// # Errors
    /// File I/O failures.
    pub fn append_jsonl(path: &str, trace: &RequestTrace) -> std::io::Result<()> {
        use std::io::Write as _;
        let needs_meta = std::fs::metadata(path).map(|m| m.len() == 0).unwrap_or(true);
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        if needs_meta {
            writeln!(
                f,
                "{}",
                crate::jsonl_line(Json::obj(vec![
                    ("type", Json::Str("meta".into())),
                    ("stream", Json::Str("flight_recorder".into())),
                    ("clock", Json::Str("monotonic_us".into())),
                ]))
            )?;
        }
        writeln!(f, "{}", crate::jsonl_line(trace.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id_hint: i64, outcome: &str) -> RequestTrace {
        let mut t = RequestTrace::new(Some(id_hint), "db".into(), 0);
        t.finish(outcome);
        t
    }

    #[test]
    fn terminal_pinning_beats_clean_recency() {
        let rec = FlightRecorder::new(8); // 4 clean + 4 pinned slots
        for i in 0..4 {
            rec.record(trace(i, "completed"));
        }
        let poisoned = trace(99, "quarantined");
        let poisoned_id = poisoned.trace_id.0;
        rec.record(poisoned);
        // A flood of clean traffic wraps the clean ring many times over…
        for i in 0..100 {
            rec.record(trace(1000 + i, "completed"));
        }
        // …but the terminal trace is still retained with full detail.
        let found = rec.find(poisoned_id).expect("terminal trace evicted by clean traffic");
        assert_eq!(found.outcome, "quarantined");
        assert_eq!(found.request_id, Some(99));
        // Clean ring kept only the newest window.
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 5); // 4 clean slots + 1 pinned
        assert!(snap.iter().filter(|t| t.outcome == "completed").all(|t| t
            .request_id
            .unwrap()
            >= 1096));
        assert_eq!(rec.recorded(), 105);
    }

    #[test]
    fn terminal_traces_evict_only_older_terminal_traces() {
        let rec = FlightRecorder::new(4); // 2 pinned slots
        let first = trace(1, "internal");
        let first_id = first.trace_id.0;
        rec.record(first);
        rec.record(trace(2, "deadline_exceeded"));
        rec.record(trace(3, "quarantined")); // wraps: evicts #1
        assert!(rec.find(first_id).is_none(), "oldest terminal not evicted by newer terminal");
        let outcomes: Vec<String> = rec.snapshot().into_iter().map(|t| t.outcome).collect();
        assert!(outcomes.contains(&"deadline_exceeded".to_string()));
        assert!(outcomes.contains(&"quarantined".to_string()));
    }

    #[test]
    fn json_dump_filters_and_truncates() {
        let rec = FlightRecorder::new(8);
        for i in 0..3 {
            rec.record(trace(i, "completed"));
        }
        let all = rec.to_json(None, None);
        assert_eq!(all.get("retained").and_then(Json::as_f64), Some(3.0));
        let last_two = rec.to_json(None, Some(2));
        assert_eq!(
            last_two.get("traces").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let target = rec.snapshot()[1].trace_id.0;
        let one = rec.to_json(Some(target), None);
        let arr = one.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("trace_id").and_then(Json::as_f64), Some(target as f64));
    }

    #[test]
    fn jsonl_append_writes_meta_once() {
        let path = std::env::temp_dir().join(format!("vn-flight-test-{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);
        FlightRecorder::append_jsonl(path_s, &trace(1, "quarantined")).unwrap();
        FlightRecorder::append_jsonl(path_s, &trace(2, "quarantined")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // one meta + two traces
        let meta = Json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
        assert!(meta.get("schema_version").is_some());
        for line in &lines[1..] {
            let t = Json::parse(line).unwrap();
            assert_eq!(t.get("type").and_then(Json::as_str), Some("trace"));
            assert!(t.get("schema_version").is_some());
        }
        let _ = std::fs::remove_file(&path);
    }
}
