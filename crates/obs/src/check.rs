//! Validation of observability JSONL streams (the `vn-obs-check` logic).
//!
//! Every record kind the crate emits has a shape check here, so CI catches
//! producer drift at artifact time instead of dashboard time. Unknown
//! record types fail, and — unlike the pre-v2 validator — so does a
//! `schema_version` this build does not know: a skipped version check is
//! how silently incompatible artifacts slip through.

use crate::json::Json;
use crate::RUN_REPORT_SCHEMA_VERSION;
use std::collections::HashSet;

/// Outcome of validating one stream.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Non-blank lines seen.
    pub lines: usize,
    /// Distinct span names seen (raw events or aggregates).
    pub spans: HashSet<String>,
    /// counter/histogram/metric/bench/checkpoint records.
    pub scalars: usize,
    /// `type:"trace"` records.
    pub traces: usize,
    /// `type:"profile"` records.
    pub profiles: usize,
    /// `type:"slo"` records.
    pub slos: usize,
    /// Whether a meta line was seen.
    pub saw_meta: bool,
    /// Every failure, as `<path>:<line>: <what>`.
    pub errors: Vec<String>,
}

impl CheckReport {
    /// Whether the stream validated cleanly.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// The one-line success summary `vn-obs-check` prints.
    pub fn summary(&self) -> String {
        format!(
            "OK — {} lines, {} distinct spans, {} scalar records, {} traces, {} profiles, {} slos",
            self.lines,
            self.spans.len(),
            self.scalars,
            self.traces,
            self.profiles,
            self.slos
        )
    }
}

/// Validates one already-parsed record. Returns the record's span name when
/// it contributes one.
fn check_record(record: &Json, report: &mut CheckReport) -> Result<Option<String>, String> {
    // Any record carrying a schema_version must carry one this build knows.
    if let Some(v) = record.get("schema_version") {
        match v.as_f64() {
            Some(n) if n == RUN_REPORT_SCHEMA_VERSION as f64 => {}
            Some(n) => {
                return Err(format!(
                    "unknown schema_version {n} (this build understands {RUN_REPORT_SCHEMA_VERSION})"
                ))
            }
            None => return Err("non-numeric schema_version".to_string()),
        }
    }
    match record.get("type").and_then(Json::as_str) {
        Some("meta") | Some("checkpoint_meta") => {
            report.saw_meta = true;
            if record.get("schema_version").is_none() {
                return Err("meta line missing schema_version".to_string());
            }
            Ok(None)
        }
        Some("span") | Some("span_agg") => match record.get("name").and_then(Json::as_str) {
            Some(name) => Ok(Some(name.to_string())),
            None => Err("span record without name".to_string()),
        },
        Some("counter") | Some("histogram") | Some("metric") | Some("bench")
        | Some("checkpoint_param") | Some("checkpoint_end") => {
            report.scalars += 1;
            Ok(None)
        }
        Some("trace") => {
            record.field("trace_id", "a number", Json::as_f64)?;
            record.str_field("outcome")?;
            record.field("stages", "an array", Json::as_arr)?;
            record.field("attempts", "an array", Json::as_arr)?;
            report.traces += 1;
            Ok(None)
        }
        Some("profile") => {
            record.str_field("stack")?;
            record.field("self_ns", "a non-negative integer", Json::as_u64)?;
            report.profiles += 1;
            Ok(None)
        }
        Some("slo") => {
            for key in ["availability_burn", "latency_burn", "total"] {
                record.field(key, "a number", Json::as_f64)?;
            }
            report.slos += 1;
            Ok(None)
        }
        Some(other) => Err(format!("unknown type {other:?}")),
        None => Err("record without type field".to_string()),
    }
}

/// Validates a whole stream. `path` labels errors; `required_spans` must
/// each appear as a span event or aggregate.
pub fn check_stream(path: &str, text: &str, required_spans: &[&str]) -> CheckReport {
    let mut report = CheckReport::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        let record = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                report.errors.push(format!("{path}:{}: invalid JSON: {e}", lineno + 1));
                continue;
            }
        };
        match check_record(&record, &mut report) {
            Ok(Some(span)) => {
                report.spans.insert(span);
            }
            Ok(None) => {}
            Err(e) => report.errors.push(format!("{path}:{}: {e}", lineno + 1)),
        }
    }
    if report.lines == 0 {
        report.errors.push(format!("{path} is empty"));
    } else if !report.saw_meta {
        report.errors.push(format!("{path}: no meta line with schema_version"));
    }
    for name in required_spans {
        if !report.spans.contains(*name) {
            report.errors.push(format!("required span {name:?} not present in {path}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = r#"{"schema_version":1,"type":"meta","clock":"monotonic_ns"}"#;

    fn check(lines: &[&str]) -> CheckReport {
        check_stream("test.jsonl", &lines.join("\n"), &[])
    }

    #[test]
    fn span_records_validate_and_collect_names() {
        let r = check(&[
            META,
            r#"{"type":"span","name":"serve.request","tid":0,"start_ns":1,"dur_ns":2}"#,
            r#"{"type":"span_agg","name":"matmul","count":3}"#,
        ]);
        assert!(r.ok(), "{:?}", r.errors);
        assert!(r.spans.contains("serve.request") && r.spans.contains("matmul"));
        assert!(!check(&[META, r#"{"type":"span","tid":0}"#]).ok());
    }

    #[test]
    fn scalar_records_validate() {
        let r = check(&[
            META,
            r#"{"type":"counter","name":"exec.rows","value":7}"#,
            r#"{"type":"histogram","name":"lat","count":1}"#,
            r#"{"type":"metric","name":"loss","index":0,"value":0.5}"#,
            r#"{"type":"bench","name":"matmul","ns":12}"#,
        ]);
        assert!(r.ok(), "{:?}", r.errors);
        assert_eq!(r.scalars, 4);
    }

    #[test]
    fn trace_records_validate_shape() {
        let good = r#"{"schema_version":1,"type":"trace","trace_id":7,"outcome":"completed","stages":[],"attempts":[]}"#;
        let r = check(&[META, good]);
        assert!(r.ok(), "{:?}", r.errors);
        assert_eq!(r.traces, 1);
        // Each required field is load-bearing.
        for missing in [
            r#"{"type":"trace","outcome":"completed","stages":[],"attempts":[]}"#,
            r#"{"type":"trace","trace_id":7,"stages":[],"attempts":[]}"#,
            r#"{"type":"trace","trace_id":7,"outcome":"completed","attempts":[]}"#,
            r#"{"type":"trace","trace_id":7,"outcome":"completed","stages":[]}"#,
        ] {
            assert!(!check(&[META, missing]).ok(), "accepted: {missing}");
        }
    }

    #[test]
    fn profile_records_validate_shape() {
        let r = check(&[META, r#"{"type":"profile","stack":"a;b","self_ns":12}"#]);
        assert!(r.ok(), "{:?}", r.errors);
        assert_eq!(r.profiles, 1);
        assert!(!check(&[META, r#"{"type":"profile","self_ns":12}"#]).ok());
        assert!(!check(&[META, r#"{"type":"profile","stack":"a;b"}"#]).ok());
        // Sampled counts are not self time, and self time is never negative.
        assert!(!check(&[META, r#"{"type":"profile","stack":"a;b","samples":12}"#]).ok());
        assert!(!check(&[META, r#"{"type":"profile","stack":"a;b","self_ns":-1}"#]).ok());
    }

    #[test]
    fn slo_records_validate_shape() {
        let r = check(&[
            META,
            r#"{"type":"slo","window":"cumulative","total":10,"good":10,"availability_burn":0.0,"latency_burn":0.0}"#,
        ]);
        assert!(r.ok(), "{:?}", r.errors);
        assert_eq!(r.slos, 1);
        assert!(!check(&[META, r#"{"type":"slo","total":10,"latency_burn":0.0}"#]).ok());
    }

    #[test]
    fn unknown_schema_version_fails_not_skips() {
        let r = check(&[r#"{"schema_version":2,"type":"meta"}"#]);
        assert!(!r.ok());
        assert!(r.errors[0].contains("unknown schema_version"), "{:?}", r.errors);
        // …even on non-meta records.
        let r = check(&[
            META,
            r#"{"schema_version":99,"type":"trace","trace_id":1,"outcome":"x","stages":[],"attempts":[]}"#,
        ]);
        assert!(!r.ok());
    }

    #[test]
    fn unknown_types_missing_meta_and_required_spans_fail() {
        assert!(!check(&[META, r#"{"type":"mystery"}"#]).ok());
        assert!(!check(&[r#"{"type":"counter","name":"x","value":1}"#]).ok()); // no meta
        assert!(!check(&[]).ok()); // empty
        let r = check_stream("t.jsonl", &format!("{META}\n"), &["serve.request"]);
        assert!(!r.ok());
        assert!(r.errors[0].contains("required span"), "{:?}", r.errors);
    }
}
