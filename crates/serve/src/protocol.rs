//! The line-delimited JSON serving protocol.
//!
//! One request per line, one response line per request, over a local
//! stream socket. The JSON layer is `valuenet-obs`'s own (the repository's
//! zero-dependency writer/parser) so the server adds no new dependencies.
//!
//! ```text
//! → {"id":1,"verb":"translate","db":"student_pets","question":"How many pets?","deadline_ms":500}
//! ← {"schema_version":1,"id":1,"ok":true,"sql":"SELECT ...","rows":[["3"]],"values":[],"latency_us":812,"retries":0,"degraded":false}
//! → {"id":2,"verb":"stats"}
//! ← {"schema_version":1,"id":2,"ok":true,"stats":{...}}
//! → not json at all
//! ← {"schema_version":1,"id":null,"ok":false,"error":{"kind":"bad_request","detail":"..."}}
//! ```
//!
//! The failure taxonomy is closed: every response either carries `ok:true`
//! or one of the [`ErrorKind`] discriminators, so clients can dispatch on
//! `error.kind` without parsing prose.

use crate::fault::FaultSpec;
use valuenet_obs::json::Json;
use valuenet_obs::trace::RequestTrace;
use valuenet_obs::RUN_REPORT_SCHEMA_VERSION;

/// Typed rejection classes — the protocol's failure taxonomy, declared in
/// [`ErrorKind::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control shed the request (queue at capacity).
    Overload,
    /// Malformed frame: not JSON, not an object, missing/ill-typed fields,
    /// an unknown verb, or a fault-injection request on a server that does
    /// not allow it.
    BadRequest,
    /// The named database is not registered.
    UnknownDb,
    /// The per-request deadline expired (in queue or at a stage boundary).
    DeadlineExceeded,
    /// The pipeline ran but produced no executable SQL.
    TranslateFailed,
    /// The request killed two workers (its first attempt and its degraded
    /// retry) and is quarantined.
    Quarantined,
    /// A server-side failure that is not a worker kill (a translation
    /// aborted for another reason than its deadline, a dangling value
    /// pointer), or a harness-visible invariant breach (e.g. a reply
    /// channel that never completed).
    Internal,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorKind {
    /// Every kind, in declaration order, so `kind as usize` indexes it.
    pub const ALL: [ErrorKind; 8] = [
        ErrorKind::Overload,
        ErrorKind::BadRequest,
        ErrorKind::UnknownDb,
        ErrorKind::DeadlineExceeded,
        ErrorKind::TranslateFailed,
        ErrorKind::Quarantined,
        ErrorKind::Internal,
        ErrorKind::ShuttingDown,
    ];

    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownDb => "unknown_db",
            ErrorKind::Overload => "overload",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Quarantined => "quarantined",
            ErrorKind::TranslateFailed => "translate_failed",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire label.
    pub fn from_label(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// A typed request rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Taxonomy class.
    pub kind: ErrorKind,
    /// Human-readable detail (never required for dispatch).
    pub detail: String,
}

impl ServeError {
    /// Convenience constructor.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        ServeError { kind, detail: detail.into() }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

impl std::error::Error for ServeError {}

/// The per-request trace digest carried on every traced response (success
/// or failure): queue wait, attempt count, and total time per pipeline
/// stage. The full span tree stays in the flight recorder, retrievable by
/// `trace_id` through the `trace` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// The request's trace id (key into the flight recorder).
    pub trace_id: u64,
    /// Summed queue wait across all attempts, µs.
    pub queue_wait_us: u64,
    /// Worker attempts the request took (1 = no retries).
    pub attempts: u32,
    /// Requests in the neural decode of the last attempt that got past it
    /// (1; 0 = no attempt got past the decode).
    pub batch_size: u32,
    /// Total duration per stage label, aggregated across attempts, in
    /// first-execution order.
    pub stages: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Digest of a finished [`RequestTrace`].
    pub fn from_trace(t: &RequestTrace) -> TraceSummary {
        TraceSummary {
            trace_id: t.trace_id.0,
            queue_wait_us: t.queue_wait_us(),
            attempts: t.attempts.len() as u32,
            batch_size: t.batch_size,
            stages: t.stage_totals().iter().map(|&(s, d)| (s.to_string(), d)).collect(),
        }
    }

    /// The wire form (the `trace` field of a response).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_id", Json::Int(self.trace_id as i64)),
            ("queue_wait_us", Json::Int(self.queue_wait_us as i64)),
            ("attempts", Json::Int(self.attempts as i64)),
            ("batch_size", Json::Int(self.batch_size as i64)),
            (
                "stages",
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|(s, d)| (s.clone(), Json::Int(*d as i64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the wire form. `None` when `v` is not a trace object.
    pub fn from_json(v: &Json) -> Option<TraceSummary> {
        let trace_id = v.get("trace_id").and_then(Json::as_f64)? as u64;
        let stages = match v.get("stages") {
            Some(Json::Obj(entries)) => entries
                .iter()
                .map(|(k, d)| Some((k.clone(), d.as_f64()? as u64)))
                .collect::<Option<Vec<_>>>()?,
            _ => Vec::new(),
        };
        Some(TraceSummary {
            trace_id,
            queue_wait_us: v.get("queue_wait_us").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            attempts: v.get("attempts").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            batch_size: v.get("batch_size").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            stages,
        })
    }
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Translate a question against a registered database.
    Translate {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<i64>,
        /// Database name (`db_id`).
        db: String,
        /// The natural-language question.
        question: String,
        /// Per-request deadline override in milliseconds (`None` = server
        /// default, `Some(0)` = no deadline).
        deadline_ms: Option<u64>,
        /// Gold value options (ValueNet-light oracle mode only).
        gold_values: Option<Vec<String>>,
        /// Deterministic fault directives (accepted only when the server
        /// was started with fault injection allowed).
        fault: Option<FaultSpec>,
    },
    /// Serving statistics (queue depth, shed count, per-stage percentiles,
    /// SLO burn rates).
    Stats {
        /// Correlation id.
        id: Option<i64>,
        /// `true` = interval semantics: counters and histograms since the
        /// previous delta-stats call (snapshot-and-diff). `false` (the
        /// default) keeps the cumulative-since-start behaviour.
        delta: bool,
    },
    /// Flight-recorder dump: retained request traces with full span trees.
    Trace {
        /// Correlation id.
        id: Option<i64>,
        /// Return only the trace with this trace id.
        trace_id: Option<u64>,
        /// Return only the newest this-many traces.
        last: Option<usize>,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: Option<i64>,
    },
    /// Graceful shutdown: drain, stop workers, close the socket.
    Shutdown {
        /// Correlation id.
        id: Option<i64>,
    },
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    /// [`ErrorKind::BadRequest`] with a parse detail on any malformed frame.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let bad = |detail: String| ServeError::new(ErrorKind::BadRequest, detail);
        let v = Json::parse(line.trim()).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(bad("request must be a JSON object".into()));
        }
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(Json::Int(i)) => Some(*i),
            Some(_) => return Err(bad("`id` must be an integer".into())),
        };
        match v.str_field("verb").map_err(bad)? {
            "translate" => {
                let db = v.str_field("db").map_err(bad)?.to_string();
                let question = v.str_field("question").map_err(bad)?.to_string();
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(Json::Int(i)) if *i >= 0 => Some(*i as u64),
                    Some(_) => {
                        return Err(bad("`deadline_ms` must be a non-negative integer".into()))
                    }
                };
                let gold_values = match v.get("gold_values") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for it in items {
                            match it.as_str() {
                                Some(s) => out.push(s.to_string()),
                                None => {
                                    return Err(bad("`gold_values` must be strings".into()))
                                }
                            }
                        }
                        Some(out)
                    }
                    Some(_) => return Err(bad("`gold_values` must be an array".into())),
                };
                let fault = match v.get("fault") {
                    None | Some(Json::Null) => None,
                    Some(f) => Some(FaultSpec::parse(f).map_err(bad)?),
                };
                Ok(Request::Translate { id, db, question, deadline_ms, gold_values, fault })
            }
            "stats" => {
                let delta = match v.get("window") {
                    None | Some(Json::Null) => false,
                    Some(Json::Str(s)) if s == "delta" => true,
                    Some(Json::Str(s)) if s == "cumulative" => false,
                    Some(_) => {
                        return Err(bad("`window` must be \"cumulative\" or \"delta\"".into()))
                    }
                };
                Ok(Request::Stats { id, delta })
            }
            "trace" => {
                let trace_id = match v.get("trace_id") {
                    None | Some(Json::Null) => None,
                    Some(Json::Int(i)) if *i >= 0 => Some(*i as u64),
                    Some(_) => {
                        return Err(bad("`trace_id` must be a non-negative integer".into()))
                    }
                };
                let last = match v.get("last") {
                    None | Some(Json::Null) => None,
                    Some(Json::Int(i)) if *i >= 0 => Some(*i as usize),
                    Some(_) => return Err(bad("`last` must be a non-negative integer".into())),
                };
                Ok(Request::Trace { id, trace_id, last })
            }
            "ping" => Ok(Request::Ping { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(bad(format!("unknown verb `{other}`"))),
        }
    }

    /// The request's correlation id.
    pub fn id(&self) -> Option<i64> {
        match self {
            Request::Translate { id, .. }
            | Request::Stats { id, .. }
            | Request::Trace { id, .. }
            | Request::Ping { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// A successful translation, as serialised on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Translated {
    /// The synthesized SQL (`None` never reaches the wire as `ok:true`; the
    /// engine maps it to [`ErrorKind::TranslateFailed`]).
    pub sql: String,
    /// Executed result rows, each datum rendered as text.
    pub rows: Vec<Vec<String>>,
    /// Whether row order is semantically meaningful.
    pub ordered: bool,
    /// Value texts selected by the decoder, in pointer order.
    pub values: Vec<String>,
    /// End-to-end latency (admission to reply), microseconds.
    pub latency_us: u64,
    /// Retry attempts the request needed.
    pub retries: u32,
    /// Whether the response was produced by the degraded retry (a fresh
    /// tape, no packed weights) after a worker kill.
    pub degraded: bool,
    /// Per-request trace digest (absent only when the engine was started
    /// with trace recording off).
    pub trace: Option<TraceSummary>,
}

/// A response frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// Successful translation.
    Translated {
        /// Echoed correlation id.
        id: Option<i64>,
        /// Payload.
        body: Box<Translated>,
    },
    /// Statistics payload (already JSON).
    Stats {
        /// Echoed correlation id.
        id: Option<i64>,
        /// The statistics object.
        stats: Json,
    },
    /// Flight-recorder dump payload (already JSON).
    Traces {
        /// Echoed correlation id.
        id: Option<i64>,
        /// `{recorded, retained, traces:[...]}`.
        traces: Json,
    },
    /// Liveness reply.
    Pong {
        /// Echoed correlation id.
        id: Option<i64>,
    },
    /// Shutdown acknowledged; the connection will close.
    ShutdownAck {
        /// Echoed correlation id.
        id: Option<i64>,
    },
    /// Typed failure.
    Error {
        /// Echoed correlation id (absent when the frame was unparseable).
        id: Option<i64>,
        /// The rejection.
        error: ServeError,
        /// Per-request trace digest — present for failures of *admitted*
        /// requests (deadline, quarantine, translate failure); absent for
        /// synchronous rejections (shed, bad request) that never got a
        /// trace.
        trace: Option<TraceSummary>,
    },
}

fn id_json(id: Option<i64>) -> Json {
    match id {
        Some(i) => Json::Int(i),
        None => Json::Null,
    }
}

impl Response {
    /// Renders the single-line wire form (no trailing newline), stamped
    /// with the repository-wide `schema_version` envelope.
    pub fn render(&self) -> String {
        let mut fields: Vec<(String, Json)> =
            vec![("schema_version".into(), Json::Int(RUN_REPORT_SCHEMA_VERSION))];
        match self {
            Response::Translated { id, body } => {
                fields.push(("id".into(), id_json(*id)));
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("sql".into(), Json::Str(body.sql.clone())));
                fields.push((
                    "rows".into(),
                    Json::Arr(
                        body.rows
                            .iter()
                            .map(|r| {
                                Json::Arr(r.iter().map(|d| Json::Str(d.clone())).collect())
                            })
                            .collect(),
                    ),
                ));
                fields.push(("ordered".into(), Json::Bool(body.ordered)));
                fields.push((
                    "values".into(),
                    Json::Arr(body.values.iter().map(|s| Json::Str(s.clone())).collect()),
                ));
                fields.push(("latency_us".into(), Json::Int(body.latency_us as i64)));
                fields.push(("retries".into(), Json::Int(body.retries as i64)));
                fields.push(("degraded".into(), Json::Bool(body.degraded)));
                if let Some(t) = &body.trace {
                    fields.push(("trace".into(), t.to_json()));
                }
            }
            Response::Stats { id, stats } => {
                fields.push(("id".into(), id_json(*id)));
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("stats".into(), stats.clone()));
            }
            Response::Traces { id, traces } => {
                fields.push(("id".into(), id_json(*id)));
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("traces".into(), traces.clone()));
            }
            Response::Pong { id } => {
                fields.push(("id".into(), id_json(*id)));
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("pong".into(), Json::Bool(true)));
            }
            Response::ShutdownAck { id } => {
                fields.push(("id".into(), id_json(*id)));
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("shutdown".into(), Json::Bool(true)));
            }
            Response::Error { id, error, trace } => {
                fields.push(("id".into(), id_json(*id)));
                fields.push(("ok".into(), Json::Bool(false)));
                fields.push((
                    "error".into(),
                    Json::obj(vec![
                        ("kind", Json::Str(error.kind.label().into())),
                        ("detail", Json::Str(error.detail.clone())),
                    ]),
                ));
                if let Some(t) = trace {
                    fields.push(("trace".into(), t.to_json()));
                }
            }
        }
        Json::Obj(fields).render()
    }

    /// Parses a response line (client side; used by the harness and smoke
    /// driver).
    ///
    /// # Errors
    /// A description of the malformed response.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line.trim()).map_err(|e| format!("invalid response JSON: {e}"))?;
        let id = match v.get("id") {
            Some(Json::Int(i)) => Some(*i),
            _ => None,
        };
        let ok = matches!(v.get("ok"), Some(Json::Bool(true)));
        let trace = v.get("trace").and_then(TraceSummary::from_json);
        if !ok {
            let err = v.get("error").ok_or("error response without `error`")?;
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .and_then(ErrorKind::from_label)
                .ok_or("error response with unknown `error.kind`")?;
            let detail =
                err.get("detail").and_then(Json::as_str).unwrap_or_default().to_string();
            return Ok(Response::Error { id, error: ServeError { kind, detail }, trace });
        }
        if let Some(stats) = v.get("stats") {
            return Ok(Response::Stats { id, stats: stats.clone() });
        }
        if let Some(traces) = v.get("traces") {
            return Ok(Response::Traces { id, traces: traces.clone() });
        }
        if v.get("pong").is_some() {
            return Ok(Response::Pong { id });
        }
        if v.get("shutdown").is_some() {
            return Ok(Response::ShutdownAck { id });
        }
        let sql = v
            .get("sql")
            .and_then(Json::as_str)
            .ok_or("ok response without `sql`/`stats`/`pong`")?
            .to_string();
        let rows = match v.get("rows") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .map(|r| match r {
                    Json::Arr(cells) => cells
                        .iter()
                        .map(|c| c.as_str().map(str::to_string).ok_or("non-string cell"))
                        .collect::<Result<Vec<_>, _>>(),
                    _ => Err("non-array row"),
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(str::to_string)?,
            _ => return Err("ok response without `rows`".into()),
        };
        let values = match v.get("values") {
            Some(Json::Arr(vs)) => vs
                .iter()
                .map(|c| c.as_str().map(str::to_string).ok_or("non-string value".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(Response::Translated {
            id,
            body: Box::new(Translated {
                sql,
                rows,
                ordered: matches!(v.get("ordered"), Some(Json::Bool(true))),
                values,
                latency_us: v.get("latency_us").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                retries: v.get("retries").and_then(Json::as_f64).unwrap_or(0.0) as u32,
                degraded: matches!(v.get("degraded"), Some(Json::Bool(true))),
                trace,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_translate_request() {
        let r = Request::parse(
            r#"{"id":7,"verb":"translate","db":"d","question":"q?","deadline_ms":250}"#,
        )
        .unwrap();
        match r {
            Request::Translate { id, db, question, deadline_ms, gold_values, fault } => {
                assert_eq!(id, Some(7));
                assert_eq!(db, "d");
                assert_eq!(question, "q?");
                assert_eq!(deadline_ms, Some(250));
                assert!(gold_values.is_none());
                assert!(fault.is_none());
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_typed_bad_requests() {
        for line in [
            "not json at all",
            "[1,2,3]",
            "{}",
            r#"{"verb":"fly"}"#,
            r#"{"verb":"translate","db":"d"}"#,
            r#"{"id":"x","verb":"ping"}"#,
            r#"{"verb":"translate","db":"d","question":"q","deadline_ms":-1}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "line: {line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let trace = TraceSummary {
            trace_id: 42,
            queue_wait_us: 17,
            attempts: 2,
            batch_size: 3,
            stages: vec![("preprocess".into(), 5), ("execute".into(), 11)],
        };
        let resp = Response::Translated {
            id: Some(3),
            body: Box::new(Translated {
                sql: "SELECT \"x\" FROM t".into(),
                rows: vec![vec!["1".into(), "a b".into()]],
                ordered: true,
                values: vec!["France".into()],
                latency_us: 812,
                retries: 1,
                degraded: true,
                trace: Some(trace.clone()),
            }),
        };
        let line = resp.render();
        assert!(line.starts_with("{\"schema_version\":"));
        match Response::parse(&line).unwrap() {
            Response::Translated { id, body } => {
                assert_eq!(id, Some(3));
                assert_eq!(body.sql, "SELECT \"x\" FROM t");
                assert_eq!(body.rows, vec![vec!["1".to_string(), "a b".to_string()]]);
                assert!(body.ordered && body.degraded);
                assert_eq!((body.latency_us, body.retries), (812, 1));
                assert_eq!(body.values, vec!["France".to_string()]);
                assert_eq!(body.trace, Some(trace.clone()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = Response::Error {
            id: None,
            error: ServeError::new(ErrorKind::DeadlineExceeded, "expired"),
            trace: Some(trace.clone()),
        };
        match Response::parse(&err.render()).unwrap() {
            Response::Error { id, error, trace: t } => {
                assert_eq!(id, None);
                assert_eq!(error.kind, ErrorKind::DeadlineExceeded);
                assert_eq!(error.detail, "expired");
                assert_eq!(t, Some(trace));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn stats_window_and_trace_verbs_parse() {
        match Request::parse(r#"{"id":1,"verb":"stats"}"#).unwrap() {
            Request::Stats { id, delta } => assert_eq!((id, delta), (Some(1), false)),
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse(r#"{"id":1,"verb":"stats","window":"delta"}"#).unwrap() {
            Request::Stats { delta, .. } => assert!(delta),
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse(r#"{"id":1,"verb":"stats","window":"cumulative"}"#).unwrap() {
            Request::Stats { delta, .. } => assert!(!delta),
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            Request::parse(r#"{"verb":"stats","window":"sliding"}"#).unwrap_err().kind,
            ErrorKind::BadRequest
        );
        match Request::parse(r#"{"id":2,"verb":"trace","trace_id":9,"last":4}"#).unwrap() {
            Request::Trace { id, trace_id, last } => {
                assert_eq!((id, trace_id, last), (Some(2), Some(9), Some(4)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match Request::parse(r#"{"verb":"trace"}"#).unwrap() {
            Request::Trace { trace_id, last, .. } => {
                assert_eq!((trace_id, last), (None, None));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            Request::parse(r#"{"verb":"trace","trace_id":-1}"#).unwrap_err().kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn error_kind_labels_round_trip() {
        for (i, k) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i, "ALL must list {k:?} at its declaration index");
            assert_eq!(ErrorKind::from_label(k.label()), Some(k));
        }
    }
}
