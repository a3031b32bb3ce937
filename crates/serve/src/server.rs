//! Line-delimited JSON over a Unix domain socket.
//!
//! One accept loop, one thread per connection, one request per line, one
//! response line per request. Malformed frames get a typed `bad_request`
//! response on the same connection — a broken client cannot wedge the
//! server. A frame longer than [`MAX_FRAME_BYTES`] gets a `bad_request`
//! and its connection is closed, so no client can make the server buffer
//! without limit. The `shutdown` verb acknowledges, stops accepting, drains
//! the engine and removes the socket file.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::engine::{Engine, TranslateJob, MAX_QUESTION_CHARS};
use crate::protocol::{ErrorKind, Request, Response, ServeError};
use valuenet_obs::json::Json;

struct ServerState {
    engine: Engine,
    stop: AtomicBool,
    socket: PathBuf,
}

/// Serves `engine` on a Unix domain socket at `path`, blocking until a
/// client sends the `shutdown` verb. Drains the engine and removes the
/// socket file before returning.
///
/// # Errors
/// Socket bind/accept failures.
pub fn serve_unix(engine: Engine, path: &Path) -> std::io::Result<()> {
    // A stale socket file from a killed process would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let state = Arc::new(ServerState {
        engine,
        stop: AtomicBool::new(false),
        socket: path.to_path_buf(),
    });
    let mut conn_id = 0u64;
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        conn_id += 1;
        let st = Arc::clone(&state);
        std::thread::Builder::new()
            .name(format!("vn-serve-conn-{conn_id}"))
            .spawn(move || {
                let _ = handle_conn(&st, stream);
            })?;
    }
    state.engine.shutdown();
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Best-effort `id` extraction from a frame that failed full parsing, so
/// even a `bad_request` response correlates when the client managed to
/// send a well-formed id.
fn best_effort_id(line: &str) -> Option<i64> {
    match Json::parse(line.trim()).ok()?.get("id") {
        Some(Json::Int(i)) => Some(*i),
        _ => None,
    }
}

/// Longest JSON encoding of one question character: a character outside
/// the Basic Multilingual Plane escaped as a `\uXXXX\uXXXX` pair.
const FRAME_BYTES_PER_CHAR: usize = 12;
/// Room in a frame for everything besides the question: id, verb,
/// database name, gold values and fault directives.
const FRAME_ENVELOPE_BYTES: usize = 64 * 1024;

/// The longest frame the server reads, in bytes without the newline: the
/// longest accepted question at its widest JSON encoding, plus the
/// envelope.
pub const MAX_FRAME_BYTES: usize = MAX_QUESTION_CHARS * FRAME_BYTES_PER_CHAR + FRAME_ENVELOPE_BYTES;

fn handle_conn(st: &ServerState, stream: UnixStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut frame = Vec::new();
    loop {
        frame.clear();
        // Reading one byte past the bound tells an over-long frame from one
        // that fits exactly.
        let n = (&mut reader).take(MAX_FRAME_BYTES as u64 + 1).read_until(b'\n', &mut frame)?;
        if n == 0 {
            return Ok(());
        }
        if frame.last() == Some(&b'\n') {
            frame.pop();
            if frame.last() == Some(&b'\r') {
                frame.pop();
            }
        } else if frame.len() > MAX_FRAME_BYTES {
            let detail = format!("frame exceeds {MAX_FRAME_BYTES} bytes");
            let error = ServeError::new(ErrorKind::BadRequest, detail);
            writeln!(writer, "{}", Response::Error { id: None, error, trace: None }.render())?;
            writer.flush()?;
            // Close without reading the rest of the frame.
            return Ok(());
        }
        let Ok(line) = std::str::from_utf8(&frame) else {
            let error = ServeError::new(ErrorKind::BadRequest, "frame is not valid UTF-8");
            writeln!(writer, "{}", Response::Error { id: None, error, trace: None }.render())?;
            writer.flush()?;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let resp = match Request::parse(line) {
            Ok(Request::Translate { id, db, question, deadline_ms, gold_values, fault }) => st
                .engine
                .translate_blocking(TranslateJob {
                    id,
                    db,
                    question,
                    deadline_ms,
                    gold_values,
                    fault,
                }),
            Ok(Request::Stats { id, delta }) => {
                Response::Stats { id, stats: st.engine.stats_json(delta) }
            }
            Ok(Request::Trace { id, trace_id, last }) => {
                Response::Traces { id, traces: st.engine.traces_json(trace_id, last) }
            }
            Ok(Request::Ping { id }) => Response::Pong { id },
            Ok(Request::Shutdown { id }) => {
                writeln!(writer, "{}", Response::ShutdownAck { id }.render())?;
                writer.flush()?;
                st.stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the stop flag.
                let _ = UnixStream::connect(&st.socket);
                return Ok(());
            }
            Err(mut error) => {
                let id = best_effort_id(line);
                // Don't echo megabyte garbage. Cut on a char boundary:
                // `truncate` panics inside a multi-byte character.
                error.detail.truncate(error.detail.floor_char_boundary(200));
                Response::Error { id, error, trace: None }
            }
        };
        writeln!(writer, "{}", resp.render())?;
        writer.flush()?;
    }
}

/// A tiny blocking client for the line protocol — used by the smoke
/// driver and the fault harness.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Client {
    /// Connects to a serving socket.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Bounds every subsequent read — the fault harness uses this to turn
    /// a would-be deadlock into a visible failure instead of a hang.
    ///
    /// # Errors
    /// Socket option failures.
    pub fn set_read_timeout(&self, dur: Option<std::time::Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(dur)
    }

    /// Sends one raw line (appends the newline) and reads one response
    /// line.
    ///
    /// # Errors
    /// Socket I/O failures or a server-closed connection.
    pub fn roundtrip_raw(&mut self, line: &str) -> std::io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        Response::parse(&resp).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}: {resp}"))
        })
    }

    /// Sends a request object.
    ///
    /// # Errors
    /// Socket I/O failures.
    pub fn roundtrip(&mut self, req: &Json) -> std::io::Result<Response> {
        self.roundtrip_raw(&req.render())
    }
}

/// Builds a `translate` request frame (client side).
pub fn translate_frame(
    id: i64,
    db: &str,
    question: &str,
    deadline_ms: Option<u64>,
    gold_values: Option<&[String]>,
    fault: Option<&crate::fault::FaultSpec>,
) -> Json {
    let mut fields = vec![
        ("id", Json::Int(id)),
        ("verb", Json::Str("translate".into())),
        ("db", Json::Str(db.into())),
        ("question", Json::Str(question.into())),
    ];
    if let Some(d) = deadline_ms {
        fields.push(("deadline_ms", Json::Int(d as i64)));
    }
    if let Some(gold) = gold_values {
        fields.push((
            "gold_values",
            Json::Arr(gold.iter().map(|s| Json::Str(s.clone())).collect()),
        ));
    }
    if let Some(f) = fault {
        fields.push(("fault", f.render()));
    }
    Json::obj(fields)
}

/// Builds a bare-verb frame (`stats`, `ping`, `shutdown`).
pub fn verb_frame(id: i64, verb: &str) -> Json {
    Json::obj(vec![("id", Json::Int(id)), ("verb", Json::Str(verb.into()))])
}
