//! Versioned model files.
//!
//! A checkpoint is JSONL text in the observability envelope (every record
//! is a [`valuenet_obs::jsonl_line`], stamped with `schema_version`), so the
//! same `vn-obs-check` validator that guards the benchmark artifacts also
//! accepts model files. Layout:
//!
//! ```text
//! {"schema_version":1,"type":"checkpoint_meta","checkpoint_version":2,"format":"f32","params":N,"weights":W,...}
//! {"schema_version":1,"type":"checkpoint_param","name":"...","group":0,"rows":R,"cols":C,"data":[...]}
//! ...
//! {"schema_version":1,"type":"checkpoint_end","params":N}
//! ```
//!
//! The meta record ends with the caller's own fields (the model's config and
//! vocabulary, the CLI's NER, mode and corpus), which [`read_checkpoint`]
//! hands back untouched. [`write_checkpoint`] and [`read_checkpoint`] work
//! on text, so callers choose where it lives.
//!
//! `format` is always `f32`: weights are stored at full precision, and a file
//! declaring any other format is [`CheckpointError::Corrupt`]. The trailing
//! `checkpoint_end` record guards against truncated files; every failure
//! mode surfaces as a typed [`CheckpointError`], never a panic.

use crate::ParamStore;
use std::fmt;
use valuenet_obs::json::Json;
use valuenet_obs::jsonl_line;

/// Version of the checkpoint record layout. Bump on incompatible change.
/// Version 2 carries the caller's fields in the meta record.
pub const CHECKPOINT_VERSION: i64 = 2;

/// Meta-record fields the checkpoint itself owns; the caller's fields may
/// not reuse these names.
const RESERVED: [&str; 6] =
    ["schema_version", "type", "checkpoint_version", "format", "params", "weights"];

/// Why a checkpoint failed to save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error reading or writing the checkpoint text.
    Io(std::io::Error),
    /// A line was not valid JSON.
    Parse(String),
    /// The file declares a checkpoint version this build cannot read.
    Version(String),
    /// The trailing `checkpoint_end` record is missing or inconsistent.
    Truncated(String),
    /// A record is structurally invalid (bad shape, missing field, ...).
    Corrupt(String),
    /// A weight is NaN or infinite; JSON cannot carry it, so nothing is
    /// written. Names the parameter.
    NonFinite(String),
    /// The parameters do not fit the architecture the file describes.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::Version(m) => write!(f, "checkpoint version mismatch: {m}"),
            CheckpointError::Truncated(m) => write!(f, "checkpoint truncated: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "checkpoint corrupt: {m}"),
            CheckpointError::NonFinite(m) => write!(f, "non-finite weight: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint does not fit the model: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A checkpoint read back by [`read_checkpoint`].
pub struct Checkpoint {
    /// The restored parameters.
    pub params: ParamStore,
    /// The caller's meta fields, as an object in file order.
    pub meta: Json,
}

impl Checkpoint {
    /// Decodes the caller's meta field `key` with `read`; a missing or
    /// malformed field is [`CheckpointError::Corrupt`], naming it.
    pub fn meta_field<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, CheckpointError> {
        let v = self
            .meta
            .get(key)
            .ok_or_else(|| CheckpointError::Corrupt(format!("missing meta field `{key}`")))?;
        read(v).map_err(|e| CheckpointError::Corrupt(format!("meta field `{key}`: {e}")))
    }
}

fn push_line(out: &mut String, record: Json) {
    out.push_str(&jsonl_line(record));
    out.push('\n');
}

/// Renders every parameter of `ps` as checkpoint text, with `meta` appended
/// to the meta record. The same store and meta always give the same bytes:
/// weights use the shortest round-trip rendering, so [`read_checkpoint`]
/// restores them bit for bit.
///
/// # Errors
/// [`CheckpointError::NonFinite`] for the first NaN or infinite weight.
pub fn write_checkpoint(
    ps: &ParamStore,
    meta: Vec<(&str, Json)>,
) -> Result<String, CheckpointError> {
    debug_assert!(meta.iter().all(|(k, _)| !RESERVED.contains(k)), "meta reuses a reserved field");
    let mut out = String::new();
    let mut head = vec![
        ("type", Json::Str("checkpoint_meta".into())),
        ("checkpoint_version", Json::Int(CHECKPOINT_VERSION)),
        ("format", Json::Str("f32".into())),
        ("params", Json::uint(ps.len() as u64)),
        ("weights", Json::uint(ps.num_weights() as u64)),
    ];
    head.extend(meta);
    push_line(&mut out, Json::obj(head));
    for id in ps.ids() {
        let data = ps.data(id);
        if let Some(i) = data.iter().position(|v| !v.is_finite()) {
            return Err(CheckpointError::NonFinite(format!(
                "`{}` holds {} at index {i}",
                ps.name(id),
                data[i]
            )));
        }
        let (rows, cols) = ps.shape(id);
        let rec = Json::obj(vec![
            ("type", Json::Str("checkpoint_param".into())),
            ("name", Json::Str(ps.name(id).into())),
            ("group", Json::uint(ps.group(id) as u64)),
            ("rows", Json::uint(rows as u64)),
            ("cols", Json::uint(cols as u64)),
            ("data", Json::Arr(data.iter().map(|&v| Json::Num(v as f64)).collect())),
        ]);
        push_line(&mut out, rec);
    }
    push_line(
        &mut out,
        Json::obj(vec![
            ("type", Json::Str("checkpoint_end".into())),
            ("params", Json::uint(ps.len() as u64)),
        ]),
    );
    Ok(out)
}

/// Reads checkpoint text written by [`write_checkpoint`], one record at a
/// time. Malformed input yields a typed error, never a panic.
pub fn read_checkpoint(text: &str) -> Result<Checkpoint, CheckpointError> {
    let mut ps = ParamStore::new();
    let mut head: Option<(usize, Json)> = None;
    let mut ended = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let corrupt = |e: String| CheckpointError::Corrupt(format!("line {lineno}: {e}"));
        if line.trim().is_empty() {
            continue;
        }
        if ended {
            return Err(corrupt("record after checkpoint_end".into()));
        }
        let mut rec = Json::parse(line)
            .map_err(|e| CheckpointError::Parse(format!("line {lineno}: {e}")))?;
        match rec.str_field("type").map_err(corrupt)? {
            "checkpoint_meta" => {
                if head.is_some() {
                    return Err(corrupt("second checkpoint_meta record".into()));
                }
                match rec.get("checkpoint_version") {
                    None => return Err(corrupt("meta record lacks checkpoint_version".into())),
                    Some(Json::Int(CHECKPOINT_VERSION)) => {}
                    Some(v) => {
                        return Err(CheckpointError::Version(format!(
                            "file has checkpoint_version {}, this build reads {CHECKPOINT_VERSION}",
                            v.render()
                        )))
                    }
                }
                let format = rec.str_field("format").map_err(corrupt)?;
                if format != "f32" {
                    return Err(corrupt(format!("unknown format `{format}`")));
                }
                let declared = rec.usize_field("params").map_err(corrupt)?;
                if let Json::Obj(entries) = &mut rec {
                    entries.retain(|(k, _)| !RESERVED.contains(&k.as_str()));
                }
                head = Some((declared, rec));
            }
            "checkpoint_param" => {
                if head.is_none() {
                    return Err(corrupt("checkpoint_param before checkpoint_meta".into()));
                }
                let name = rec.str_field("name").map_err(corrupt)?.to_string();
                let group = rec.usize_field("group").map_err(corrupt)?;
                let rows = rec.usize_field("rows").map_err(corrupt)?;
                let cols = rec.usize_field("cols").map_err(corrupt)?;
                let weights =
                    |v: &Json| v.as_arr()?.iter().map(|w| Some(w.as_f64()? as f32)).collect();
                let data: Vec<f32> =
                    rec.field("data", "an array of numbers", weights).map_err(corrupt)?;
                if Some(data.len()) != rows.checked_mul(cols) {
                    return Err(corrupt(format!(
                        "`{name}` declares {rows}x{cols} but carries {} values",
                        data.len()
                    )));
                }
                ps.add_raw(name, group, rows, cols, data);
            }
            "checkpoint_end" => {
                let n = rec.usize_field("params").map_err(corrupt)?;
                let declared = head.as_ref().map_or(0, |h| h.0);
                if n != ps.len() || n != declared {
                    return Err(CheckpointError::Truncated(format!(
                        "end record declares {n} params, read {} of {declared}",
                        ps.len()
                    )));
                }
                ended = true;
            }
            other => return Err(corrupt(format!("unknown record type `{other}`"))),
        }
    }
    let (declared, meta) = head.ok_or_else(|| {
        CheckpointError::Truncated("file has no checkpoint_meta record".to_string())
    })?;
    if !ended {
        return Err(CheckpointError::Truncated(format!(
            "missing checkpoint_end record ({} of {declared} params read)",
            ps.len()
        )));
    }
    Ok(Checkpoint { params: ps, meta })
}
