//! Checkpoint round-trip and rejection tests.

use valuenet_nn::{read_checkpoint, write_checkpoint, Checkpoint, CheckpointError, ParamStore};
use valuenet_obs::json::Json;
use valuenet_tensor::Tensor;

/// A store with shapes and value ranges resembling the real model's.
fn sample_store() -> ParamStore {
    let mut ps = ParamStore::new();
    let mut s = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / 8388608.0 - 1.0
    };
    for (name, group, rows, cols) in
        [("enc.w", 0usize, 7usize, 12usize), ("enc.b", 0, 1, 12), ("dec.wx", 1, 12, 20), ("out.w", 2, 5, 3)]
    {
        let data: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
        ps.add(name, group, Tensor::from_vec(rows, cols, data));
    }
    ps
}

fn write(ps: &ParamStore) -> String {
    write_checkpoint(ps, Vec::new()).unwrap()
}

/// Reads a checkpoint file the way the CLI does.
fn load_file(path: &str) -> Result<Checkpoint, CheckpointError> {
    read_checkpoint(&std::fs::read_to_string(path)?)
}

fn assert_stores_bit_identical(a: &ParamStore, b: &ParamStore) {
    assert_eq!(a.len(), b.len());
    for (ia, ib) in a.ids().zip(b.ids()) {
        assert_eq!(a.name(ia), b.name(ib));
        assert_eq!(a.group(ia), b.group(ib));
        assert_eq!(a.shape(ia), b.shape(ib));
        let bits_a: Vec<u32> = a.data(ia).iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = b.data(ib).iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "weights differ for {}", a.name(ia));
    }
}

fn expect_err(text: &str, want: fn(&CheckpointError) -> bool, what: &str) -> CheckpointError {
    match read_checkpoint(text) {
        Err(e) if want(&e) => e,
        Err(e) => panic!("expected {what}, got {e:?}"),
        Ok(_) => panic!("expected {what}, load succeeded"),
    }
}

#[test]
fn f32_round_trip_is_bit_identical() {
    let mut ps = sample_store();
    // Signed zeros and the extremes of the f32 range survive too.
    let extremes = vec![-0.0, 0.0, f32::MAX, f32::MIN_POSITIVE];
    let edge = ps.add("edge", 3, Tensor::from_vec(1, 4, extremes));
    let Checkpoint { params: loaded, .. } = read_checkpoint(&write(&ps)).unwrap();
    assert_stores_bit_identical(&ps, &loaded);
    assert_eq!(loaded.data(edge)[0].to_bits(), (-0.0f32).to_bits());
}

#[test]
fn truncated_file_is_rejected() {
    let ps = sample_store();
    let text = write(&ps);
    let mut lines: Vec<&str> = text.lines().collect();
    lines.pop(); // drop checkpoint_end
    expect_err(&lines.join("\n"), |e| matches!(e, CheckpointError::Truncated(_)), "Truncated");
    // Dropping a param line too makes the end-count inconsistent.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(2);
    expect_err(&lines.join("\n"), |e| matches!(e, CheckpointError::Truncated(_)), "Truncated");
}

#[test]
fn corrupted_and_unversioned_files_are_rejected() {
    expect_err("not json at all\n", |e| matches!(e, CheckpointError::Parse(_)), "Parse");

    // A future checkpoint_version must be refused, not misread.
    let ps = sample_store();
    let text = write(&ps);
    let bumped = text.replace("\"checkpoint_version\":2", "\"checkpoint_version\":99");
    match expect_err(&bumped, |e| matches!(e, CheckpointError::Version(_)), "Version") {
        CheckpointError::Version(msg) => assert!(msg.contains("99"), "unhelpful message: {msg}"),
        _ => unreachable!(),
    }

    // A shape/payload mismatch is corrupt.
    let bad = text.replace("\"rows\":7", "\"rows\":9");
    expect_err(&bad, |e| matches!(e, CheckpointError::Corrupt(_)), "Corrupt");

    // Missing file surfaces as Io.
    let path = std::env::temp_dir().join(format!("vn_ckpt_gone_{}.jsonl", std::process::id()));
    match load_file(path.to_str().unwrap()) {
        Err(CheckpointError::Io(_)) => {}
        Err(e) => panic!("expected Io, got {e:?}"),
        Ok(_) => panic!("expected Io, load succeeded"),
    }
}

#[test]
fn version_1_files_are_refused() {
    let text = write(&sample_store())
        .replace("\"checkpoint_version\":2", "\"checkpoint_version\":1");
    expect_err(&text, |e| matches!(e, CheckpointError::Version(_)), "Version");
}

#[test]
fn negative_and_fractional_counts_are_corrupt() {
    let text = write(&sample_store());
    for (from, to) in [
        ("\"rows\":7,", "\"rows\":-7,"),
        ("\"rows\":7,", "\"rows\":7.0,"),
        ("\"rows\":7,", "\"rows\":2.7,"),
        ("\"group\":0,", "\"group\":-1,"),
        ("\"params\":4,", "\"params\":4.5,"),
    ] {
        let bad = text.replacen(from, to, 1);
        assert_ne!(bad, text, "{from} not found");
        let e = expect_err(&bad, |e| matches!(e, CheckpointError::Corrupt(_)), "Corrupt");
        let field = from.split('"').nth(1).unwrap();
        assert!(e.to_string().contains(&format!("`{field}`")), "{to}: {e}");
    }
}

/// NaN and ±inf cannot be written as JSON numbers: the writer must refuse
/// the store, naming the parameter, instead of writing an unreadable file.
#[test]
fn non_finite_weight_is_refused_in_f32() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut ps = sample_store();
        ps.add("dec.bad", 1, Tensor::from_vec(1, 3, vec![0.5, bad, -0.5]));
        match write_checkpoint(&ps, Vec::new()) {
            Err(CheckpointError::NonFinite(msg)) => {
                assert!(msg.contains("dec.bad"), "message lacks the name: {msg}")
            }
            Err(e) => panic!("expected NonFinite, got {e:?}"),
            Ok(_) => panic!("a {bad} weight was written"),
        }
    }
}

/// Weights are stored at full precision only. An int8 file, as earlier
/// builds wrote it (a per-tensor `scale` and integer codes in `qdata`), and
/// a file in a format no build wrote are each refused, naming the format.
#[test]
fn int8_and_unknown_format_files_are_refused() {
    let int8 = [
        r#"{"schema_version":1,"type":"checkpoint_meta","checkpoint_version":2,"format":"int8","params":1,"weights":3}"#,
        r#"{"schema_version":1,"type":"checkpoint_param","name":"w","group":0,"rows":1,"cols":3,"scale":0.5,"qdata":[1,-2,127]}"#,
        r#"{"schema_version":1,"type":"checkpoint_end","params":1}"#,
    ]
    .join("\n");
    let f16 = write(&sample_store()).replacen("\"format\":\"f32\"", "\"format\":\"f16\"", 1);
    for (format, text) in [("int8", int8), ("f16", f16)] {
        let e = expect_err(&text, |e| matches!(e, CheckpointError::Corrupt(_)), "Corrupt");
        assert!(e.to_string().contains(&format!("unknown format `{format}`")), "{format}: {e}");
    }
}

#[test]
fn meta_fields_round_trip_and_saves_are_byte_identical() {
    let ps = sample_store();
    let meta = || {
        vec![
            ("seed", Json::uint(u64::MAX)),
            ("note", Json::Str("tiny".into())),
            ("nested", Json::obj(vec![("n", Json::Int(3))])),
        ]
    };
    let text = write_checkpoint(&ps, meta()).unwrap();
    assert_eq!(text, write_checkpoint(&ps, meta()).unwrap(), "save differs");
    let ck = read_checkpoint(&text).unwrap();
    let want: Vec<(String, Json)> = meta().into_iter().map(|(k, v)| (k.into(), v)).collect();
    assert_eq!(ck.meta, Json::Obj(want), "the caller's fields come back untouched");
    let seed = ck.meta_field("seed", |v| v.as_u64().ok_or("not u64".into()));
    assert_eq!(seed.unwrap(), u64::MAX);
    match ck.meta_field("absent", |_| Ok(())) {
        Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains("absent"), "{msg}"),
        other => panic!("expected Corrupt for a missing field, got {:?}", other.err()),
    }
}
