//! Integration tests for the observability layer.
//!
//! The registry is process-global, so every test takes `GUARD` and calls
//! `reset()` to get a clean slate regardless of execution order.

use std::sync::Mutex;
use valuenet_obs as obs;
use valuenet_obs::json::Json;

static GUARD: Mutex<()> = Mutex::new(());

fn isolated() -> std::sync::MutexGuard<'static, ()> {
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    obs::reset();
    g
}

/// Histogram percentiles must agree with a naive sorted-vec oracle up to
/// bucket resolution: the reported midpoint has to land in the same bucket
/// as the oracle's nearest-rank value.
#[test]
fn histogram_percentiles_match_sorted_oracle() {
    let _g = isolated();
    static H: obs::Histogram = obs::Histogram::new("test.oracle");

    // Deterministic pseudo-random values spanning several octaves.
    let mut x = 0x2545F4914F6CDD1Du64;
    let mut values: Vec<u64> = Vec::new();
    for _ in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x % 1_000_000);
    }
    for &v in &values {
        H.record(v);
    }
    let mut sorted = values.clone();
    sorted.sort_unstable();

    for &q in &[0.50, 0.90, 0.99] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let oracle = sorted[rank - 1];
        let reported = H.percentile(q);
        let (lo, hi) = obs::bucket_bounds(obs::bucket_index(oracle));
        assert!(
            reported >= lo as f64 && reported <= hi as f64,
            "p{} reported {reported} outside oracle bucket [{lo},{hi}) of value {oracle}",
            (q * 100.0) as u32,
        );
        // And the documented relative-error bound.
        let rel = (reported - oracle as f64).abs() / (oracle as f64).max(1.0);
        assert!(rel <= 0.125 + 1e-9, "p{q}: relative error {rel} > 12.5%");
    }
    assert_eq!(H.count(), 10_000);
    assert_eq!(H.sum(), values.iter().sum::<u64>());
}

/// Nested spans aggregate by full path, and the snapshot's tree order is
/// deterministic (siblings sorted by name) with correct parent/child depth.
#[test]
fn nested_spans_aggregate_by_path() {
    let _g = isolated();
    for _ in 0..3 {
        let _outer = obs::span("outer");
        {
            let _b = obs::span("beta");
        }
        {
            let _a = obs::span("alpha");
        }
        {
            let _a = obs::span("alpha");
        }
    }
    let snap = obs::snapshot();
    let paths: Vec<String> = snap.spans.iter().map(|s| s.path_string()).collect();
    assert_eq!(paths, vec!["outer", "outer/alpha", "outer/beta"]);
    assert_eq!(snap.span_named("outer").unwrap().count, 3);
    assert_eq!(snap.spans[1].count, 6, "outer/alpha entered twice per iteration");
    assert_eq!(snap.spans[2].count, 3);
    assert_eq!(snap.spans[0].depth(), 0);
    assert_eq!(snap.spans[1].depth(), 1);
    // A parent's total covers its children.
    assert!(snap.spans[0].total_ns >= snap.spans[1].total_ns);
}

/// `OBS_PROFILE` writes the registry's exact self time from `finish`'s
/// snapshot: one row per snapshot path, a `par_map` worker's spans under
/// their own root, every root's subtree of self times adding up to the
/// root's total, and JSONL that `vn-obs-check` accepts.
#[test]
fn profile_is_the_exact_self_time_of_every_path() {
    let _g = isolated();
    let path = std::env::temp_dir().join(format!("vn_obs_profile_{}.jsonl", std::process::id()));
    let path = path.to_str().unwrap().to_string();
    obs::install(obs::Config { profile: Some(path.clone()), ..obs::Config::default() });
    obs::reset();
    let spin = || (0..20_000u64).fold(0, |a, x| std::hint::black_box(a ^ x));
    {
        let _outer = obs::span("prof.outer");
        {
            let _a = obs::span("prof.a");
            let _leaf = obs::span("prof.leaf");
            spin();
        }
        valuenet_par::par_map(&[1u64, 2, 3, 4], 2, |_, _| {
            let _w = obs::span("prof.worker");
            let _i = obs::span("prof.inner");
            spin()
        });
        spin();
    }
    let snap = obs::finish();
    let rows = obs::collapsed_stacks(&snap);
    let stacks: Vec<&str> = rows.iter().map(|(stack, _)| stack.as_str()).collect();
    let paths: Vec<String> = snap.spans.iter().map(|s| s.path.join(";")).collect();
    assert_eq!(stacks, paths, "one row per snapshot path, in its order");
    let want = "prof.outer prof.outer;prof.a prof.outer;prof.a;prof.leaf \
                prof.worker prof.worker;prof.inner";
    assert_eq!(stacks, want.split_whitespace().collect::<Vec<_>>(), "a worker is its own root");
    for root in snap.spans.iter().filter(|s| s.depth() == 0) {
        let (name, prefix) = (&root.path[0], format!("{};", root.path[0]));
        let in_subtree = |stack: &str| stack == name || stack.starts_with(&prefix);
        let subtree: u64 = rows.iter().filter(|(s, _)| in_subtree(s)).map(|(_, ns)| ns).sum();
        assert_eq!(subtree, root.total_ns, "root {name}");
    }
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let report = obs::check::check_stream(&path, &text, &[]);
    assert!(report.ok(), "{:?}", report.errors);
    assert_eq!(report.profiles, rows.len());
}

/// The same span name under different parents is a different path.
#[test]
fn same_name_under_different_parents_is_distinct() {
    let _g = isolated();
    {
        let _p = obs::span("train");
        let _c = obs::span("forward");
    }
    {
        let _p = obs::span("eval");
        let _c = obs::span("forward");
    }
    let snap = obs::snapshot();
    let paths: Vec<String> = snap.spans.iter().map(|s| s.path_string()).collect();
    assert_eq!(paths, vec!["eval", "eval/forward", "train", "train/forward"]);
}

/// With observability disabled, nothing is recorded anywhere.
#[test]
fn disabled_path_records_nothing() {
    let _g = isolated();
    obs::set_enabled(false);
    static C: obs::Counter = obs::Counter::new("test.disabled_counter");
    static H: obs::Histogram = obs::Histogram::new("test.disabled_hist");
    {
        let _s = obs::span("test.disabled_span");
        C.add(7);
        H.record(7);
        obs::metric("test.disabled_metric", 0, 1.0);
    }
    obs::set_enabled(true);
    let snap = obs::snapshot();
    assert!(snap.span_named("test.disabled_span").is_none());
    assert_eq!(C.get(), 0);
    assert_eq!(H.count(), 0);
    assert!(snap.metrics.iter().all(|m| m.name != "test.disabled_metric"));
}

/// JSONL written by `finish` parses line-by-line, carries schema_version in
/// its meta line, and round-trips span aggregates, counters and metrics.
#[test]
fn jsonl_round_trips() {
    let _g = isolated();
    let dir = std::env::temp_dir().join(format!("vn_obs_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let path_str = path.to_str().unwrap().to_string();

    obs::install(obs::Config {
        jsonl: Some(path_str.clone()),
        chrome_trace: None,
        profile: None,
        summary: false,
        event_cap: 0,
    });
    obs::reset();

    static C: obs::Counter = obs::Counter::new("test.jsonl_counter");
    {
        let _s = obs::span("jsonl.outer");
        let _t = obs::span("jsonl.inner");
        C.add(41);
        C.add(1);
    }
    obs::metric("test.jsonl_metric", 5, 0.25);
    let snap = obs::finish();
    assert!(snap.span_named("jsonl.inner").is_some());

    let text = std::fs::read_to_string(&path).unwrap();
    let records: Vec<Json> =
        text.lines().map(|l| Json::parse(l).expect("every line parses")).collect();
    assert!(!records.is_empty());

    let meta = &records[0];
    assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
    assert!(meta.get("schema_version").and_then(Json::as_f64).is_some());

    let agg = records
        .iter()
        .find(|r| {
            r.get("type").and_then(Json::as_str) == Some("span_agg")
                && r.get("path").and_then(Json::as_str) == Some("jsonl.outer/jsonl.inner")
        })
        .expect("nested span_agg present");
    assert_eq!(agg.get("count").and_then(Json::as_f64), Some(1.0));

    let raw_events = records
        .iter()
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("span"))
        .count();
    assert_eq!(raw_events, 2, "both raw span occurrences streamed");

    let counter = records
        .iter()
        .find(|r| {
            r.get("type").and_then(Json::as_str) == Some("counter")
                && r.get("name").and_then(Json::as_str) == Some("test.jsonl_counter")
        })
        .expect("counter line present");
    assert_eq!(counter.get("value").and_then(Json::as_f64), Some(42.0));

    let metric = records
        .iter()
        .find(|r| r.get("type").and_then(Json::as_str) == Some("metric"))
        .expect("metric line present");
    assert_eq!(metric.get("index").and_then(Json::as_f64), Some(5.0));
    assert_eq!(metric.get("value").and_then(Json::as_f64), Some(0.25));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The Chrome-trace export is one valid JSON document with an X event per
/// span occurrence.
#[test]
fn chrome_trace_is_valid_json() {
    let _g = isolated();
    // Requesting a trace path turns raw-event capture on; the file itself is
    // only written by `finish`, which this test does not call.
    obs::install(obs::Config {
        jsonl: None,
        chrome_trace: Some("/nonexistent/unused-trace.json".into()),
        profile: None,
        summary: false,
        event_cap: 0,
    });
    obs::reset();
    {
        let _a = obs::span("trace.a");
        let _b = obs::span("trace.b");
    }
    let snap = obs::snapshot();
    let trace = Json::parse(&obs::chrome_trace(&snap)).expect("trace parses");
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), 2);
    for e in complete {
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
    }
}

/// The run report joins difficulty-class accuracy with stage latency.
#[test]
fn run_report_joins_accuracy_and_stages() {
    let _g = isolated();
    {
        let _s = obs::span("pipeline.translate");
    }
    let snap = obs::snapshot();
    let rows = vec![
        obs::DifficultyRow { label: "Easy".into(), correct: 8, total: 10 },
        obs::DifficultyRow { label: "Hard".into(), correct: 2, total: 10 },
    ];
    let dir = std::env::temp_dir().join(format!("vn_obs_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run_report.json");
    obs::write_run_report(path.to_str().unwrap(), &rows, &snap).unwrap();
    let report = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(report.get("schema_version").and_then(Json::as_f64).is_some());
    let ea = report.get("execution_accuracy").unwrap();
    assert_eq!(ea.get("overall").and_then(Json::as_f64), Some(0.5));
    let by = ea.get("by_difficulty").and_then(Json::as_arr).unwrap();
    assert_eq!(by.len(), 2);
    assert_eq!(by[0].get("accuracy").and_then(Json::as_f64), Some(0.8));
    let stages = report.get("stages").and_then(Json::as_arr).unwrap();
    assert!(stages
        .iter()
        .any(|s| s.get("path").and_then(Json::as_str) == Some("pipeline.translate")));
    let _ = std::fs::remove_dir_all(&dir);
}
