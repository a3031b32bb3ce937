//! `translate_lookup`: the paper's Table II regime. 2000-row tables, one
//! caller running `Pipeline::try_translate` back to back over the dev
//! questions (closed loop). Value lookup and execution dominate.

use std::time::{Duration, Instant};

use valuenet_core::Pipeline;
use valuenet_obs::json::Json;

use crate::layers::{self, Replay};
use crate::setup::{self, Request, Scale};
use crate::stats::{best_of, beyond, median, peak_rss_mb, percentile, sorted, timed};
use crate::{check_sql, plant, Args, Gate, Report};

/// A closed loop of `try_translate` calls, one caller, in passes over the
/// whole request list.
pub struct ClosedLoop {
    /// Per pass: call latencies (ms, in request order) and the pass's wall
    /// time (s).
    passes: Vec<(Vec<f64>, f64)>,
    /// Calls that synthesized no SQL.
    pub no_sql: u64,
}

impl ClosedLoop {
    pub fn new() -> ClosedLoop {
        ClosedLoop {
            passes: Vec::new(),
            no_sql: 0,
        }
    }

    /// Runs whole passes until `until` (at least three).
    pub fn run(
        p: &Pipeline,
        corpus: &valuenet_dataset::Corpus,
        requests: &[Request],
        until: Instant,
    ) -> Result<ClosedLoop, Gate> {
        let mut out = ClosedLoop::new();
        while out.passes() < 3 || Instant::now() < until {
            out.pass(p, corpus, requests)?;
        }
        Ok(out)
    }

    /// One pass over every request, checking each SQL against its reference.
    pub fn pass(
        &mut self,
        p: &Pipeline,
        corpus: &valuenet_dataset::Corpus,
        requests: &[Request],
    ) -> Result<(), Gate> {
        let t0 = Instant::now();
        let mut lat = Vec::with_capacity(requests.len());
        for r in requests {
            let (pred, ms) =
                timed(|| p.try_translate(&corpus.databases[r.db_index], &r.question, None));
            let pred =
                pred.map_err(|e| Gate::new(&r.question, format!("try_translate failed: {e}")))?;
            let sql = pred.sql.map(|s| s.to_string());
            self.no_sql += u64::from(sql.is_none());
            check_sql(&r.question, &r.reference, &sql, "try_translate")?;
            lat.push(ms);
        }
        self.passes.push((lat, t0.elapsed().as_secs_f64()));
        Ok(())
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    pub fn calls(&self) -> usize {
        self.passes.iter().map(|(l, _)| l.len()).sum()
    }

    /// Each request's fastest call over the passes, ascending (ms). Every
    /// pass asks the same questions, so a slower call measures a busier
    /// host, not the program.
    pub fn best(&self) -> Vec<f64> {
        let runs: Vec<Vec<Option<f64>>> = self
            .passes
            .iter()
            .map(|(l, _)| l.iter().copied().map(Some).collect())
            .collect();
        sorted(best_of(&runs))
    }

    /// Calls/s of one caller at each request's best time: the request count
    /// over the sum of those times.
    pub fn qps(&self) -> f64 {
        let best = self.best();
        best.len() as f64 / (best.iter().sum::<f64>() / 1e3)
    }

    /// `ok_frac`, and p50 and p99 over each request's best call, with their
    /// records.
    pub fn report(&self, r: &mut Report) {
        let best = self.best();
        r.metric(
            "ok_frac",
            1.0 - self.no_sql as f64 / self.calls() as f64,
            "ratio",
        );
        r.metric("p50_ms", percentile(&best, 0.5), "ms");
        r.metric("p99_ms", percentile(&best, 0.99), "ms");
        r.note(
            "pass_walls_s",
            Json::Arr(self.passes.iter().map(|(_, w)| Json::Num(*w)).collect()),
        );
        r.note("calls", Json::Int(self.calls() as i64));
        r.note("requests", Json::Int(best.len() as i64));
        r.note("beyond_p99", Json::Int(beyond(&best, 0.99) as i64));
        r.note(
            "slowest_ms",
            Json::Arr(best.iter().rev().take(12).map(|&x| Json::Num(x)).collect()),
        );
        r.note(
            "calls_per_s_all",
            Json::Num(self.calls() as f64 / self.passes.iter().map(|(_, w)| w).sum::<f64>()),
        );
    }
}

pub fn run(args: &Args) -> Result<Report, Gate> {
    let scale = if args.quick {
        Scale {
            train: 40,
            dev: 12,
            rows: 2000,
            epochs: 1,
        }
    } else {
        Scale {
            train: 240,
            dev: 300,
            rows: 2000,
            epochs: 3,
        }
    };
    let threads = crate::stats::nproc();
    let setups = if args.quick || args.trace { 1 } else { 3 };
    let mut report = Report::default();
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut ready: Option<setup::Ready> = None;
    for _ in 0..setups {
        let previous = ready.take();
        let t = Instant::now();
        let r = setup::build(scale, threads)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(r.generate_s);
        if let Some(prev) = previous {
            setup::same_references(&prev.requests, &r.requests)?;
        }
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up");
    setup::shuffle(&mut ready.requests, args.seed);
    report.note("inputs_digest", Json::Str(setup::digest(&ready.requests)));
    plant(args, &mut ready.requests);
    let (p, corpus) = (&ready.pipeline, &ready.corpus);
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);

    if args.trace {
        let mut replay = Replay::default();
        let mut i = 0;
        while replay.requests() == 0 || Instant::now() < until {
            let r = &ready.requests[i % ready.requests.len()];
            replay.replay(p, &corpus.databases[r.db_index], r)?;
            i += 1;
        }
        replay.report(&mut report);
        let step = layers::train_step(p, corpus, layers::step_samples(args.quick), args.seed);
        layers::common(p, corpus, &ready.requests, args.quick, &step, &mut report);
        layers::zero_serve_metrics(&mut report);
        report.metric("dataset.generate_s", median(&generate_s), "s");
        attribution(
            &mut report,
            replay.unattributed_frac(),
            replay.trace_overhead_frac(),
        );
        report.attempted = replay.requests() as u64;
    } else {
        let calls = ClosedLoop::run(p, corpus, &ready.requests, until)?;
        report.setup_s(&setup_s);
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric("exec_accuracy", ready.accuracy, "%");
        calls.report(&mut report);
        report.metric("qps", calls.qps(), "1/s");
        report.attempted = calls.calls() as u64;
        report.failed = calls.no_sql;
    }
    report.note(
        "params",
        Json::obj(vec![
            ("load", Json::Str("closed loop, 1 caller".into())),
            ("rows_per_table", Json::Int(scale.rows as i64)),
            ("train_questions", Json::Int(scale.train as i64)),
            ("dev_questions", Json::Int(scale.dev as i64)),
            ("epochs", Json::Int(scale.epochs as i64)),
            ("train_threads", Json::Int(threads as i64)),
            ("setups", Json::Int(setups as i64)),
        ]),
    );
    Ok(report)
}

/// Adds the attribution metrics and flags a gap above the 5% threshold.
pub fn attribution(report: &mut Report, unattributed: f64, overhead: f64) {
    report.metric("unattributed_frac", unattributed, "ratio");
    report.metric("trace_overhead_frac", overhead, "ratio");
    report.note("unattributed_over_5pct", Json::Bool(unattributed > 0.05));
    if unattributed > 0.05 {
        eprintln!(
            "ledger: {:.1}% of the wall time is unattributed (threshold 5%)",
            100.0 * unattributed
        );
    }
}
