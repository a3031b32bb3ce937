//! `serve_decode`: 30-row tables served in process through
//! `Engine::start(.., ServeConfig::default())` — what `valuenet_cli serve`
//! runs with no flags. Latency comes from open-loop load: this thread submits
//! on a fixed schedule and one collector thread stamps each response, so
//! latency is timed from the request's due time and includes any queueing.
//! Throughput comes from a closed window: this thread alone keeps a fixed
//! number of requests in flight, so the engine is never idle for want of work.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use valuenet_obs::json::Json;
use valuenet_serve::{Engine, ErrorKind, Response, ServeConfig, TraceSummary, TranslateJob};
use valuenet_storage::Database;

use crate::layers::{self, Replay};
use crate::setup::{self, Request, Scale};
use crate::stats::{best_of, beyond, mean, median, peak_rss_mb, percentile, sorted};
use crate::translate::attribution;
use crate::{check_sql, plant, Args, Gate, Report};

/// Offered rate of the latency measurement, requests/s.
const RATE_NOMINAL: f64 = 200.0;
/// Offered rate of the peak-load tail measurement (traced run), requests/s.
const RATE_PEAK: f64 = 400.0;
/// Times the nominal-rate schedule is offered; each request's latency is its
/// best replay (see [`best_of`]).
const REPLAYS: usize = 5;
/// Share of the run spent on the nominal-rate replays; the saturation phase
/// has the rest.
const NOMINAL_SHARE: f64 = 0.6;
/// Requests the saturation phase keeps in flight, per engine worker: one in
/// service and one queued behind it, so no worker waits for the dispatcher.
const IN_FLIGHT_PER_WORKER: usize = 2;
/// Answers per timed block of the saturation phase.
const BLOCK: usize = 100;
/// The block time the saturated rate is read at, as a quantile of the
/// blocks: host contention only ever slows a block, so a low quantile is the
/// program's own rate, and not the minimum, so one lucky block cannot set it.
const BLOCK_QUANTILE: f64 = 0.25;
/// Dispatcher lateness (p99, ms) beyond which a phase is marked invalid:
/// the generator, not the program, fell behind.
const LATE_P99_MS: f64 = 5.0;
/// How long the collector waits on the oldest response before sweeping the
/// younger ones; bounds the stamping error of out-of-order completions.
const POLL: Duration = Duration::from_micros(250);

/// One open-loop phase at a fixed offered rate.
#[derive(Default)]
struct Phase {
    rate: f64,
    sent: u64,
    /// Latency from due time of every answered request, ms, with the
    /// request's position in the schedule.
    latency_ms: Vec<(usize, f64)>,
    /// Dispatcher lateness against schedule, ms.
    lateness_ms: Vec<f64>,
    shed: u64,
    errors: u64,
    translate_failed: u64,
    /// Engine-side latency and trace digest of every completed request.
    traces: Vec<(u64, TraceSummary)>,
}

impl Phase {
    fn failures(&self) -> u64 {
        self.shed + self.errors
    }

    fn latencies(&self) -> Vec<f64> {
        sorted(self.latency_ms.iter().map(|&(_, l)| l).collect())
    }

    /// Latency by schedule position, `None` where no answer came.
    fn by_position(&self) -> Vec<Option<f64>> {
        let mut out = vec![None; self.sent as usize];
        for &(pos, l) in &self.latency_ms {
            out[pos] = Some(l);
        }
        out
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies(), q)
    }

    fn late_p99(&self) -> f64 {
        percentile(&sorted(self.lateness_ms.clone()), 0.99)
    }

    fn valid(&self) -> bool {
        self.late_p99() <= LATE_P99_MS
    }

    fn record(&self, name: &str) -> Json {
        let lat = self.latencies();
        let late = sorted(self.lateness_ms.clone());
        Json::obj(vec![
            ("phase", Json::Str(name.into())),
            ("offered_qps", Json::Num(self.rate)),
            ("sent", Json::Int(self.sent as i64)),
            ("answered", Json::Int(lat.len() as i64)),
            ("shed", Json::Int(self.shed as i64)),
            ("errors", Json::Int(self.errors as i64)),
            ("translate_failed", Json::Int(self.translate_failed as i64)),
            ("p50_ms", Json::Num(percentile(&lat, 0.5))),
            ("p99_ms", Json::Num(percentile(&lat, 0.99))),
            ("lateness_p99_ms", Json::Num(percentile(&late, 0.99))),
            (
                "lateness_max_ms",
                Json::Num(late.last().copied().unwrap_or(0.0)),
            ),
            ("valid", Json::Bool(self.valid())),
        ])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks one response against the reference; `Some(translate_failed)` for
/// an answer, `None` for an engine error.
fn check(req: &Request, resp: &Option<Response>) -> Result<Option<bool>, Gate> {
    match resp {
        Some(Response::Translated { body, .. }) => {
            check_sql(
                &req.question,
                &req.reference,
                &Some(body.sql.clone()),
                "served",
            )?;
            Ok(Some(false))
        }
        Some(Response::Error { error, .. }) if error.kind == ErrorKind::TranslateFailed => {
            check_sql(&req.question, &req.reference, &None, "served")?;
            Ok(Some(true))
        }
        _ => Ok(None),
    }
}

/// Stamps one response and checks it against the reference.
fn settle(
    phase: &mut Phase,
    pos: usize,
    req: &Request,
    due: Instant,
    resp: Option<Response>,
) -> Result<(), Gate> {
    let latency = ms(due.elapsed());
    match check(req, &resp)? {
        Some(failed) => {
            phase.latency_ms.push((pos, latency));
            phase.translate_failed += u64::from(failed);
            if let Some(Response::Translated { body, .. }) = resp {
                if let Some(t) = body.trace {
                    phase.traces.push((body.latency_us, t));
                }
            }
        }
        None => phase.errors += 1,
    }
    Ok(())
}

/// Schedule position, request index, due time and reply channel.
type Sent = (usize, usize, Instant, Receiver<Response>);

/// The collector: waits on the oldest outstanding response for at most
/// [`POLL`], then sweeps the younger ones, so out-of-order completions are
/// stamped within one poll interval.
fn collect(rx: Receiver<Sent>, requests: &[Request], phase: &mut Phase) -> Result<(), Gate> {
    let mut outstanding: VecDeque<Sent> = VecDeque::new();
    let mut open = true;
    loop {
        if outstanding.is_empty() {
            if !open {
                return Ok(());
            }
            match rx.recv() {
                Ok(s) => outstanding.push_back(s),
                Err(_) => open = false,
            }
            continue;
        }
        while open {
            match rx.try_recv() {
                Ok(s) => outstanding.push_back(s),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        let (pos, idx, due, reply) = outstanding.front().expect("non-empty");
        match reply.recv_timeout(POLL) {
            Ok(resp) => {
                settle(phase, *pos, &requests[*idx], *due, Some(resp))?;
                outstanding.pop_front();
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                settle(phase, *pos, &requests[*idx], *due, None)?;
                outstanding.pop_front();
            }
        }
        let mut kept = VecDeque::with_capacity(outstanding.len());
        for (pos, idx, due, reply) in outstanding.drain(..) {
            match reply.try_recv() {
                Ok(resp) => settle(phase, pos, &requests[idx], due, Some(resp))?,
                Err(TryRecvError::Empty) => kept.push_back((pos, idx, due, reply)),
                Err(TryRecvError::Disconnected) => settle(phase, pos, &requests[idx], due, None)?,
            }
        }
        outstanding = kept;
    }
}

fn job(i: usize, r: &Request) -> TranslateJob {
    TranslateJob {
        id: Some(i as i64),
        db: r.db.clone(),
        question: r.question.clone(),
        ..TranslateJob::default()
    }
}

/// Offers `rate` requests/s for `secs` seconds, cycling over `requests`
/// from `offset`.
fn open_loop(
    engine: &Engine,
    requests: &[Request],
    rate: f64,
    secs: f64,
    offset: usize,
) -> Result<Phase, Gate> {
    let n = ((rate * secs).round() as usize).max(1);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut phase = Phase {
        rate,
        ..Phase::default()
    };
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut lateness = Vec::with_capacity(n);
    let (mut shed, mut errors) = (0, 0);
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut p = Phase::default();
            collect(rx, requests, &mut p).map(|()| p)
        });
        let t0 = Instant::now() + Duration::from_millis(2);
        for i in 0..n {
            let due = t0 + interval.mul_f64(i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lateness.push(ms(Instant::now().saturating_duration_since(due)));
            let idx = (offset + i) % requests.len();
            match engine.submit(job(i, &requests[idx])) {
                Ok(reply) => {
                    if tx.send((i, idx, due, reply)).is_err() {
                        break; // the collector stopped on a gate failure
                    }
                }
                Err(e) if e.kind == ErrorKind::Overload => shed += 1,
                Err(_) => errors += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    })?;
    phase.latency_ms = collected.latency_ms;
    phase.traces = collected.traces;
    phase.translate_failed = collected.translate_failed;
    phase.errors = collected.errors + errors;
    phase.shed = shed;
    phase.sent = n as u64;
    phase.lateness_ms = lateness;
    Ok(phase)
}

/// The closed-window phase: answers, failures and the wall time of each
/// block of [`BLOCK`] answers.
#[derive(Default)]
struct Saturation {
    sent: u64,
    answered: u64,
    failed: u64,
    translate_failed: u64,
    block_s: Vec<f64>,
    wall_s: f64,
}

impl Saturation {
    /// Answers per second at the block time [`BLOCK_QUANTILE`] picks; over
    /// the whole phase when it was too short for a block.
    fn qps(&self) -> f64 {
        if self.block_s.is_empty() {
            return self.answered as f64 / self.wall_s;
        }
        BLOCK as f64 / percentile(&sorted(self.block_s.clone()), BLOCK_QUANTILE)
    }

    fn record(&self, in_flight: usize) -> Json {
        Json::obj(vec![
            ("phase", Json::Str("saturation".into())),
            ("in_flight", Json::Int(in_flight as i64)),
            ("sent", Json::Int(self.sent as i64)),
            ("answered", Json::Int(self.answered as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("blocks", Json::Int(self.block_s.len() as i64)),
            ("qps", Json::Num(self.qps())),
            (
                "qps_median_block",
                Json::Num(BLOCK as f64 / median(&self.block_s)),
            ),
            (
                "block_s",
                Json::Arr(self.block_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }
}

/// Keeps `in_flight` requests submitted for `secs` seconds, cycling over
/// `requests` from `offset`, and answers them in submission order, adding
/// to `out`. Blocks are timed only while the window is full; the drain at
/// the end is not.
fn saturate(
    engine: &Engine,
    requests: &[Request],
    in_flight: usize,
    secs: f64,
    offset: usize,
    out: &mut Saturation,
) -> Result<(), Gate> {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let mut waiting: VecDeque<(usize, Receiver<Response>)> = VecDeque::new();
    let mut i = 0;
    let (mut block_start, mut in_block) = (Instant::now(), 0);
    loop {
        let filling = Instant::now() < until;
        while filling && waiting.len() < in_flight {
            let idx = (offset + i) % requests.len();
            out.sent += 1;
            match engine.submit(job(i, &requests[idx])) {
                Ok(reply) => waiting.push_back((idx, reply)),
                Err(_) => out.failed += 1,
            }
            i += 1;
        }
        let Some((idx, reply)) = waiting.pop_front() else {
            out.wall_s += t0.elapsed().as_secs_f64();
            return Ok(());
        };
        match check(&requests[idx], &reply.recv().ok())? {
            Some(failed) => {
                out.answered += 1;
                out.translate_failed += u64::from(failed);
            }
            None => out.failed += 1,
        }
        in_block += 1;
        if in_block == BLOCK {
            if filling {
                out.block_s.push(block_start.elapsed().as_secs_f64());
            }
            (block_start, in_block) = (Instant::now(), 0);
        }
    }
}

/// Set-up as a user meets it: corpus, training, references, engine start,
/// and one warm-up pass over the dev questions (checked like any request).
fn start(scale: Scale, threads: usize) -> Result<(Engine, setup::Ready), Gate> {
    let mut ready = setup::build(scale, threads)?;
    let replay_pipeline = setup::clone_pipeline(&ready.pipeline);
    let engine_pipeline = std::mem::replace(&mut ready.pipeline, replay_pipeline);
    // The engine owns its databases; rebuild them from the corpus specs so
    // the replay keeps the corpus's own copies.
    let databases = ready
        .corpus
        .specs
        .iter()
        .map(|s| Database::with_rows(s.schema.clone(), s.rows.clone()))
        .collect();
    let engine = Engine::start(engine_pipeline, databases, ServeConfig::default());
    for r in &ready.requests {
        let resp = engine.translate_blocking(TranslateJob {
            db: r.db.clone(),
            question: r.question.clone(),
            ..TranslateJob::default()
        });
        let sql = match resp {
            Response::Translated { body, .. } => Some(body.sql),
            _ => None,
        };
        check_sql(&r.question, &r.reference, &sql, "warm-up")?;
    }
    Ok((engine, ready))
}

pub fn run(args: &Args) -> Result<Report, Gate> {
    let scale = if args.quick {
        Scale {
            train: 40,
            dev: 12,
            rows: 16,
            epochs: 1,
        }
    } else {
        Scale {
            train: 240,
            dev: 150,
            rows: 30,
            epochs: 3,
        }
    };
    let threads = crate::stats::nproc();
    let setups = if args.quick || args.trace { 1 } else { 3 };
    let workers = ServeConfig::default().workers;
    let in_flight = IN_FLIGHT_PER_WORKER * workers;
    let mut report = Report::default();
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut current: Option<(Engine, setup::Ready)> = None;
    for _ in 0..setups {
        if let Some((engine, prev)) = current.take() {
            engine.shutdown();
            drop(prev);
        }
        let t = Instant::now();
        let (engine, ready) = start(scale, threads)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(ready.generate_s);
        current = Some((engine, ready));
    }
    let (engine, mut ready) = current.expect("at least one set-up");
    setup::shuffle(&mut ready.requests, args.seed);
    report.note("inputs_digest", Json::Str(setup::digest(&ready.requests)));
    plant(args, &mut ready.requests);
    let requests = &ready.requests;
    let secs = args.seconds;
    let _ = engine.stats_json(true); // open the delta window

    let mut phases = Vec::new();
    if args.trace {
        let nominal = open_loop(&engine, requests, RATE_NOMINAL, secs * 0.3, 0)?;
        let peak = open_loop(&engine, requests, RATE_PEAK, secs * 0.3, 7)?;
        let stats = engine.stats_json(true);
        let num = |path: [&str; 2]| {
            stats
                .get(path[0])
                .and_then(|o| o.get(path[1]))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let queue = sorted(
            peak.traces
                .iter()
                .map(|(_, t)| t.queue_wait_us as f64 / 1e3)
                .collect(),
        );
        let batch: Vec<f64> = nominal
            .traces
            .iter()
            .chain(&peak.traces)
            .map(|(_, t)| f64::from(t.batch_size))
            .collect();
        // Engine latency not covered by queue wait or any pipeline stage.
        let overhead: Vec<f64> = nominal
            .traces
            .iter()
            .map(|(lat, t)| {
                let staged: u64 = t.stages.iter().map(|(_, d)| d).sum();
                lat.saturating_sub(t.queue_wait_us + staged) as f64 / 1e3
            })
            .collect();
        let engine_total: f64 = nominal
            .traces
            .iter()
            .map(|(lat, _)| *lat as f64 / 1e3)
            .sum();
        report.metric("serve.queue_wait_ms.p50", percentile(&queue, 0.5), "ms");
        report.metric("serve.queue_wait_ms.p99", percentile(&queue, 0.99), "ms");
        report.metric("serve.batch_size.mean", mean(&batch), "count");
        report.metric("serve.overhead_ms.p50", median(&overhead), "ms");
        report.metric("serve.retries", num(["requests", "retries"]), "count");
        report.metric("serve.shed", num(["rejections", "overload"]), "count");
        report.metric("serve.p99_ms_peak", peak.p(0.99), "ms");

        let replay_until = Instant::now() + Duration::from_secs_f64(secs * 0.4);
        let mut replay = Replay::default();
        let mut i = 0;
        while replay.requests() == 0 || Instant::now() < replay_until {
            let r = &requests[i % requests.len()];
            replay.replay(&ready.pipeline, &ready.corpus.databases[r.db_index], r)?;
            i += 1;
        }
        replay.report(&mut report);
        let step = layers::train_step(
            &ready.pipeline,
            &ready.corpus,
            layers::step_samples(args.quick),
            args.seed,
        );
        layers::common(
            &ready.pipeline,
            &ready.corpus,
            requests,
            args.quick,
            &step,
            &mut report,
        );
        report.metric("dataset.generate_s", median(&generate_s), "s");
        let unattributed = overhead.iter().sum::<f64>() / engine_total.max(1e-9);
        attribution(&mut report, unattributed, replay.trace_overhead_frac());
        report.attempted = nominal.sent + peak.sent + replay.requests() as u64;
        report.failed = nominal.failures() + peak.failures();
        phases.push(nominal.record("nominal"));
        phases.push(peak.record("peak"));
    } else {
        // The same nominal-rate schedule (same questions, same due times)
        // is offered REPLAYS times; each request's latency is its best
        // replay. Queueing that the schedule itself causes recurs in every
        // replay and stays in the figure; a stall of the host does not.
        // Each replay is followed by a stretch of saturation, so both
        // figures sample the whole run rather than one stretch of the
        // host's weather.
        let replay_secs = secs * NOMINAL_SHARE / REPLAYS as f64;
        let sat_secs = secs * (1.0 - NOMINAL_SHARE) / REPLAYS as f64;
        let mut replays = Vec::with_capacity(REPLAYS);
        let mut sat = Saturation::default();
        for k in 0..REPLAYS {
            replays.push(open_loop(&engine, requests, RATE_NOMINAL, replay_secs, 0)?);
            saturate(&engine, requests, in_flight, sat_secs, k * 37, &mut sat)?;
        }
        let by_position: Vec<Vec<Option<f64>>> = replays.iter().map(Phase::by_position).collect();
        let best = sorted(best_of(&by_position));
        let sent = replays.iter().map(|p| p.sent).sum::<u64>() + sat.sent;
        let translate_failed =
            replays.iter().map(|p| p.translate_failed).sum::<u64>() + sat.translate_failed;
        let answered = replays
            .iter()
            .map(|p| p.latency_ms.len() as u64)
            .sum::<u64>()
            + sat.answered;
        let failed = replays.iter().map(Phase::failures).sum::<u64>() + sat.failed;
        let valid = replays.iter().all(Phase::valid);
        report.setup_s(&setup_s);
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric("exec_accuracy", ready.accuracy, "%");
        report.metric(
            "ok_frac",
            (answered - translate_failed) as f64 / sent as f64,
            "ratio",
        );
        report.metric("p50_ms", percentile(&best, 0.5), "ms");
        report.metric("p99_ms", percentile(&best, 0.99), "ms");
        report.metric("qps", sat.qps(), "1/s");
        report.note("requests", Json::Int(best.len() as i64));
        report.note("beyond_p99", Json::Int(beyond(&best, 0.99) as i64));
        report.note("nominal_valid", Json::Bool(valid));
        if !valid {
            eprintln!("ledger: the dispatcher fell behind schedule; this run is marked invalid");
        }
        report.attempted = sent;
        report.failed = failed + translate_failed;
        for (k, p) in replays.iter().enumerate() {
            phases.push(p.record(&format!("nominal_{k}")));
        }
        phases.push(sat.record(in_flight));
    }
    if engine.live_workers() != workers {
        return Err(Gate::new(
            "(engine)",
            format!(
                "{} live workers at the end, {workers} configured",
                engine.live_workers()
            ),
        ));
    }
    engine.shutdown();
    report.note("phases", Json::Arr(phases));
    report.note(
        "params",
        Json::obj(vec![
            (
                "load",
                Json::Str(
                    "open loop from 1 dispatcher + 1 collector thread; \
                     closed window from 1 thread"
                        .into(),
                ),
            ),
            ("rate_nominal", Json::Num(RATE_NOMINAL)),
            ("replays", Json::Int(REPLAYS as i64)),
            ("rate_peak", Json::Num(RATE_PEAK)),
            ("in_flight", Json::Int(in_flight as i64)),
            ("block", Json::Int(BLOCK as i64)),
            ("block_quantile", Json::Num(BLOCK_QUANTILE)),
            ("workers", Json::Int(workers as i64)),
            ("rows_per_table", Json::Int(scale.rows as i64)),
            ("train_questions", Json::Int(scale.train as i64)),
            ("dev_questions", Json::Int(scale.dev as i64)),
            ("epochs", Json::Int(scale.epochs as i64)),
            ("setups", Json::Int(setups as i64)),
        ]),
    );
    Ok(report)
}
