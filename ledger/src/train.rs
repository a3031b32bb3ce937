//! `train`: marginal epochs of `valuenet_core::train` on 30-row tables with
//! `threads` = nproc. The same EPOCHS-epoch training runs again and again
//! on one corpus; the trainer's own preparation (a 0-epoch run, timed in
//! set-up) is subtracted, leaving the epochs' forward, backward and Adam
//! steps. Between training runs, the first run's model translates its dev
//! questions in closed-loop passes.

use std::time::{Duration, Instant};

use valuenet_core::{train, Pipeline, TrainReport, ValueMode};
use valuenet_obs::json::Json;

use crate::layers::{self, Replay};
use crate::setup::{self, model_config, train_config, Scale};
use crate::stats::{median, peak_rss_mb, percentile, sorted, timed};
use crate::translate::{attribution, ClosedLoop};
use crate::{plant, Args, Gate, Report};

/// Epochs of each timed training run.
const EPOCHS: usize = 1;
/// Share of the traced run spent on timed training; the replay has the rest.
const TRAIN_SHARE: f64 = 0.5;
/// The run time a training figure is read at, as a quantile of the runs:
/// host contention only ever slows a run, so a low quantile is the
/// program's own time, and not the minimum, so one lucky run cannot set it.
const RUN_QUANTILE: f64 = 0.25;
/// Set-ups per round. One takes about 50 ms, and the host moves it between
/// about 33 and 55 ms for seconds at a time, so `setup_s` is the median of
/// many, spread over the whole run.
const SETUPS_PER_ROUND: usize = 3;

fn train_once(
    corpus: &valuenet_dataset::Corpus,
    epochs: usize,
    threads: usize,
) -> ((Pipeline, TrainReport), f64) {
    timed(|| {
        train(
            corpus,
            ValueMode::Full,
            model_config(),
            &train_config(epochs, threads),
        )
    })
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
            dev: 400,
            rows: 30,
            epochs: EPOCHS,
        }
    };
    // The traced run trains on one thread, so single-threaded layer timers
    // can be compared with the trainer's wall time.
    let threads = if args.trace { 1 } else { crate::stats::nproc() };
    let mut report = Report::default();
    let (mut setup_s, mut prep_ms) = (Vec::new(), Vec::new());
    // What a user waits for before the first epoch: the corpus, and the
    // trainer's own preparation (vocabulary, NER, model inputs).
    let mut set_up = || {
        let t = Instant::now();
        let c = setup::corpus(scale);
        let (_, prep) = train_once(&c, 0, threads);
        setup_s.push(t.elapsed().as_secs_f64());
        prep_ms.push(prep);
        c
    };
    let corpus = set_up();

    let start = Instant::now();
    let until = start + Duration::from_secs_f64(args.seconds);
    // The first run's pipeline gives the references and serves the closed
    // loop; every later run must repeat its losses bit for bit.
    let ((pipeline, trained), ms) = train_once(&corpus, EPOCHS, threads);
    let pipeline = &pipeline;
    let mut run_ms = vec![ms];
    let (mut requests, accuracy) = setup::references(pipeline, &corpus)?;
    setup::shuffle(&mut requests, args.seed);
    report.note("inputs_digest", Json::Str(setup::digest(&requests)));
    plant(args, &mut requests);
    // Untraced, each round is one training run, one closed-loop pass and
    // SETUPS_PER_ROUND set-ups, so every figure samples the whole run rather
    // than one stretch of the host's weather. Traced, training takes
    // TRAIN_SHARE and the replay the rest.
    let mut calls = ClosedLoop::new();
    let train_until = if args.trace {
        start + Duration::from_secs_f64(args.seconds * TRAIN_SHARE)
    } else {
        until
    };
    while run_ms.len() < 4 || Instant::now() < train_until {
        let ((_, again), ms) = train_once(&corpus, EPOCHS, threads);
        run_ms.push(ms);
        let same = trained.epoch_losses.len() == again.epoch_losses.len()
            && trained
                .epoch_losses
                .iter()
                .zip(&again.epoch_losses)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(Gate::new(
                "(training)",
                "repeated training changed the epoch losses",
            ));
        }
        if !args.trace {
            calls.pass(pipeline, &corpus, &requests)?;
            for _ in 0..SETUPS_PER_ROUND {
                drop(set_up());
            }
        }
    }
    let prep_ms = percentile(&sorted(prep_ms), RUN_QUANTILE);
    let sample_epochs = (EPOCHS * trained.trained_samples) as f64;
    let epochs_ms = (percentile(&sorted(run_ms.clone()), RUN_QUANTILE) - prep_ms).max(1e-6);
    // Wall time per trained sample-epoch, ms.
    let sample_ms = epochs_ms / sample_epochs;

    if args.trace {
        // Timed right after the trainer, so both see the same host.
        let t = layers::train_step(
            pipeline,
            &corpus,
            layers::step_samples(args.quick),
            args.seed,
        );
        let mut replay = Replay::default();
        let mut i = 0;
        while replay.requests() == 0 || Instant::now() < until {
            let r = &requests[i % requests.len()];
            replay.replay(pipeline, &corpus.databases[r.db_index], r)?;
            i += 1;
        }
        replay.report(&mut report);
        layers::common(pipeline, &corpus, &requests, args.quick, &t, &mut report);
        layers::zero_serve_metrics(&mut report);
        report.metric("dataset.generate_s", median(&setup_s), "s");
        // The trainer steps Adam once per batch.
        let batch = train_config(1, threads).batch_size as f64;
        let per_sample = t.loss + t.backward + t.collect + t.adam / batch;
        attribution(&mut report, 1.0 - per_sample / sample_ms, t.overhead());
        report.attempted = (replay.requests() + run_ms.len()) as u64;
    } else {
        report.setup_s(&setup_s);
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric("exec_accuracy", accuracy, "%");
        calls.report(&mut report);
        report.metric("qps", 1e3 / sample_ms, "1/s");
        report.note("prep_ms", Json::Num(prep_ms));
        report.note(
            "train_run_ms",
            Json::Arr(run_ms.iter().map(|&r| Json::Num(r)).collect()),
        );
        report.attempted = (calls.calls() + run_ms.len()) as u64;
        report.failed = calls.no_sql;
    }
    report.note(
        "params",
        Json::obj(vec![
            (
                "load",
                Json::Str(format!(
                    "{EPOCHS}-epoch training runs, then a closed-loop translate"
                )),
            ),
            ("rows_per_table", Json::Int(scale.rows as i64)),
            ("train_questions", Json::Int(scale.train as i64)),
            ("dev_questions", Json::Int(scale.dev as i64)),
            ("train_threads", Json::Int(threads as i64)),
            ("setups", Json::Int(setup_s.len() as i64)),
            ("setups_per_round", Json::Int(SETUPS_PER_ROUND as i64)),
        ]),
    );
    Ok(report)
}
