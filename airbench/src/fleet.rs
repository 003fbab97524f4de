//! The `fleet-realtime` workload: one `Fleet` serving many monitored
//! sessions in an open loop.
//!
//! Every sensor delivers one sample per 10 ms tick. The load generator
//! enqueues the tick's samples, runs one `run_round`, and moves to the
//! next tick; a late round is not skipped, so a stall delays every later
//! tick. A recognition's latency runs from the due time of the tick whose
//! sample closed its window to the return of the round that produced it.
//!
//! The measured time is split into paced passes over the same timeline,
//! each on a freshly admitted fleet; every recognition recurs in every
//! pass and is timed as its median across them. The output checks run
//! after the timed passes: every pass must repeat the first pass's
//! recognitions, and solo engines replaying a sample of the sessions must
//! match the fleet.

use crate::inputs::{self, Feed, FleetPlan, SessionPlan, RATE_HZ};
use crate::layers::{self, LayerTrace, PassOutput};
use crate::matcher::{self, Score};
use crate::report::Report;
use crate::setup::{self, Corpora};
use crate::solo::{self, Layers, MONITOR_HORIZON};
use crate::stats::{self, NsCounts, Samples};
use crate::trace::{ns_between, Request, Tracer};
use crate::Args;
use airfinger_core::engine::StreamingEngine;
use airfinger_core::error::AirFingerError;
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::AirFinger;
use airfinger_fleet::{Fleet, FleetConfig, FleetError};
use airfinger_obs::monitor::with_horizon;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions served. About 400 is the most a 2-core machine keeps under a
/// 10 ms round p95 with 2 drain threads; 256 leaves headroom for the slow
/// phases of a shared host.
pub const SESSIONS: usize = 256;
/// Shards of the fleet.
pub const SHARDS: usize = 8;
/// Fault-free rendered traces in the pool (distinct users).
const CLEAN_TRACES: usize = 96;
/// Fault-schedule traces in the pool (every 16th session uses one).
const FAULTED_TRACES: usize = 4;
/// Length of each pooled trace.
const TRACE_SECONDS: usize = 24;
/// Ticks each pass runs, unpaced, before its timed phase (engines
/// calibrate, caches fill).
const WARMUP_TICKS: usize = 100;
/// The sensor period.
const TICK: Duration = Duration::from_millis(10);
/// Per-session ingress queue bound (samples).
const QUEUE_CAPACITY: usize = 64;
/// Samples drained per session per round.
const QUANTUM: usize = 8;
/// Set-up repetitions (training + fleet construction + admission).
const SETUP_REPS: usize = 5;
/// Paced passes over the same timeline, each on a freshly admitted
/// fleet. The fleet's output is deterministic, so every recognition
/// recurs in every pass at the same tick; it is timed as the median of
/// its passes, and a vCPU of a shared host stalled for tens of
/// milliseconds in one or two passes does not stand in for it. In traced
/// mode the odd passes are traced.
const PASSES: usize = 5;

/// Timings of one paced pass.
#[derive(Debug, Default)]
struct Loop {
    rounds_us: Samples,
    lag_us: Samples,
    /// ((session index, ordinal of the recognition in it), us).
    recognition_us: Vec<((usize, usize), f64)>,
    enqueue_ns: f64,
    busy_ns: f64,
    wall_ns: f64,
    samples: u64,
    failed: u64,
    queue_depth_max: usize,
}

impl Loop {
    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / (self.busy_ns / 1e9).max(1e-12)
    }

    fn absorb(&mut self, other: &Loop) {
        self.rounds_us.extend(&other.rounds_us);
        self.lag_us.extend(&other.lag_us);
        self.recognition_us.extend_from_slice(&other.recognition_us);
        self.enqueue_ns += other.enqueue_ns;
        self.busy_ns += other.busy_ns;
        self.wall_ns += other.wall_ns;
        self.samples += other.samples;
        self.failed += other.failed;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
    }
}

/// Serve `ticks` of the plan to `fleet`. Paced (open loop, one round per
/// 10 ms tick, a late round not skipped) and timed when `timed` is set,
/// as fast as possible and untimed otherwise; spans go to `tracer`.
fn serve(
    plan: &FleetPlan,
    fleet: &mut Fleet,
    ticks: Range<usize>,
    timed: bool,
    mut tracer: Option<&mut Tracer>,
) -> Loop {
    let mut l = Loop::default();
    let mut seen: Vec<usize> = plan
        .sessions
        .iter()
        .map(|s| fleet.session_recognitions(s.id).map_or(0, <[_]>::len))
        .collect();
    let start = Instant::now() + TICK;
    for (n, tick) in ticks.enumerate() {
        // lint: wall-clock — pacing
        let due = start + TICK * n as u32;
        if timed {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        let root = tracer.as_mut().map(|t| t.reserve());
        // lint: wall-clock — measured quantity
        let t0 = Instant::now();
        for s in &plan.sessions {
            let a = tracer.is_some().then(Instant::now);
            if fleet.enqueue(s.id, plan.sample(s, tick)).is_err() {
                l.failed += 1;
            }
            if let (Some(t), Some(a)) = (tracer.as_mut(), a) {
                t.record(
                    "enqueue",
                    a,
                    Instant::now(),
                    root,
                    Request::Tick(tick as u64, s.id),
                );
            }
        }
        let t1 = Instant::now();
        let round = fleet.run_round();
        let t2 = Instant::now();
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            let request = Request::Tick(tick as u64, u64::MAX);
            t.record("run_round", t1, t2, Some(root), request);
            t.record_as(root, "tick", t0, t2, None, request);
        }
        match round {
            Ok(stats) => l.queue_depth_max = l.queue_depth_max.max(stats.queued),
            Err(_) => l.failed += 1,
        }
        l.samples += plan.sessions.len() as u64;
        if !timed {
            continue;
        }
        let latency_us = ns_between(due, t2) as f64 / 1e3;
        for (i, (s, seen)) in plan.sessions.iter().zip(seen.iter_mut()).enumerate() {
            let n = fleet.session_recognitions(s.id).map_or(0, <[_]>::len);
            l.recognition_us
                .extend((*seen..n).map(|ordinal| ((i, ordinal), latency_us)));
            *seen = n;
        }
        l.rounds_us.push(ns_between(t1, t2) as f64 / 1e3);
        l.lag_us.push(ns_between(due, t0) as f64 / 1e3);
        l.enqueue_ns += ns_between(t0, t1) as f64;
        l.busy_ns += ns_between(t0, t2) as f64;
        l.wall_ns += TICK.as_nanos() as f64;
    }
    l
}

/// The fleet population of a run: [`SESSIONS`] sessions over the seeded
/// trace pool (a small one for the smoke tests).
fn plan(args: &Args) -> FleetPlan {
    if args.tiny {
        inputs::fleet_plan(args.seed, 24, 3, 1, 6)
    } else {
        inputs::fleet_plan(
            args.seed,
            SESSIONS,
            CLEAN_TRACES,
            FAULTED_TRACES,
            TRACE_SECONDS,
        )
    }
}

/// A fleet serving every session of `plan` on `threads` drain threads.
fn admit(pipeline: &Arc<AirFinger>, plan: &FleetPlan, threads: usize) -> Result<Fleet, FleetError> {
    let sessions = plan.sessions.len();
    let config = FleetConfig {
        shards: SHARDS,
        sessions_per_shard: sessions.div_ceil(SHARDS),
        queue_capacity: QUEUE_CAPACITY,
        quantum: QUANTUM,
        monitor_horizon: MONITOR_HORIZON,
        threads,
    };
    let mut fleet = Fleet::new(Arc::clone(pipeline), plan.pool[0].channels, config)?;
    for s in &plan.sessions {
        fleet.admit(s.id)?;
    }
    Ok(fleet)
}

/// The `fleet.*` per-layer values of the paced ticks in `l`.
fn fleet_layer_values(values: &mut Layers, l: &mut Loop, rows_per_batch: f64, shed: u64) {
    values.set("fleet.rows_per_batch", rows_per_batch);
    values.set("fleet.round_us_p50", l.rounds_us.pct(0.5));
    values.set("fleet.round_us_p95", l.rounds_us.pct(0.95));
    values.set("fleet.enqueue_ns", l.enqueue_ns / l.samples.max(1) as f64);
    values.set("fleet.busy_ratio", l.busy_ns / l.wall_ns.max(1.0));
    values.set("fleet.tick_lag_p95_us", l.lag_us.pct(0.95));
    values.set("fleet.queue_depth_max", l.queue_depth_max as f64);
    values.set("fleet.shed_sessions", shed as f64);
}

/// Paced ticks of the fleet probe a traced solo run makes.
const PROBE_TICKS: usize = 300;

/// The fleet layer, measured from a traced solo run: one pass of the
/// `fleet-realtime` population for the run's seed, on a pipeline trained
/// from `corpora` as `fleet-realtime` trains it — [`WARMUP_TICKS`]
/// unpaced, then [`PROBE_TICKS`] paced — and the `fleet.*` per-layer
/// values taken from it.
///
/// # Errors
///
/// Propagates fleet errors.
pub fn probe(args: &Args, corpora: &Corpora, values: &mut Layers) -> Result<(), FleetError> {
    let threads = crate::meta::nproc().min(2);
    let pipeline = corpora
        .train(setup::config(threads))
        .map_err(FleetError::Engine)?;
    let plan = plan(args);
    let (warmup, ticks) = if args.tiny {
        (10, 20)
    } else {
        (WARMUP_TICKS, PROBE_TICKS)
    };
    let mut fleet = admit(&pipeline, &plan, threads)?;
    let _ = serve(&plan, &mut fleet, 0..warmup, false, None);
    let mut l = serve(&plan, &mut fleet, warmup..warmup + ticks, true, None);
    let rows_per_batch = fleet.batched_windows() as f64 / fleet.batches().max(1) as f64;
    fleet_layer_values(values, &mut l, rows_per_batch, fleet.shed());
    Ok(())
}

/// Every session's recognitions so far.
fn outputs(plan: &FleetPlan, fleet: &Fleet) -> Vec<Vec<Recognition>> {
    plan.sessions
        .iter()
        .map(|s| fleet.session_recognitions(s.id).unwrap_or(&[]).to_vec())
        .collect()
}

/// Run the fleet workload.
///
/// # Errors
///
/// Propagates fleet and pipeline errors.
pub fn run(args: &Args, report: &mut Report) -> Result<(), FleetError> {
    let threads = crate::meta::nproc().min(2);
    let render_t0 = Instant::now();
    let plan = plan(args);
    let corpora = Corpora::render();
    let render_s = render_t0.elapsed().as_secs_f64();
    let sessions = plan.sessions.len();
    let channels = plan.pool[0].channels;
    let admitted = |pipeline: &Arc<AirFinger>| admit(pipeline, &plan, threads);
    let reps = if args.tiny { 1 } else { SETUP_REPS };
    let ((pipeline, first), setup_s) = setup::timed(reps, || {
        let pipeline = corpora
            .train(setup::config(threads))
            .map_err(FleetError::Engine)?;
        let fleet = admitted(&pipeline)?;
        Ok::<_, FleetError>((pipeline, fleet))
    })?;

    // The paced passes split the measured time, each after its unpaced
    // warm-up. The first pass then runs on, unpaced and untimed, to a
    // timeline of the warm-up plus the whole measured time, which is what
    // the matcher scores and the solo replays check.
    let passes = if args.tiny { 2 } else { PASSES };
    let warmup = if args.tiny { 10 } else { WARMUP_TICKS };
    let measured = (args.seconds * RATE_HZ).round().max(1.0) as usize;
    let pass_ticks = warmup + (measured / passes).max(1);
    let timeline = warmup + measured.max(pass_ticks - warmup);
    report.param("sessions", sessions);
    report.param("shards", SHARDS);
    report.param("threads", threads);
    report.param("pool_traces", plan.pool.len());
    report.param("trace_seconds", plan.pool[0].len() / RATE_HZ as usize);
    report.param("queue_capacity", QUEUE_CAPACITY);
    report.param("quantum", QUANTUM);
    report.param("monitor_horizon", MONITOR_HORIZON);
    report.param("forest_trees", setup::FOREST_TREES);
    report.param("setup_reps", reps);
    report.param("passes", passes);
    report.param("pass_ticks", pass_ticks);
    report.param("warmup_ticks", warmup);
    report.param("scored_ticks", timeline);

    let mut tracer = Tracer::new(Instant::now());
    let mut loops: Vec<Loop> = Vec::with_capacity(passes);
    let mut traced = Loop::default();
    let mut untraced = Loop::default();
    let mut failed = 0u64;
    let mut reference: Vec<Vec<Recognition>> = Vec::new();
    let mut scored: Vec<Vec<Recognition>> = Vec::new();
    let mut rows_per_batch = 0.0;
    let mut shed = 0u64;
    let mut first = Some(first);
    for pass in 0..passes {
        let mut fleet = match first.take() {
            Some(fleet) => fleet,
            None => admitted(&pipeline)?,
        };
        failed += serve(&plan, &mut fleet, 0..warmup, false, None).failed;
        let tracing = args.trace && pass % 2 == 1;
        let l = serve(
            &plan,
            &mut fleet,
            warmup..pass_ticks,
            true,
            tracing.then_some(&mut tracer),
        );
        failed += l.failed;
        if tracing { &mut traced } else { &mut untraced }.absorb(&l);
        loops.push(l);
        // Output check: every pass gives the first pass's recognitions.
        let out = outputs(&plan, &fleet);
        if pass == 0 {
            reference = out;
            failed += serve(&plan, &mut fleet, pass_ticks..timeline, false, None).failed;
            scored = outputs(&plan, &fleet);
        } else if out != reference {
            report.mismatch(format!(
                "pass {pass}: the fleet's recognitions differ from pass 0's"
            ));
        }
        rows_per_batch = fleet.batched_windows() as f64 / fleet.batches().max(1) as f64;
        failed += fleet.rollup().errors;
        shed += fleet.shed();
    }
    let mut all = Loop::default();
    for l in &loops {
        all.absorb(l);
    }
    report.attempted = all.samples;
    report.failed = failed + shed;
    let mut recognitions = stats::medians_by_key(&all.recognition_us);
    report.line(format!(
        "open loop: {sessions} sessions, {passes} passes of {pass_ticks} ticks ({warmup} unpaced warm-up), {} rounds and {} recognitions timed; pass 0 runs on to {timeline} ticks for scoring; render {render_s:.3} s (not in set-up)",
        all.rounds_us.len(),
        recognitions.len()
    ));
    report.line(format!(
        "rounds: p50 {:.1} us, p95 {:.1} us, max {:.1} us; tick lag p95 {:.1} us; busy {:.3}; {rows_per_batch:.2} windows per batched pass; shed {shed}; queue depth max {}",
        all.rounds_us.pct(0.5),
        all.rounds_us.pct(0.95),
        all.rounds_us.max(),
        all.lag_us.pct(0.95),
        all.busy_ns / all.wall_ns.max(1.0),
        all.queue_depth_max
    ));

    // Output check: solo monitored engines replay every 10th session and
    // the first faulted one over the scored timeline, after the timed
    // passes, and must match the fleet recognition for recognition.
    let mut quiet_push = NsCounts::default();
    let mut replay_feeds: Vec<(SessionPlan, Feed)> = Vec::new();
    for (i, s) in plan.sessions.iter().enumerate() {
        if s.id % if args.tiny { 5 } else { 10 } != 0 && s.id != inputs::FAULT_EVERY as u64 {
            continue;
        }
        let feed = session_feed(&plan, s, timeline);
        let got = replay(&pipeline, s, &feed, &mut quiet_push).map_err(FleetError::Engine)?;
        if got != scored[i] {
            report.mismatch(format!(
                "session {}: solo replay gave {} recognitions, fleet {}",
                s.id,
                got.len(),
                scored[i].len()
            ));
        }
        replay_feeds.push((*s, feed));
    }
    let streams: Vec<&[Recognition]> = scored.iter().map(Vec::as_slice).collect();
    report.line(format!(
        "digest {} seed={}: {:016x} over {} recognitions; {} sessions replayed solo",
        args.workload,
        args.seed,
        solo::digest(&streams),
        streams.iter().map(|s| s.len()).sum::<usize>(),
        replay_feeds.len()
    ));
    let mut score = Score::default();
    let mut clean_sessions = 0usize;
    // Scored from the end of the warm-up: every engine starts
    // uncalibrated at admission.
    let span = warmup..timeline.saturating_sub(inputs::SCORE_TAIL);
    for (s, recognitions) in plan.sessions.iter().zip(&scored) {
        if s.faulted {
            continue;
        }
        score.add(matcher::score(
            &plan.slots(s, timeline),
            &solo::windows_of(recognitions),
            RATE_HZ,
            span.clone(),
        ));
        clean_sessions += 1;
    }
    let minutes = clean_sessions as f64 * span.len() as f64 / RATE_HZ / 60.0;
    report.line(format!(
        "matcher (fault-free sessions): {} scripted gestures, {} correct, {} closed windows, {} accepted, {} spurious over {minutes:.1} sensor-min (spurious_per_min {:.4})",
        score.slots,
        score.correct,
        score.windows,
        score.accepted,
        score.spurious,
        score.spurious as f64 / minutes.max(1e-9)
    ));

    if !args.trace {
        let beyond = stats::beyond(recognitions.sorted(), 0.95);
        report.line(format!(
            "recognitions: n={} timed {passes} times each (median per recognition), {beyond} beyond p95{}; push_p50_ns from {} solo replay pushes",
            recognitions.len(),
            if beyond >= 10 { "" } else { " (fewer than 10: p95 not resolved)" },
            quiet_push.len()
        ));
        let per_pass: Vec<f64> = loops.iter().map(Loop::samples_per_s).collect();
        report.metric("setup_s", setup_s, "s");
        report.metric(
            "samples_per_s",
            stats::median(&per_pass).unwrap_or(0.0),
            "1/s",
        );
        report.metric("push_p50_ns", quiet_push.pct(0.5), "ns");
        report.metric("recognition_p50_us", recognitions.pct(0.5), "us");
        report.metric("recognition_p95_us", recognitions.pct(0.95), "us");
        report.metric("recognition_max_us", recognitions.max(), "us");
        report.metric("accuracy", score.accuracy(), "ratio");
        report.metric("peak_rss_mb", crate::meta::peak_rss_mb(), "MB");
        report.line(format!(
            "error_ratio {:.6} ({} failed of {} offered)",
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        ));
        return Ok(());
    }

    // Traced: the per-layer breakdown comes from a traced deferred-path
    // replay of the sampled sessions, with monitors attached as in the
    // fleet.
    let mut lt = LayerTrace::new(pipeline.config(), Instant::now());
    let mut replays: Vec<PassOutput> = Vec::with_capacity(replay_feeds.len());
    let mut replay_score = Score::default();
    for (s, feed) in &replay_feeds {
        let monitor = with_horizon(MONITOR_HORIZON).with_identity(s.id, s.id % SHARDS as u64);
        let out = layers::deferred_pass(
            &pipeline,
            feed,
            Some(monitor),
            Some(&mut lt),
            s.id << 32,
            None,
        )
        .map_err(FleetError::Engine)?;
        solo::check_prefix(
            report,
            s.id as usize,
            &out.recognitions,
            &scored[s.id as usize],
            true,
        );
        if !s.faulted {
            replay_score.add(matcher::score(
                &feed.slots,
                &solo::windows_of(&out.recognitions),
                RATE_HZ,
                span.clone(),
            ));
        }
        replays.push(out);
    }
    let probe = &replay_feeds[0].1;
    let dsp = layers::dsp_replay(pipeline.config(), probe, 9_000, 3, &mut lt.tracer);
    let (monitor_ns, recording_overhead) =
        solo::obs_passes(&pipeline, probe).map_err(FleetError::Engine)?;
    let mut values = Layers::new();
    let summary = solo::summarize(&replays, replay_score);
    solo::solo_layer_values(&mut values, &mut lt, summary, dsp, channels);
    values.set("obs.monitor_ns_per_push", monitor_ns);
    values.set("obs.recording_overhead", recording_overhead);
    fleet_layer_values(&mut values, &mut all, rows_per_batch, shed);
    values.set(
        "trace.overhead",
        traced.samples_per_s() / untraced.samples_per_s() - 1.0,
    );

    // Reconciliation: Σ round time of the traced passes against the layer
    // cost the traced replay attributes per sample. Drain work (engine +
    // pipeline preparation) is split over the drain threads; the batched
    // forest pass and window finishing run on the round's own thread.
    let per_sample = |name: &str| lt.tracer.total(name).1 as f64 / lt.samples.max(1) as f64;
    let drained = traced.samples as f64;
    let engine =
        drained * (per_sample("push_deferred") + per_sample("resolve_pending")) / threads as f64;
    let prepare = drained * per_sample("prepare_window") / threads as f64;
    let serial = drained * (per_sample("predict_features") + per_sample("finish_window"));
    let rounds_ns = tracer.total("run_round").1 as f64;
    let residual = rounds_ns - (engine + prepare + serial);
    let residual_share = residual / rounds_ns.max(1.0);
    values.set("trace.residual_share", residual_share);
    report.line(format!(
        "reconcile {}: engine {:.6} s + pipeline {:.6} s + ml+finish {:.6} s (per-sample costs of the traced solo replay x {} samples, drain work / {threads} threads) + residual {:.6} s = Σ round {:.6} s over {} traced rounds (residual_share {:.4})",
        args.workload,
        engine / 1e9,
        prepare / 1e9,
        serial / 1e9,
        traced.samples,
        residual / 1e9,
        rounds_ns / 1e9,
        tracer.total("run_round").0,
        residual_share
    ));
    values.emit(report);
    // The fleet spans and the replay spans go out together.
    solo::write_spans(report, &tracer, args);
    let replay_args = Args {
        workload: format!("{}-replay", args.workload),
        ..args.clone()
    };
    solo::write_spans(report, &lt.tracer, &replay_args);
    Ok(())
}

/// The samples one session received over `ticks` ticks, with its script.
fn session_feed(plan: &FleetPlan, s: &SessionPlan, ticks: usize) -> Feed {
    let channels = plan.pool[s.trace].channels;
    let mut samples = Vec::with_capacity(ticks * channels);
    for tick in 0..ticks {
        samples.extend_from_slice(plan.sample(s, tick));
    }
    Feed {
        samples,
        channels,
        slots: plan.slots(s, ticks),
        episodes: Vec::new(),
    }
}

/// Replay one session's samples through a solo monitored engine with
/// `StreamingEngine::push`, timing into `quiet` every push that closes no
/// window.
fn replay(
    pipeline: &Arc<AirFinger>,
    session: &SessionPlan,
    feed: &Feed,
    quiet: &mut NsCounts,
) -> Result<Vec<Recognition>, AirFingerError> {
    let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), feed.channels)?;
    engine.attach_monitor(
        with_horizon(MONITOR_HORIZON).with_identity(session.id, session.id % SHARDS as u64),
    );
    let mut recognitions = Vec::new();
    for i in 0..feed.len() {
        // lint: wall-clock — measured quantity
        let t0 = Instant::now();
        let pushed = engine.push(feed.sample(i));
        let ns = ns_between(t0, Instant::now());
        match pushed {
            Ok(None) => quiet.push(ns),
            Ok(Some(r)) => recognitions.push(r),
            // The fleet counts a failed recognition against the session
            // and keeps streaming; so does the replay.
            Err(_) => {}
        }
    }
    Ok(recognitions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_workload() {
        for trace in [false, true] {
            let args = Args {
                workload: "fleet-realtime".into(),
                seed: 2,
                seconds: 0.3,
                trace,
                tiny: true,
            };
            let mut report = Report::default();
            run(&args, &mut report).expect("runs");
            assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
            let expected = if trace {
                crate::PER_LAYER.len()
            } else {
                crate::END_TO_END.len()
            };
            assert_eq!(report.metrics.len(), expected);
            assert_eq!(report.failed, 0);
        }
    }
}
