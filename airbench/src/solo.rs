//! The single-engine workloads: `solo-gestures`, `solo-quiet` and
//! `solo-motion`.
//!
//! One thread, one trained engine per stream segment, closed loop: each
//! `StreamingEngine::push` is issued when the previous one returned. The
//! segments of the seeded pool are replayed in order until the time is
//! up; every replay must reproduce, recognition for recognition, the
//! reference the deferred path produced on the same segment.

use crate::calib::{Calibration, CALLS_PER_CHUNK, CALL_EVERY, LONG_NS};
use crate::inputs::{self, Feed, RATE_HZ};
use crate::layers::{self, LayerTrace, PassOutput, KIND_GROUPS};
use crate::matcher::{self, Score, Window};
use crate::report::Report;
use crate::setup::{self, Corpora};
use crate::stats::{self, NsCounts, Samples};
use crate::trace::{ns_between, Tracer, SPAN_DIR};
use crate::Args;
use airfinger_core::engine::StreamingEngine;
use airfinger_core::error::AirFingerError;
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::AirFinger;
use airfinger_obs::monitor::with_horizon;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which solo workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solo {
    /// Dense 2.5 s gesture cadence: window stages dominate.
    Gestures,
    /// A gesture every 30–60 s: the per-sample streaming path dominates.
    Quiet,
    /// Gesture stretches between 5–45 s continuous motions: the worst
    /// case push.
    Motion,
}

/// Set-up repetitions per run (median reported).
pub const SETUP_REPS: usize = 5;
/// Monitor horizon for the monitored passes (the fleet's horizon).
pub const MONITOR_HORIZON: usize = 400;
/// Samples of the first segment used by the warm-up, DSP and
/// observability passes (fewer when a motion episode starts earlier).
const PASS_SAMPLES: usize = 9_000;

/// Length of the warm-up, DSP and observability passes over `feed`: up
/// to [`PASS_SAMPLES`], stopping before its first motion episode.
fn pass_len(feed: &Feed) -> usize {
    feed.episodes
        .first()
        .map_or(PASS_SAMPLES, |&(start, _)| start.min(PASS_SAMPLES))
}

impl Solo {
    fn pool(self, seed: u64, tiny: bool) -> Vec<Feed> {
        match (self, tiny) {
            (Solo::Gestures, false) => inputs::gesture_pool(seed, 48, 60),
            (Solo::Gestures, true) => inputs::gesture_pool(seed, 2, 12),
            (Solo::Quiet, false) => inputs::quiet_pool(seed, 96),
            (Solo::Quiet, true) => inputs::quiet_pool(seed, 1),
            (Solo::Motion, false) => inputs::motion_pool(seed, 2, inputs::MOTION_STRETCH_S),
            (Solo::Motion, true) => inputs::motion_pool(seed, 1, 60.0),
        }
    }
}

/// Reference recognitions per pool segment, from the deferred path.
#[derive(Debug)]
struct Reference {
    per_feed: Vec<PassOutput>,
    score: Score,
    minutes: f64,
}

fn reference(pipeline: &Arc<AirFinger>, pool: &[Feed]) -> Result<Reference, AirFingerError> {
    let mut per_feed = Vec::with_capacity(pool.len());
    let mut score = Score::default();
    for feed in pool {
        let out = layers::deferred_pass(pipeline, feed, None, None, 0, None)?;
        let span = 0..feed.len().saturating_sub(inputs::SCORE_TAIL);
        score.add(matcher::score(
            &feed.slots,
            &windows_of(&out.recognitions),
            RATE_HZ,
            span,
        ));
        per_feed.push(out);
    }
    let minutes = pool
        .iter()
        .map(|f| f.len().saturating_sub(inputs::SCORE_TAIL) as f64 / RATE_HZ / 60.0)
        .sum();
    Ok(Reference {
        per_feed,
        score,
        minutes,
    })
}

/// Matcher windows of a recognition sequence.
#[must_use]
pub fn windows_of(recognitions: &[Recognition]) -> Vec<Window> {
    recognitions
        .iter()
        .map(|r| Window {
            start: r.segment().start,
            end: r.segment().end,
            gesture: r.gesture(),
        })
        .collect()
}

/// FNV-1a digest of a recognition sequence (its debug rendering, which
/// spells out every field).
#[must_use]
pub fn digest(per_stream: &[&[Recognition]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for stream in per_stream {
        for r in *stream {
            for b in format!("{r:?};").bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The timed closed loop: whole passes over the pool. Timings pool
/// every push of every pass, so a run's figure blends whatever speed
/// phases a shared host went through instead of snapping to one of them;
/// each push is scaled to the reference host speed ([`crate::calib`]).
#[derive(Debug, Default)]
struct PushRun {
    passes: usize,
    /// Quiet-push durations at the reference speed, `(ns, count)`.
    quiet: Vec<(f64, u64)>,
    /// Quiet-push durations as measured.
    quiet_raw: NsCounts,
    /// ((segment, ordinal of the recognition within it), ns at the
    /// reference speed), all passes.
    closing: Vec<((usize, usize), f64)>,
    samples: u64,
    /// Σ push time at the reference speed.
    busy_ns: f64,
    /// Σ push time as measured.
    busy_raw_ns: f64,
    errors: u64,
    /// Host slowdown of every chunk.
    factors: Vec<f64>,
}

/// What one push returned.
#[derive(Debug, Clone, Copy)]
enum Pushed {
    Quiet,
    /// (segment, ordinal of the recognition within it).
    Recognition((usize, usize)),
    Error,
}

/// The pushes of the current chunk, not yet scaled.
#[derive(Debug, Default)]
struct Chunk {
    cal: Calibration,
    quiet: NsCounts,
    closing: Vec<((usize, usize), f64)>,
    busy_ns: f64,
}

impl PushRun {
    /// Record one push that took `ns` as measured. A push of [`LONG_NS`]
    /// or more is scaled by the kernel calls around it; a shorter one
    /// waits for its chunk's calibration.
    fn record(&mut self, chunk: &mut Chunk, ns: u64, pushed: Pushed) {
        self.samples += 1;
        self.busy_raw_ns += ns as f64;
        if let Pushed::Quiet = pushed {
            self.quiet_raw.push(ns);
        }
        if ns >= LONG_NS {
            let scaled = ns as f64 / chunk.cal.around();
            self.add(pushed, scaled);
        } else {
            chunk.busy_ns += ns as f64;
            match pushed {
                Pushed::Quiet => chunk.quiet.push(ns),
                Pushed::Recognition(key) => chunk.closing.push((key, ns as f64)),
                Pushed::Error => {}
            }
        }
    }

    /// Add one push already scaled to the reference speed.
    fn add(&mut self, pushed: Pushed, ns: f64) {
        self.busy_ns += ns;
        match pushed {
            Pushed::Quiet => self.quiet.push((ns, 1)),
            Pushed::Recognition(key) => self.closing.push((key, ns)),
            Pushed::Error => {}
        }
    }

    /// Scale `chunk`'s pushes by its calibration, fold them in and start
    /// the next chunk.
    fn close(&mut self, chunk: &mut Chunk) {
        let factor = chunk.cal.factor();
        chunk.quiet.drain_scaled(1.0 / factor, &mut self.quiet);
        self.closing
            .extend(chunk.closing.drain(..).map(|(key, ns)| (key, ns / factor)));
        self.busy_ns += chunk.busy_ns / factor;
        self.factors.push(factor);
        chunk.cal.clear();
        chunk.busy_ns = 0.0;
    }
}

/// Passes every run makes at least, so per-window medians exist.
const MIN_PASSES: usize = 3;

/// Replay the whole pool through `StreamingEngine::push`, pass after
/// pass, checking every recognition against the reference. Runs at least
/// [`MIN_PASSES`] passes and starts another only while it is expected to
/// end within `seconds`. The reference kernel runs before every
/// [`CALL_EVERY`]-th push, outside the timed calls.
fn push_loop(
    pipeline: &Arc<AirFinger>,
    pool: &[Feed],
    reference: &Reference,
    seconds: f64,
    report: &mut Report,
) -> Result<PushRun, AirFingerError> {
    let mut run = PushRun::default();
    let mut chunk = Chunk::default();
    let t_start = Instant::now();
    loop {
        let elapsed = t_start.elapsed().as_secs_f64();
        let per_pass = elapsed / run.passes.max(1) as f64;
        if run.passes >= MIN_PASSES && elapsed + per_pass > seconds {
            break;
        }
        for (p, feed) in pool.iter().enumerate() {
            let want = &reference.per_feed[p].recognitions;
            let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), feed.channels)?;
            let mut ordinal = 0usize;
            for i in 0..feed.len() {
                if run.samples % CALL_EVERY == 0 {
                    if chunk.cal.len() == CALLS_PER_CHUNK {
                        run.close(&mut chunk);
                    }
                    chunk.cal.sample();
                }
                let sample = feed.sample(i);
                // lint: wall-clock — measured quantity
                let t0 = Instant::now();
                let pushed = engine.push(sample);
                let ns = ns_between(t0, Instant::now());
                match pushed {
                    Ok(None) => run.record(&mut chunk, ns, Pushed::Quiet),
                    Ok(Some(r)) => {
                        if want.get(ordinal) != Some(&r) {
                            report.mismatch(format!(
                                "segment {p} recognition {ordinal}: push gave {r}, deferred path gave {}",
                                want.get(ordinal).map_or("nothing".into(), ToString::to_string)
                            ));
                        }
                        run.record(&mut chunk, ns, Pushed::Recognition((p, ordinal)));
                        ordinal += 1;
                    }
                    Err(_) => {
                        run.errors += 1;
                        run.record(&mut chunk, ns, Pushed::Error);
                    }
                }
            }
            if ordinal != want.len() {
                report.mismatch(format!(
                    "segment {p}: push gave {ordinal} recognitions, deferred path {}",
                    want.len()
                ));
            }
        }
        run.passes += 1;
    }
    run.close(&mut chunk);
    Ok(run)
}

/// Run one solo workload.
///
/// # Errors
///
/// Propagates pipeline errors (which no workload input should cause).
pub fn run(kind: Solo, args: &Args, report: &mut Report) -> Result<(), AirFingerError> {
    let render_t0 = Instant::now();
    let pool = kind.pool(args.seed, args.tiny);
    let corpora = Corpora::render();
    let render_s = render_t0.elapsed().as_secs_f64();
    let config = setup::config(1);
    let reps = if args.tiny { 1 } else { SETUP_REPS };
    let (pipeline, setup_s) = setup::timed(reps, || {
        let pipeline = corpora.train(config)?;
        let engine = StreamingEngine::with_shared(Arc::clone(&pipeline), pool[0].channels)?;
        drop(engine);
        Ok::<_, AirFingerError>(pipeline)
    })?;
    report.param("pool_segments", pool.len());
    report.param("pool_samples", pool.iter().map(Feed::len).sum::<usize>());
    report.param("forest_trees", setup::FOREST_TREES);
    report.param("threads", 1);
    report.param("setup_reps", reps);

    let reference = reference(&pipeline, &pool)?;
    let streams: Vec<&[Recognition]> = reference
        .per_feed
        .iter()
        .map(|o| o.recognitions.as_slice())
        .collect();
    report.line(format!(
        "digest {} seed={}: {:016x} over {} recognitions",
        args.workload,
        args.seed,
        digest(&streams),
        streams.iter().map(|s| s.len()).sum::<usize>()
    ));
    let score = reference.score;
    report.line(format!(
        "matcher: {} scripted gestures, {} correct, {} closed windows, {} accepted, {} spurious over {:.1} sensor-min (spurious_per_min {:.4})",
        score.slots,
        score.correct,
        score.windows,
        score.accepted,
        score.spurious,
        reference.minutes,
        score.spurious as f64 / reference.minutes.max(1e-9)
    ));
    let ref_errors: u64 = reference.per_feed.iter().map(|o| o.errors).sum();
    if ref_errors > 0 {
        report.mismatch(format!("deferred path returned {ref_errors} errors"));
    }

    // Warm-up (untimed): the first pass over code and data is slower.
    let warm = &pool[0];
    let _ = layers::push_pass_ns(&pipeline, warm, pass_len(warm), None)?;

    let push_seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let mut run = push_loop(&pipeline, &pool, &reference, push_seconds, report)?;
    report.attempted = run.samples;
    report.failed = run.errors;
    let samples_per_s = run.samples as f64 / (run.busy_ns / 1e9).max(1e-12);
    let raw_samples_per_s = run.samples as f64 / (run.busy_raw_ns / 1e9).max(1e-12);
    report.line(format!(
        "timed push loop: {} passes over the pool, {} samples ({} quiet pushes), {} recognitions, {} errors; render {:.3} s (not in set-up)",
        run.passes,
        run.samples,
        run.quiet_raw.len(),
        run.closing.len(),
        run.errors,
        render_s
    ));
    let mut factors = Samples::default();
    run.factors.iter().for_each(|&f| factors.push(f));
    report.line(format!(
        "host speed: {} chunks of {} pushes, slowdown vs reference min {:.3} / median {:.3} / max {:.3}; as measured: push_p50_ns {} samples_per_s {:.0}",
        factors.len(),
        CALL_EVERY * CALLS_PER_CHUNK as u64,
        factors.pct(0.0),
        factors.pct(0.5),
        factors.max(),
        run.quiet_raw.pct(0.5),
        raw_samples_per_s
    ));

    if !args.trace {
        // Each recognition is timed as the median of its pushes across
        // passes; the percentiles and the maximum run over recognitions.
        let mut recognitions = stats::medians_by_key(&run.closing);
        let beyond = stats::beyond(recognitions.sorted(), 0.95);
        report.line(format!(
            "recognitions: n={} timed {} times each (median per recognition), {beyond} beyond p95{}",
            recognitions.len(),
            run.passes,
            if beyond >= 10 {
                ""
            } else {
                " (fewer than 10: p95 not resolved)"
            },
        ));
        report.metric("setup_s", setup_s, "s");
        report.metric("samples_per_s", samples_per_s, "1/s");
        report.metric(
            "push_p50_ns",
            stats::weighted_pct(&mut run.quiet, 0.5),
            "ns",
        );
        report.metric("recognition_p50_us", recognitions.pct(0.5) / 1e3, "us");
        report.metric("recognition_p95_us", recognitions.pct(0.95) / 1e3, "us");
        report.metric("recognition_max_us", recognitions.max() / 1e3, "us");
        report.metric("accuracy", score.accuracy(), "ratio");
        report.metric("peak_rss_mb", crate::meta::peak_rss_mb(), "MB");
        report.line(format!(
            "error_ratio {:.6} ({} failed of {} offered)",
            run.errors as f64 / report.attempted.max(1) as f64,
            run.errors,
            report.attempted
        ));
        return Ok(());
    }

    traced(
        args,
        report,
        &corpora,
        &pipeline,
        &pool,
        &reference,
        raw_samples_per_s,
    )
}

/// The traced half of a `--trace 1` run: the deferred path under spans,
/// the DSP kernel replay and the observability passes.
fn traced(
    args: &Args,
    report: &mut Report,
    corpora: &Corpora,
    pipeline: &Arc<AirFinger>,
    pool: &[Feed],
    reference: &Reference,
    untraced_samples_per_s: f64,
) -> Result<(), AirFingerError> {
    // Both sides of `trace.overhead` are as measured (not scaled).
    let epoch = Instant::now();
    let mut lt = LayerTrace::new(pipeline.config(), epoch);
    let deadline = epoch + Duration::from_secs_f64(args.seconds / 3.0);
    let mut request_base = 0u64;
    let mut segment = 0usize;
    while Instant::now() < deadline {
        let p = segment % pool.len();
        let out = layers::deferred_pass(
            pipeline,
            &pool[p],
            None,
            Some(&mut lt),
            request_base,
            Some(deadline),
        )?;
        check_prefix(
            report,
            p,
            &out.recognitions,
            &reference.per_feed[p].recognitions,
            out.samples == pool[p].len(),
        );
        request_base += out.samples as u64;
        segment += 1;
    }
    let traced_wall_ns = ns_between(epoch, Instant::now()) as f64;
    let traced_samples_per_s =
        lt.samples as f64 / ((traced_wall_ns - lt.probe_ns) / 1e9).max(1e-12);

    let dsp = layers::dsp_replay(
        pipeline.config(),
        &pool[0],
        pass_len(&pool[0]),
        3,
        &mut lt.tracer,
    );
    let (monitor_ns, recording_overhead) = obs_passes(pipeline, &pool[0])?;

    let mut values = Layers::new();
    let summary = summarize(&reference.per_feed, reference.score);
    solo_layer_values(&mut values, &mut lt, summary, dsp, pool[0].channels);
    crate::fleet::probe(args, corpora, &mut values)
        .map_err(|e| AirFingerError::InvalidConfig(format!("fleet probe: {e}")))?;
    values.set("obs.monitor_ns_per_push", monitor_ns);
    values.set("obs.recording_overhead", recording_overhead);
    values.set(
        "trace.overhead",
        traced_samples_per_s / untraced_samples_per_s - 1.0,
    );
    let residual_share = (lt.root_ns - lt.child_ns) / lt.root_ns.max(1.0);
    values.set("trace.residual_share", residual_share);

    let engine = lt.tracer.total("push_deferred").1 + lt.tracer.total("resolve_pending").1;
    let pipeline_ns = lt.tracer.total("prepare_window").1 + lt.tracer.total("finish_window").1;
    let ml = lt.tracer.total("predict_features").1;
    let residual = lt.root_ns - lt.child_ns;
    report.line(format!(
        "reconcile {}: engine {:.6} s + pipeline {:.6} s + ml {:.6} s + residual {:.6} s = {:.6} s = Σ push {:.6} s over {} samples (residual_share {:.4})",
        args.workload,
        engine as f64 / 1e9,
        pipeline_ns as f64 / 1e9,
        ml as f64 / 1e9,
        residual / 1e9,
        (engine + pipeline_ns + ml) as f64 / 1e9 + residual / 1e9,
        lt.root_ns / 1e9,
        lt.samples,
        residual_share
    ));
    values.emit(report);
    write_spans(report, &lt.tracer, args);
    Ok(())
}

/// Fail the run unless `got` equals `want` (or its prefix, for a pass
/// the deadline cut short).
pub fn check_prefix(
    report: &mut Report,
    stream: usize,
    got: &[Recognition],
    want: &[Recognition],
    complete: bool,
) {
    let ok = if complete {
        got == want
    } else {
        got.len() <= want.len() && got == &want[..got.len()]
    };
    if !ok {
        report.mismatch(format!(
            "stream {stream}: traced deferred path gave {} recognitions differing from the reference's {}",
            got.len(),
            want.len()
        ));
    }
}

/// Monitor and recording overheads of `StreamingEngine::push` on the
/// first [`pass_len`] samples of `feed`, from alternating block-timed
/// passes (medians of 5).
///
/// # Errors
///
/// Fails only when an engine cannot be built.
pub fn obs_passes(pipeline: &Arc<AirFinger>, feed: &Feed) -> Result<(f64, f64), AirFingerError> {
    let n = pass_len(feed);
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut rec_on = Vec::new();
    let mut rec_off = Vec::new();
    for _ in 0..5 {
        off.push(layers::push_pass_ns(pipeline, feed, n, None)?);
        on.push(layers::push_pass_ns(
            pipeline,
            feed,
            n,
            Some(with_horizon(MONITOR_HORIZON)),
        )?);
        airfinger_obs::set_recording(false);
        rec_off.push(layers::push_pass_ns(pipeline, feed, n, None)?);
        airfinger_obs::set_recording(true);
        rec_on.push(layers::push_pass_ns(pipeline, feed, n, None)?);
    }
    let m = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    Ok((m(&on) - m(&off), m(&rec_on) / m(&rec_off).max(1e-9) - 1.0))
}

/// Write the kept spans under the span directory and say where.
pub fn write_spans(report: &mut Report, tracer: &Tracer, args: &Args) {
    let stem = format!("{}-seed{}", args.workload, args.seed);
    match tracer.write(Path::new(SPAN_DIR), &stem) {
        Ok(path) => report.line(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.line(format!("spans: not written ({e})")),
    }
}

/// Per-layer values by metric name; unset metrics print as 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// No values yet.
    #[must_use]
    pub fn new() -> Self {
        Layers::default()
    }

    /// Set one metric (must be a name of [`crate::PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// Emit every per-layer metric in table order.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in crate::PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Fill the engine, pipeline, filter, features, ml and dsp values from a
/// traced deferred pass and the window summary of its reference.
pub fn solo_layer_values(
    values: &mut Layers,
    lt: &mut LayerTrace,
    mut windows: WindowSummary,
    dsp: [f64; 3],
    channels: usize,
) {
    values.set("dsp.sbc_ns", dsp[0]);
    values.set("dsp.threshold_ns", dsp[1]);
    values.set("dsp.segmenter_ns", dsp[2]);
    let quiet_p50 = lt.quiet_deferred.pct(0.5);
    let dsp_per_sample = channels as f64 * (dsp[0] + dsp[1]) + dsp[2];
    values.set("engine.ingest_residual_ns", quiet_p50 - dsp_per_sample);
    values.set(
        "engine.window_copy_us",
        (lt.closing_deferred.mean() - quiet_p50).max(0.0) / 1e3,
    );
    let closed = windows.lens.len();
    values.set("engine.window_samples_p50", windows.lens.pct(0.5));
    values.set("engine.window_samples_max", windows.lens.max());
    values.set("engine.windows_truncated", windows.truncated as f64);
    values.set(
        "engine.windows_per_gesture",
        closed as f64 / windows.slots.max(1) as f64,
    );
    values.set("pipeline.prepare_us_p50", lt.prepare.pct(0.5) / 1e3);
    values.set("pipeline.prepare_us_p95", lt.prepare.pct(0.95) / 1e3);
    values.set(
        "pipeline.accept_ratio",
        windows.accepted as f64 / closed.max(1) as f64,
    );
    values.set("pipeline.finish_ns", lt.finish.mean());
    values.set("filter.features_us", lt.filter_features.mean() / 1e3);
    values.set("features.table1_us", lt.table1.mean() / 1e3);
    let probed = lt.probed.max(1) as f64;
    for (group, ns) in KIND_GROUPS.iter().zip(lt.kind_ns) {
        values.set(kind_metric(group), ns / probed);
    }
    values.set("features.n2_per_window", windows.n2 / closed.max(1) as f64);
    values.set("ml.predict_ns", lt.predict.mean());
}

fn kind_metric(group: &str) -> &'static str {
    match group {
        "approximate_entropy" => "features.kind_ns.approximate_entropy",
        "sample_entropy" => "features.kind_ns.sample_entropy",
        "cwt" => "features.kind_ns.cwt",
        "fft" => "features.kind_ns.fft",
        "ar" => "features.kind_ns.ar",
        "partial_autocorrelation" => "features.kind_ns.partial_autocorrelation",
        "augmented_dickey_fuller" => "features.kind_ns.augmented_dickey_fuller",
        "quantile" => "features.kind_ns.quantile",
        _ => "features.kind_ns.other",
    }
}

/// Window statistics of deferred-path passes (deterministic per seed).
#[derive(Debug, Default)]
pub struct WindowSummary {
    /// Per-channel length of every closed window.
    lens: Samples,
    /// Windows whose segment is longer than the window handed over.
    truncated: u64,
    /// Windows the filter accepted.
    accepted: usize,
    /// Scripted gestures of the scored streams.
    slots: usize,
    /// Σ n² over channels and windows.
    n2: f64,
}

/// Summarize the windows of `passes`, scored against `score`.
#[must_use]
pub fn summarize(passes: &[PassOutput], score: Score) -> WindowSummary {
    let mut out = WindowSummary {
        slots: score.slots,
        ..WindowSummary::default()
    };
    for pass in passes {
        for w in &pass.windows {
            out.lens.push(w.window_len as f64);
            out.truncated += u64::from(w.segment_len > w.window_len);
            out.n2 += w.n2 as f64;
        }
        out.accepted += pass.recognitions.iter().filter(|r| r.is_accepted()).count();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.6,
            trace,
            tiny: true,
        }
    }

    #[test]
    fn smoke_each_solo_workload() {
        for (kind, name) in [
            (Solo::Gestures, "solo-gestures"),
            (Solo::Quiet, "solo-quiet"),
            (Solo::Motion, "solo-motion"),
        ] {
            let mut report = Report::default();
            run(kind, &tiny_args(name, false), &mut report).expect("runs");
            assert!(
                report.mismatches.is_empty(),
                "{name}: {:?}",
                report.mismatches
            );
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let expected: Vec<&str> = crate::END_TO_END.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected, "{name}");
            assert!(report.attempted > 0);
        }
    }

    #[test]
    fn smoke_traced_solo_run_reconciles() {
        let mut report = Report::default();
        run(
            Solo::Gestures,
            &tiny_args("solo-gestures", true),
            &mut report,
        )
        .expect("runs");
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("reconcile solo-gestures")));
        assert_eq!(report.metrics.len(), crate::PER_LAYER.len());
    }

    #[test]
    fn digest_depends_on_every_recognition() {
        use airfinger_dsp::segment::Segment;
        let a = Recognition::Rejected {
            segment: Segment::new(1, 9),
        };
        let b = Recognition::Rejected {
            segment: Segment::new(1, 10),
        };
        assert_eq!(digest(&[&[a]]), digest(&[&[a]]));
        assert_ne!(digest(&[&[a]]), digest(&[&[b]]));
        assert_ne!(digest(&[&[a], &[]]), digest(&[&[], &[a]]));
    }
}
