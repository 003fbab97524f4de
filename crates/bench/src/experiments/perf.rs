//! Perf: the hot-path micro-benchmark feeding the ratcheting regression
//! gate (`repro diff --perf-tolerance`).
//!
//! Not a paper figure — this is the perf observatory's measurement
//! harness (DESIGN.md §15): a single-threaded continuous session streams
//! through a bare [`StreamingEngine`] **K times** (median-of-K repeats)
//! with each push individually clocked into a *local* log2-bucketed
//! [`Histogram`], so the numbers cannot be contaminated by experiments
//! running concurrently on other worker threads.
//!
//! The report splits into the two metric classes declared in DESIGN.md
//! §9:
//!
//! - **deterministic** — pushes, recognitions, rejections, repeats, and
//!   allocation events/bytes per push: pure functions of `(scale, seed)`
//!   that `repro diff` gates *exactly*, byte-identical across
//!   `--threads` settings, runs, and machines;
//! - **timing** — single-thread throughput (median of per-repeat
//!   samples/s), push p50/p95/p99/max nanoseconds (median of per-repeat
//!   histogram quantiles), and per-stage mean nanoseconds per sample:
//!   wall-clock observations that the gate holds to a relative
//!   tolerance (`--perf-tolerance`, default 10%).
//!
//! The unmeasured warm-up pass runs under the span profiler, scoped to
//! its own root span, and reports exact per-stage frame counts (how many
//! windows reached each per-window stage, and one push frame per sample)
//! — deterministic, and read as a delta so a second run in the same
//! process reports the same values.

use crate::context::Context;
use crate::error::BenchError;
use crate::report::Report;
use airfinger_core::config::AirFingerConfig;
use airfinger_core::engine::StreamingEngine;
use airfinger_core::pipeline::AirFinger;
use airfinger_obs::registry::MetricId;
use airfinger_obs::{alloc, profile};
use airfinger_obs::{Histogram, HistogramSnapshot};
use airfinger_synth::dataset::{generate_corpus, generate_nongesture_corpus, CorpusSpec};
use airfinger_synth::session::{generate_session, SessionSpec};
use std::time::Instant;

/// The per-window pipeline stages whose global `pipeline_stage_seconds`
/// histograms feed the per-stage attribution. The streaming
/// engine computes SBC/threshold/segmentation incrementally without
/// per-sample spans, so only the per-window stages appear here.
const STAGES: [&str; 5] = ["filter", "features", "rf_predict", "zebra", "distinguish"];

/// Root span of the profiled warm-up pass; the frame counts come from
/// the profiler subtree under it.
const PROFILE_ROOT: &str = "profile_stream_seconds";

/// Median of an unsorted slice (takes a copy; slices here are length K).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sorted.len() / 2]
}

/// Snapshot a local push histogram under a synthetic identity so the
/// quantile walk can run on it.
fn local_snapshot(hist: &Histogram) -> HistogramSnapshot {
    hist.snapshot(MetricId::new("perf_local_push_seconds", &[]), String::new())
}

/// Run the experiment.
///
/// # Errors
///
/// Propagates training and engine failures; fails when the deterministic
/// work counters violate their structural contract (push-count mismatch
/// or a session that classifies no windows), or, while recording is on,
/// when the profiled warm-up lacks a push frame per sample or feature
/// and forest frames.
pub fn run(ctx: &Context) -> Result<Report, BenchError> {
    let mut report = Report::new(
        "perf",
        "hot-path latency attribution and perf regression gate feed",
    );
    let (samples, repeats) = match ctx.scale {
        crate::context::Scale::Quick => (4_000usize, 3usize),
        crate::context::Scale::Standard => (10_000, 5),
        crate::context::Scale::Full => (20_000, 5),
    };

    // Compact training recipe (distinct seed stream from every other
    // experiment) with the non-gesture filter live, so rejected windows
    // exercise the same stages the fleet path pays for.
    let spec = CorpusSpec {
        users: 2,
        sessions: 2,
        reps: ctx.scale.scaled(10),
        seed: ctx.seed + 101,
        ..Default::default()
    };
    let non_spec = CorpusSpec {
        reps: ctx.scale.scaled(30),
        ..spec.clone()
    };
    let corpus = generate_corpus(&spec);
    let non = generate_nongesture_corpus(&non_spec);
    let mut af = AirFinger::new(AirFingerConfig {
        forest_trees: ctx.config.forest_trees.min(40),
        ..ctx.config
    });
    af.train_on_corpus(&corpus, Some(&non))?;

    let session = SessionSpec {
        samples,
        seed: ctx.seed + 101,
        ..Default::default()
    };
    let trace = generate_session(&session);
    let channels = trace.channel_count();
    let mut engine = StreamingEngine::new(af, channels)?;

    // Warm-up pass (not measured): populates every lazily-created
    // registry entry, latency-table slot, and internal scratch buffer
    // exactly once, so the measured repeats observe a steady-state
    // allocator regardless of which experiments already ran on this
    // worker thread — that is what keeps allocs-per-push exact across
    // `--threads 1` vs `--threads N` runs. The profiler is on for this
    // pass only; its frame counts are read as a delta under the pass's
    // root span, so spans profiled concurrently elsewhere and earlier
    // runs in the same process cannot leak into them.
    let profiling_was_enabled = profile::enabled();
    profile::set_enabled(true);
    let profile_before = profile::snapshot().under(PROFILE_ROOT);
    let mut sample = vec![0.0; channels];
    let span = airfinger_obs::span!("profile_stream_seconds");
    for i in 0..trace.len() {
        for (k, v) in sample.iter_mut().enumerate() {
            *v = trace.channel(k)[i];
        }
        let _ = engine.push(&sample)?;
    }
    drop(span);
    profile::set_enabled(profiling_was_enabled);
    let frames = profile::snapshot()
        .under(PROFILE_ROOT)
        .diff(&profile_before);

    // Per-stage attribution reads the nanosecond sums of the *global*
    // `pipeline_stage_seconds` histograms by delta across the whole
    // repeat loop. Under `--threads N` other experiments stream
    // concurrently into the same histograms, so these are timing-class
    // observations only; the deterministic counters below never touch
    // shared state.
    let stage_hists: Vec<Histogram> = STAGES
        .iter()
        .map(|s| airfinger_obs::histogram_with("pipeline_stage_seconds", &[("stage", s)]))
        .collect();
    let stage_sums_before: Vec<u64> = stage_hists.iter().map(Histogram::sum).collect();

    // One local histogram, reset per repeat: every push is clocked
    // individually, independent of the global `engine_push_seconds`
    // histogram that concurrent experiments also record into.
    let push_hist = Histogram::new();
    let mut throughputs = Vec::with_capacity(repeats);
    let mut p50s = Vec::with_capacity(repeats);
    let mut p95s = Vec::with_capacity(repeats);
    let mut p99s = Vec::with_capacity(repeats);
    let mut max_ns = 0u64;
    let mut recognitions = 0usize;
    let mut rejections = 0usize;
    let mut pushes = 0usize;
    let mut alloc_count = 0u64;
    let mut alloc_bytes = 0u64;

    let span = airfinger_obs::span!("perf_stream_seconds");
    for _rep in 0..repeats {
        push_hist.reset();
        let alloc_before = alloc::thread_stats();
        // This experiment *measures* the wall clock; its outputs are
        // timing-class metrics the gate holds to a tolerance, never
        // exact-compared.
        // lint: wall-clock — measured quantity
        let t0 = Instant::now();
        for i in 0..trace.len() {
            for (k, v) in sample.iter_mut().enumerate() {
                *v = trace.channel(k)[i];
            }
            let push_t0 = Instant::now(); // lint: wall-clock — measured quantity
            let event = engine.push(&sample)?;
            push_hist.record(u64::try_from(push_t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            pushes += 1;
            if let Some(event) = event {
                if event.gesture().is_some() {
                    recognitions += 1;
                } else {
                    rejections += 1;
                }
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let alloc_delta = alloc::thread_stats().since(alloc_before);
        alloc_count += alloc_delta.count;
        alloc_bytes += alloc_delta.bytes;
        if elapsed > 0.0 {
            throughputs.push(samples as f64 / elapsed);
        }
        let snap = local_snapshot(&push_hist);
        p50s.push(snap.quantile_raw(0.50) as f64);
        p95s.push(snap.quantile_raw(0.95) as f64);
        p99s.push(snap.quantile_raw(0.99) as f64);
        max_ns = max_ns.max(snap.max);
    }
    drop(span);
    engine.flush()?;
    alloc::publish();

    let stage_sums_after: Vec<u64> = stage_hists.iter().map(Histogram::sum).collect();

    // Deterministic work counters — exact-gated by `repro diff`.
    let recording = airfinger_obs::recording();
    airfinger_obs::counter!("perf_pushes_total").add(pushes as u64);
    airfinger_obs::counter!("perf_recognitions_total").add(recognitions as u64);
    airfinger_obs::counter!("perf_rejections_total").add(rejections as u64);
    airfinger_obs::counter!("perf_repeats_total").add(repeats as u64);
    // Allocation pressure is deterministic too (same code, same input,
    // single thread): the zero-alloc ratchet rides the exact gate.
    let allocs_per_push = alloc_count as f64 / pushes.max(1) as f64;
    let bytes_per_push = alloc_bytes as f64 / pushes.max(1) as f64;
    airfinger_obs::gauge!("perf_allocs_per_push").set(allocs_per_push);
    airfinger_obs::gauge!("perf_alloc_bytes_per_push").set(bytes_per_push);
    airfinger_obs::gauge!("perf_alloc_counting").set(f64::from(u8::from(alloc::counting())));

    // Timing metrics — tolerance-gated (suffix classes, DESIGN.md §9).
    let samples_per_s = median(&throughputs);
    let (p50, p95, p99) = (median(&p50s), median(&p95s), median(&p99s));
    airfinger_obs::gauge!("perf_samples_per_s").set(samples_per_s);
    airfinger_obs::gauge!("perf_push_p50_ns").set(p50);
    airfinger_obs::gauge!("perf_push_p95_ns").set(p95);
    airfinger_obs::gauge!("perf_push_p99_ns").set(p99);
    airfinger_obs::gauge!("perf_push_max_ns").set(max_ns as f64);

    report.line(format!(
        "{samples} samples x {repeats} repeats single-threaded \
         ({pushes} pushes, {recognitions} recognitions, {rejections} rejections)"
    ));
    report.line(format!(
        "throughput (median of {repeats}): {samples_per_s:.0} samples/s"
    ));
    report.line(format!(
        "push latency: p50 {p50:.0} ns, p95 {p95:.0} ns, p99 {p99:.0} ns, max {max_ns} ns \
         (log2 bucket upper edges, capped at the max)"
    ));
    if alloc::counting() {
        report.line(format!(
            "allocations: {allocs_per_push:.4} events / {bytes_per_push:.1} bytes per push \
             (loop totals {alloc_count} / {alloc_bytes})"
        ));
    } else {
        report.line("allocations: counting allocator not installed (0 reported)".to_string());
    }
    let push_frames = frames
        .path(&format!("{PROFILE_ROOT};engine_push_seconds"))
        .map_or(0, |d| d.count);
    report.line(format!(
        "profiled warm-up: {push_frames} push frames; per stage, frames in the warm-up \
         and mean cost over the measured repeats:"
    ));
    let mut stage_frames = [0i64; STAGES.len()];
    for (i, stage) in STAGES.iter().enumerate() {
        let leaf = format!("pipeline_stage_seconds{{stage={stage}}}");
        stage_frames[i] = frames
            .paths
            .iter()
            .filter(|(path, _)| path.rsplit(';').next() == Some(leaf.as_str()))
            .map(|(_, d)| d.count)
            .sum();
        let d_ns = stage_sums_after[i].saturating_sub(stage_sums_before[i]);
        let mean_ns = d_ns as f64 / pushes.max(1) as f64;
        airfinger_obs::gauge_with("perf_stage_mean_ns", &[("stage", stage)]).set(mean_ns);
        report.line(format!(
            "  stage {stage:<12} {:>6} frames {mean_ns:>10.1} ns/sample amortized",
            stage_frames[i]
        ));
        report.metric(&format!("stage_{stage}_frames"), stage_frames[i] as f64);
        report.metric(&format!("stage_{stage}_mean_ns"), mean_ns);
    }

    report.metric("samples", samples as f64);
    report.metric("repeats", repeats as f64);
    report.metric("pushes", pushes as f64);
    report.metric("push_frames", push_frames as f64);
    report.metric("recognitions", recognitions as f64);
    report.metric("rejections", rejections as f64);
    report.metric("allocs_per_push", allocs_per_push);
    report.metric("alloc_bytes_per_push", bytes_per_push);
    report.metric("samples_per_s", samples_per_s);
    report.metric("push_p50_ns", p50);
    report.metric("push_p95_ns", p95);
    report.metric("push_p99_ns", p99);
    report.metric("push_max_ns", max_ns as f64);

    // Structural contract for the deterministic class.
    if pushes != samples * repeats {
        return Err(BenchError::Contract(format!(
            "expected {} pushes ({samples} samples x {repeats} repeats), got {pushes}",
            samples * repeats
        )));
    }
    if recognitions + rejections == 0 {
        return Err(BenchError::Contract(
            "session produced no classified windows; perf attribution is empty".into(),
        ));
    }
    if recording && push_hist.count() != samples as u64 {
        return Err(BenchError::Contract(format!(
            "local push histogram holds {} records for the last repeat, expected {samples}",
            push_hist.count()
        )));
    }
    // The profiled warm-up must hold one push frame per sample, and the
    // windows it classified must have reached the feature and forest
    // stages; otherwise the frame counts describe no real stream.
    if recording && push_frames != samples as i64 {
        return Err(BenchError::Contract(format!(
            "expected {samples} push frames under `{PROFILE_ROOT}`, got {push_frames}"
        )));
    }
    for (stage, frames) in STAGES.iter().zip(stage_frames) {
        if recording && matches!(*stage, "features" | "rf_predict") && frames <= 0 {
            return Err(BenchError::Contract(format!(
                "stage `{stage}` has no frames in the profiled warm-up"
            )));
        }
    }
    Ok(report)
}
