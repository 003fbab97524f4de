//! Fleet: N concurrent synthetic sessions through the sharded
//! multi-session serving plane with batched RF inference.
//!
//! Not a paper figure — this is the serving experiment backing
//! `crates/fleet`: a population of distinct synthetic users (staggered
//! arrivals, the standard fault schedule on a subset) streams through a
//! sharded [`Fleet`], and the run must (a) stay bit-identical to N solo
//! [`StreamingEngine`] sessions, (b) admit every session with nothing
//! shed, and (c) exercise the batched classification path. Reported
//! figures: sessions per core, aggregate push p99, batched-vs-unbatched
//! speedup, and drain fairness under a deliberately hot shard.

use crate::context::{Context, Scale};
use crate::error::BenchError;
use crate::report::Report;
use airfinger_core::config::AirFingerConfig;
use airfinger_core::engine::StreamingEngine;
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::AirFinger;
use airfinger_fleet::{drive, generate_population, Fleet, FleetConfig, PopulationSpec};
use airfinger_obs::monitor::with_horizon;
use airfinger_synth::dataset::{generate_corpus, generate_nongesture_corpus, CorpusSpec};
use std::sync::Arc;

/// Shards in the main run; also the hot-shard stride in the fairness run.
const SHARDS: usize = 8;

/// Samples fed per session per round by the population driver. The drain
/// quantum is twice this, so queues stay bounded without shedding.
const CHUNK: usize = 50;

/// Run the experiment.
///
/// # Errors
///
/// Propagates training, engine and fleet failures; fails when the fleet
/// violates the serving contract (shed sessions, missing batches, or any
/// divergence from the solo-session baseline).
pub fn run(ctx: &Context) -> Result<Report, BenchError> {
    let mut report = Report::new(
        "fleet",
        "sharded multi-session serving with batched RF inference",
    );
    let (sessions, samples) = match ctx.scale {
        Scale::Quick => (64, 600),
        Scale::Standard => (96, 1000),
        Scale::Full => (128, 1500),
    };

    // A compact pipeline with the non-gesture filter live (soak-style), so
    // the batched path also exercises rejections.
    let spec = CorpusSpec {
        users: 2,
        sessions: 2,
        reps: ctx.scale.scaled(10),
        seed: ctx.seed + 177,
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
    let pipeline = Arc::new(af);

    // The scripted population: distinct user profiles cycled over session
    // ordinals, staggered arrivals, faults on every 16th session.
    let pop = PopulationSpec {
        sessions,
        samples_per_session: samples,
        users: ctx.scale.users(),
        seed: ctx.seed + 177,
        fault_every: 16,
        arrival_stagger_rounds: 1,
        chunk: CHUNK,
    };
    let gen_threads = airfinger_parallel::effective_threads(match ctx.config.n_threads {
        0 => None,
        n => Some(n),
    });
    let traces = generate_population(&pop, gen_threads);
    let channels = traces
        .first()
        .ok_or(BenchError::EmptyResult("empty population"))?
        .channel_count();
    let ids: Vec<u64> = (0..sessions as u64).collect();
    let horizon = samples / 5;

    // Unbatched sequential baseline: N solo engines, one after another,
    // same shared pipeline, same per-session monitor.
    let mut baseline: Vec<Vec<Recognition>> = Vec::with_capacity(sessions);
    let baseline_span = airfinger_obs::span!("fleet_baseline_seconds");
    for trace in &traces {
        let mut engine = StreamingEngine::with_shared(Arc::clone(&pipeline), channels)?;
        engine.attach_monitor(with_horizon(horizon));
        let mut log = Vec::new();
        let mut sample = vec![0.0; channels];
        for i in 0..trace.len() {
            for (k, v) in sample.iter_mut().enumerate() {
                *v = trace.channel(k)[i];
            }
            // Error-skip semantics match the fleet, which counts a failed
            // recognition against the session and keeps streaming.
            if let Ok(Some(event)) = engine.push(&sample) {
                log.push(event);
            }
        }
        if let Ok(Some(event)) = engine.flush() {
            log.push(event);
        }
        baseline.push(log);
    }
    let baseline_s = baseline_span.elapsed_s();
    drop(baseline_span);

    // The fleet run proper: sharded, batched, monitored.
    let config = FleetConfig {
        shards: SHARDS,
        sessions_per_shard: sessions.div_ceil(SHARDS),
        queue_capacity: 8 * CHUNK,
        quantum: 2 * CHUNK,
        monitor_horizon: horizon,
        threads: ctx.config.n_threads,
    };
    let mut fleet =
        Fleet::new(Arc::clone(&pipeline), channels, config).map_err(BenchError::Fleet)?;
    let drive_span = airfinger_obs::span!("fleet_drive_seconds");
    let driven = drive(&mut fleet, &ids, &traces, &pop).map_err(BenchError::Fleet)?;
    fleet.flush_sessions();
    let fleet_s = drive_span.elapsed_s();
    drop(drive_span);

    // Serving contract: everyone admitted, nobody shed, batching engaged.
    if fleet.admitted() != sessions as u64 || fleet.shed() != 0 {
        return Err(BenchError::Contract(format!(
            "expected {sessions} admitted / 0 shed, got {} / {}",
            fleet.admitted(),
            fleet.shed()
        )));
    }
    if fleet.batches() == 0 {
        return Err(BenchError::Contract(
            "no batched classification pass ran".into(),
        ));
    }
    // Identity contract: every fleet session's event log is bit-identical
    // to its solo baseline.
    for (id, expected) in ids.iter().zip(&baseline) {
        let got = fleet.session_recognitions(*id).unwrap_or(&[]);
        if got != expected.as_slice() {
            return Err(BenchError::Contract(format!(
                "session {id} diverged from its solo baseline \
                 ({} vs {} events)",
                got.len(),
                expected.len()
            )));
        }
    }

    let rollup = fleet.rollup();
    let (healthy, degraded, unhealthy) = rollup.health_counts();
    let round_threads = airfinger_parallel::effective_threads(match ctx.config.n_threads {
        0 => None,
        n => Some(n),
    })
    .min(SHARDS);
    let speedup = if fleet_s > 0.0 {
        baseline_s / fleet_s
    } else {
        0.0
    };

    // Fairness under a hot shard: 16 sessions all hashed onto shard 0,
    // fully queued up front, drained for a fixed number of rounds — the
    // per-session quantum must keep drain progress even.
    let hot = FleetConfig {
        shards: SHARDS,
        sessions_per_shard: 16,
        queue_capacity: samples,
        quantum: 32,
        monitor_horizon: 0,
        threads: ctx.config.n_threads,
    };
    let mut hot_fleet =
        Fleet::new(Arc::clone(&pipeline), channels, hot).map_err(BenchError::Fleet)?;
    let hot_ids: Vec<u64> = (0..16).map(|i| i * SHARDS as u64).collect();
    let mut sample = vec![0.0; channels];
    for (id, trace) in hot_ids.iter().zip(&traces) {
        hot_fleet.admit(*id).map_err(BenchError::Fleet)?;
        for i in 0..trace.len() {
            for (k, v) in sample.iter_mut().enumerate() {
                *v = trace.channel(k)[i];
            }
            hot_fleet.enqueue(*id, &sample).map_err(BenchError::Fleet)?;
        }
    }
    for _ in 0..8 {
        let _ = hot_fleet.run_round().map_err(BenchError::Fleet)?;
    }
    let drained: Vec<u64> = hot_ids
        .iter()
        .filter_map(|id| hot_fleet.session_samples_processed(*id))
        .collect();
    let fairness = match (drained.iter().min(), drained.iter().max()) {
        (Some(&min), Some(&max)) if max > 0 => min as f64 / max as f64,
        _ => 0.0,
    };
    if fairness < 0.5 {
        return Err(BenchError::Contract(format!(
            "hot-shard drain unfair: min/max processed ratio {fairness:.2}"
        )));
    }

    report.line(format!(
        "{sessions} sessions x {samples} samples over {SHARDS} shards \
         ({} per shard), {} rounds, {} fed",
        config.sessions_per_shard, driven.rounds, driven.fed
    ));
    report.line(format!(
        "batched {} windows in {} passes; all sessions bit-identical to solo baseline",
        fleet.batched_windows(),
        fleet.batches()
    ));
    report.line(format!(
        "health rollup: {healthy} healthy / {degraded} degraded / {unhealthy} unhealthy \
         (worst {})",
        rollup.worst
    ));
    if fleet_s > 0.0 && baseline_s > 0.0 {
        report.line(format!(
            "fleet {fleet_s:.2}s vs sequential baseline {baseline_s:.2}s \
             ({speedup:.2}x, {:.1} sessions/core on {round_threads} worker(s))",
            sessions as f64 / round_threads as f64
        ));
    }
    report.line(format!(
        "hot shard: 16 sessions on one shard, min/max drain ratio {fairness:.2}"
    ));

    report.metric("sessions", sessions as f64);
    report.metric("samples_per_session", samples as f64);
    report.metric("rounds", driven.rounds as f64);
    report.metric("batches", fleet.batches() as f64);
    report.metric("batched_windows", fleet.batched_windows() as f64);
    report.metric("sessions_admitted", fleet.admitted() as f64);
    report.metric("sessions_shed", fleet.shed() as f64);
    report.metric("sessions_per_core", sessions as f64 / round_threads as f64);
    report.metric("batched_speedup", speedup);
    report.metric("hot_shard_fairness", fairness);
    report.metric("health_degraded", degraded as f64);
    report.metric("health_unhealthy", unhealthy as f64);

    // Aggregate push p99 across every session of the main run, from the
    // fleet's own latency histogram.
    if airfinger_obs::recording() {
        let snapshot = airfinger_obs::global().snapshot();
        let push = snapshot
            .histogram("fleet_push_seconds", &[])
            .ok_or(BenchError::EmptyResult("fleet_push_seconds histogram"))?;
        let p99_us = push.quantile(0.99).unwrap_or(0.0) * 1e6;
        report.line(format!(
            "aggregate push p99 {p99_us:.2} µs over {} pushes",
            push.count
        ));
        report.metric("push_p99_us", p99_us);
        if !p99_us.is_finite() || p99_us <= 0.0 {
            return Err(BenchError::Contract(
                "aggregate push p99 must be positive".into(),
            ));
        }
    }
    Ok(report)
}
