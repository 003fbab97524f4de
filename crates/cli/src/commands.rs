//! CLI subcommand implementations.

use crate::args::Args;
use airfinger_core::config::AirFingerConfig;
use airfinger_core::pipeline::AirFinger;
use airfinger_ml::metrics::ConfusionMatrix;
use airfinger_synth::dataset::{
    generate_corpus, generate_nongesture_corpus, Corpus, CorpusSpec, Frontend,
};
use airfinger_synth::gesture::Gesture;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn fail(msg: impl std::fmt::Display) -> i32 {
    eprintln!("error: {msg}");
    2
}

/// Quick training pass shared by the soak-style commands (`monitor`,
/// `fleet`): a small gesture corpus plus non-gesture negatives so the
/// rejection stage is live while streaming.
fn train_quick(seed: u64, trees: usize) -> Result<AirFinger, String> {
    let spec = CorpusSpec {
        users: 2,
        sessions: 2,
        reps: 4,
        seed,
        ..Default::default()
    };
    let non_spec = CorpusSpec {
        reps: 12,
        ..spec.clone()
    };
    let corpus = generate_corpus(&spec);
    let non = generate_nongesture_corpus(&non_spec);
    eprintln!(
        "training on {} gesture + {} non-gesture samples ({trees} trees)…",
        corpus.len(),
        non.len()
    );
    let mut af = AirFinger::new(AirFingerConfig {
        forest_trees: trees,
        ..Default::default()
    });
    af.train_on_corpus(&corpus, Some(&non))
        .map_err(|e| e.to_string())?;
    Ok(af)
}

/// Write named text artifacts under `dir`, creating the directory (and
/// any missing parents) first. Shared by flight-recorder dumps and the
/// profiler exports so every CLI artifact lands under a caller-chosen
/// `--dump-dir`, never in the working directory.
fn write_artifacts(dir: &std::path::Path, files: &[(String, String)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Write flight-recorder dumps under `dir`.
fn write_dumps(
    dir: &std::path::Path,
    dumps: &[airfinger_obs::recorder::Dump],
) -> Result<(), String> {
    let files: Vec<(String, String)> = dumps
        .iter()
        .map(|d| (d.file_name(), d.json.clone()))
        .collect();
    write_artifacts(dir, &files)
}

/// When `--profile` is on and the command has a `--dump-dir`, export the
/// profiler's collapsed stacks (flamegraph format) and JSON breakdown
/// there; without a dump dir the data stays scrapeable via `/profile`.
fn write_profile_artifacts(dump_dir: Option<&str>) -> Result<(), String> {
    if !airfinger_obs::profile::enabled() {
        return Ok(());
    }
    let Some(dir) = dump_dir else {
        eprintln!("note: --profile without --dump-dir: collapsed stacks not written");
        return Ok(());
    };
    let snapshot = airfinger_obs::profile::snapshot();
    write_artifacts(
        std::path::Path::new(dir),
        &[
            ("profile_collapsed.txt".to_string(), snapshot.collapsed()),
            ("profile.json".to_string(), snapshot.to_json()),
        ],
    )
}

/// One-line push-latency rollup from the registry's `engine_push_seconds`
/// histogram (recorded in nanoseconds by every `StreamingEngine::push`).
/// Silent when recording is off or nothing was pushed.
fn print_push_latency() {
    let snapshot = airfinger_obs::global().snapshot();
    let Some(push) = snapshot
        .histogram("engine_push_seconds", &[])
        .filter(|h| h.count > 0)
    else {
        return;
    };
    println!(
        "push latency: p50 {} ns | p95 {} ns | p99 {} ns | max {} ns over {} pushes",
        push.quantile_raw(0.50),
        push.quantile_raw(0.95),
        push.quantile_raw(0.99),
        push.max,
        push.count
    );
}

/// `airfinger generate`
pub(crate) fn generate(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), String> {
        let spec = CorpusSpec {
            users: args.number("users", 3usize)?,
            sessions: args.number("sessions", 2usize)?,
            reps: args.number("reps", 5usize)?,
            seed: args.number("seed", 0x41F1_6E12u64)?,
            frontend: if args.flag("lockin") {
                Frontend::LockIn
            } else {
                Frontend::Dc
            },
            ..Default::default()
        };
        let out = args.required("out")?;
        let corpus = if args.flag("nongestures") {
            generate_nongesture_corpus(&spec)
        } else {
            generate_corpus(&spec)
        };
        eprintln!("generated {} samples", corpus.len());
        let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        corpus
            .write_json(BufWriter::new(file))
            .map_err(|e| format!("serialize corpus: {e}"))?;
        eprintln!("wrote {out}");
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

fn load_corpus(path: &str) -> Result<Corpus, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Corpus::read_json(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

/// `airfinger train`
pub(crate) fn train(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), String> {
        let corpus = load_corpus(args.required("corpus")?)?;
        let non = match args.optional("nongestures") {
            Some(p) => Some(load_corpus(p)?),
            None => None,
        };
        let config = AirFingerConfig {
            forest_trees: args.number("trees", 100usize)?,
            ..Default::default()
        };
        let mut af = AirFinger::new(config);
        eprintln!("training on {} samples…", corpus.len());
        af.train_on_corpus(&corpus, non.as_ref())
            .map_err(|e| e.to_string())?;
        let out = args.required("out")?;
        let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        serde_json::to_writer(BufWriter::new(file), &af)
            .map_err(|e| format!("serialize model: {e}"))?;
        eprintln!("wrote {out}");
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

fn load_model(path: &str) -> Result<AirFinger, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    serde_json::from_reader(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

/// `airfinger recognize`
pub(crate) fn recognize(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), String> {
        let af = load_model(args.required("model")?)?;
        let corpus = load_corpus(args.required("corpus")?)?;
        let limit = args.number("limit", usize::MAX)?;
        let mut matrix = ConfusionMatrix::new(8);
        let mut rejected = 0usize;
        let mut shown = 0usize;
        for s in corpus.samples().iter().take(limit) {
            let event = af.recognize_primary(&s.trace).map_err(|e| e.to_string())?;
            match (s.label.gesture(), event.gesture()) {
                (Some(truth), Some(pred)) => matrix.record(truth.index(), pred.index()),
                _ => rejected += 1,
            }
            if shown < 10 {
                println!("{:<14} -> {}", s.label.to_string(), event);
                shown += 1;
            }
        }
        if matrix.total() > 0 {
            println!(
                "\naccuracy {:.2}% over {} samples ({} rejected/non-gesture)",
                100.0 * matrix.accuracy(),
                matrix.total(),
                rejected
            );
            for g in Gesture::ALL {
                if let Some(r) = matrix.recall(g.index()) {
                    println!("  {:<14} recall {:>6.2}%", g.to_string(), 100.0 * r);
                }
            }
        } else {
            println!("\n{rejected} samples, none carried gesture labels");
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `airfinger info`
pub(crate) fn info(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), String> {
        let af = load_model(args.required("model")?)?;
        let top = args.number("top", 10usize)?;
        println!("trained: {}", af.is_trained());
        println!("interference filter: {}", af.has_filter());
        let c = af.config();
        println!(
            "config: {} Hz, SBC w={} samples, t_e={} samples, I_g={} ms, v'={} mm/s, {} trees",
            c.sample_rate_hz,
            c.sbc_window,
            c.segmenter.merge_gap,
            c.ig_ms,
            c.v_prime_mm_s,
            c.forest_trees
        );
        let importances = af.detect_recognizer().feature_importances();
        if !importances.is_empty() {
            let names = af.detect_recognizer().feature_names(3);
            println!("top {top} features:");
            for idx in airfinger_ml::forest::top_k_features(importances, top) {
                println!(
                    "  {:<34} {:.4}",
                    names.get(idx).cloned().unwrap_or_else(|| format!("f{idx}")),
                    importances[idx]
                );
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `airfinger monitor`
pub(crate) fn monitor(argv: &[String]) -> i32 {
    use airfinger_core::engine::StreamingEngine;
    use airfinger_obs::{EngineMonitor, MonitorConfig, RecorderConfig, SloRules, WindowConfig};
    use airfinger_synth::session::{generate_session, standard_fault_schedule, SessionSpec};

    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let run = || -> Result<i32, String> {
        let samples = args.number("soak", 2000usize)?;
        let horizon = args.number("window", 400usize)?;
        let seed = args.number("seed", 0x41F1_6E12u64)?;
        let trees = args.number("trees", 40usize)?;
        let fault = args.optional("fault").unwrap_or("none");
        let (spike, dropout) = match fault {
            "none" => (false, false),
            "spike" => (true, false),
            "dropout" => (false, true),
            "both" => (true, true),
            other => {
                return Err(format!(
                    "--fault expects none|spike|dropout|both, got `{other}`"
                ))
            }
        };
        let dump_dir = args.optional("dump-dir");
        let journal_capacity = args.number("journal", 512usize)?;
        let journal = (journal_capacity > 0).then(|| {
            let journal = airfinger_obs::events::global().clone();
            journal.set_capacity(journal_capacity);
            journal
        });
        let af = train_quick(seed, trees)?;

        let session = SessionSpec {
            samples,
            seed,
            faults: standard_fault_schedule(samples, spike, dropout),
            ..Default::default()
        };
        for f in &session.faults {
            eprintln!(
                "fault: {:?} over samples {}..{}",
                f.kind,
                f.start,
                f.start + f.duration
            );
        }
        let trace = generate_session(&session);
        let channels = trace.channel_count();
        let mut engine = StreamingEngine::new(af, channels).map_err(|e| format!("engine: {e}"))?;
        let mut monitor = EngineMonitor::new(MonitorConfig {
            window: WindowConfig { horizon },
            rules: SloRules::default(),
            recorder: RecorderConfig::default(),
            budget: airfinger_obs::BudgetConfig::default(),
        });
        if let Some(journal) = &journal {
            // Single-threaded driver: publish events as they happen so
            // `/events` is live mid-soak with `--serve-metrics`.
            monitor = monitor.with_journal(journal.clone());
        }
        engine.attach_monitor(monitor);

        eprintln!("streaming {samples} samples (window horizon {horizon})…");
        let mut sample = vec![0.0; channels];
        let mut printed_transitions = 0usize;
        let mut recognitions = 0usize;
        for i in 0..trace.len() {
            for (k, v) in sample.iter_mut().enumerate() {
                *v = trace.channel(k)[i];
            }
            if let Ok(Some(event)) = engine.push(&sample) {
                if event.gesture().is_some() {
                    recognitions += 1;
                }
            }
            let Some(m) = engine.monitor() else { continue };
            let Some(w) = m.last_window() else { continue };
            if w.start_sample + w.samples != i as u64 + 1 {
                continue; // this push did not close a window
            }
            println!(
                "[monitor] window {:>3} | samples {:>4} | segments {:>2} | accepted {:>2} | \
                 rejected {:>2} | p95 {:>7.3} ms | threshold {:>8.1} | {}",
                w.index,
                w.samples,
                w.segments,
                w.recognitions,
                w.rejections,
                w.p95_push_seconds * 1e3,
                w.mean_threshold,
                m.health()
            );
            for t in &m.transitions()[printed_transitions..] {
                println!(
                    "[monitor] health transition at window {}: {} -> {}",
                    t.window_index, t.from, t.to
                );
            }
            printed_transitions = m.transitions().len();
        }
        engine.flush().map_err(|e| format!("flush: {e}"))?;

        let Some(m) = engine.monitor_mut() else {
            return Err("monitor detached mid-run".into());
        };
        let health = m.health();
        let transitions = m.transitions().len();
        let windows = m.windows_closed();
        let events_emitted = m.events_emitted();
        let fast_alerts = m.budget().fast_alerts();
        let slow_alerts = m.budget().slow_alerts();
        let budget_remaining = m.budget().remaining();
        let dumps = m.take_dumps();
        println!(
            "\nsoak complete: {samples} samples, {windows} windows, {recognitions} recognitions, \
             {transitions} health transitions, {} dumps, final health {health}",
            dumps.len()
        );
        println!(
            "journal: {events_emitted} events emitted | error budget: {fast_alerts} fast / \
             {slow_alerts} slow burn alerts, {:.0}% budget remaining",
            budget_remaining * 100.0
        );
        print_push_latency();
        if let Some(dir) = dump_dir {
            write_dumps(std::path::Path::new(dir), &dumps)?;
            if let Some(journal) = &journal {
                write_artifacts(
                    std::path::Path::new(dir),
                    &[(
                        "events.json".to_string(),
                        journal.to_json_after(0, journal.capacity()),
                    )],
                )?;
            }
        } else if !dumps.is_empty() {
            eprintln!("note: {} dumps discarded (no --dump-dir)", dumps.len());
        }
        write_profile_artifacts(dump_dir)?;

        let reached_unhealthy = engine
            .monitor()
            .is_some_and(|m| m.transitions().iter().any(|t| t.to.level() == 2));
        let dump_count = engine.monitor().map_or(0, EngineMonitor::dump_count);
        if spike || dropout {
            // Fault injection must be *seen*: at least one transition, and
            // a breach that reached Unhealthy must leave exactly one dump.
            if transitions == 0 {
                eprintln!("FAIL: injected fault produced no health transition");
                return Ok(1);
            }
            if reached_unhealthy && dump_count != 1 {
                eprintln!("FAIL: expected exactly one dump, got {dump_count}");
                return Ok(1);
            }
            Ok(0)
        } else if health.level() == 0 && dump_count == 0 && fast_alerts == 0 && slow_alerts == 0 {
            Ok(0)
        } else {
            eprintln!(
                "FAIL: clean session ended {health} with {dump_count} dumps and \
                 {} burn alerts",
                fast_alerts + slow_alerts
            );
            Ok(1)
        }
    };
    match run() {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}

/// `airfinger fleet`
pub(crate) fn fleet(argv: &[String]) -> i32 {
    use airfinger_fleet::{drive, generate_population, Fleet, FleetConfig, PopulationSpec};

    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let run = || -> Result<i32, String> {
        let sessions = args.number("sessions", 8usize)?;
        let shards = args.number("shards", 4usize)?;
        let samples = args.number("samples", 2000usize)?;
        let queue = args.number("queue", 512usize)?;
        let chunk = args.number("chunk", 64usize)?;
        let stagger = args.number("stagger", 1usize)?;
        let fault_every = args.number("fault-every", 0usize)?;
        let seed = args.number("seed", 0x41F1_6E12u64)?;
        let trees = args.number("trees", 40usize)?;
        let dump_dir = args.optional("dump-dir");
        let journal_capacity = args.number("journal", 1024usize)?;
        let journal = (journal_capacity > 0).then(|| {
            let journal = airfinger_obs::events::global().clone();
            journal.set_capacity(journal_capacity);
            journal
        });

        let pipeline = std::sync::Arc::new(train_quick(seed, trees)?);
        let pop = PopulationSpec {
            sessions,
            samples_per_session: samples,
            users: 4,
            seed,
            fault_every,
            arrival_stagger_rounds: stagger,
            chunk: chunk.max(1),
        };
        eprintln!("generating {sessions} session traces ({samples} samples each)…");
        let traces = generate_population(&pop, airfinger_parallel::effective_threads(None));
        let channels = traces.first().map_or(0, |t| t.channel_count());
        let config = FleetConfig {
            shards,
            sessions_per_shard: sessions.div_ceil(shards.max(1)),
            queue_capacity: queue,
            quantum: 2 * chunk.max(1),
            monitor_horizon: samples / 5,
            threads: 0,
        };
        let mut fleet = Fleet::new(pipeline, channels, config).map_err(|e| e.to_string())?;
        if let Some(journal) = &journal {
            fleet.set_journal(journal.clone());
        }
        let ids: Vec<u64> = (0..sessions as u64).collect();
        eprintln!("driving {sessions} session(s) over {shards} shard(s)…");
        let driven = drive(&mut fleet, &ids, &traces, &pop).map_err(|e| e.to_string())?;
        fleet.flush_sessions();

        let rollup = fleet.rollup();
        println!(
            "fleet complete: {} admitted, {} shed, {} samples fed over {} rounds",
            fleet.admitted(),
            fleet.shed(),
            driven.fed,
            driven.rounds
        );
        println!(
            "batched {} gesture windows in {} forest passes",
            fleet.batched_windows(),
            fleet.batches()
        );
        for s in &rollup.shards {
            println!(
                "[shard {}] {} session(s), {} queued | {} healthy / {} degraded / {} unhealthy \
                 | worst {} | burn fast {:.2} slow {:.2}",
                s.shard,
                s.sessions,
                s.queued,
                s.healthy,
                s.degraded,
                s.unhealthy,
                s.worst,
                s.burn_fast,
                s.burn_slow
            );
        }
        println!(
            "fleet health {}: {} recognitions, {} errors, {} samples processed",
            rollup.worst, rollup.recognitions, rollup.errors, rollup.samples_processed
        );
        println!(
            "error budget: worst burn fast {:.2} / slow {:.2}, min remaining {:.0}%",
            rollup.burn_fast_worst,
            rollup.burn_slow_worst,
            rollup.budget_remaining_min * 100.0
        );
        print_push_latency();
        if let Some(journal) = &journal {
            println!(
                "journal: {} events published ({} retained, {} evicted)",
                journal.head_seq(),
                journal.len(),
                journal.dropped()
            );
        }
        for e in fleet.shed_log() {
            println!("shed: session {} ({})", e.session, e.reason.tag());
        }

        // Each session keeps its own flight recorder; dump sequence numbers
        // restart per session, so every session gets its own subdirectory.
        let dumps = fleet.take_dumps();
        if let Some(dir) = dump_dir {
            for (id, session_dumps) in &dumps {
                write_dumps(
                    &std::path::Path::new(dir).join(format!("session_{id}")),
                    session_dumps,
                )?;
            }
        } else if !dumps.is_empty() {
            let n: usize = dumps.iter().map(|(_, d)| d.len()).sum();
            eprintln!("note: {n} dumps discarded (no --dump-dir)");
        }
        if let (Some(dir), Some(journal)) = (dump_dir, &journal) {
            write_artifacts(
                std::path::Path::new(dir),
                &[(
                    "events.json".to_string(),
                    journal.to_json_after(0, journal.capacity()),
                )],
            )?;
        }
        write_profile_artifacts(dump_dir)?;

        // Every requested session must be accounted for: admitted, or
        // refused at admission, or evicted under backpressure.
        let accounted = fleet.admitted() as usize + driven.shed_on_admission.len();
        if accounted != sessions {
            eprintln!("FAIL: {sessions} sessions requested, {accounted} accounted for");
            return Ok(1);
        }
        Ok(0)
    };
    match run() {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}

/// `airfinger adapt`
pub(crate) fn adapt(argv: &[String]) -> i32 {
    use airfinger_core::adapt::UserAdapter;
    use airfinger_core::train::all_gesture_feature_set;

    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), String> {
        let mut af = load_model(args.required("model")?)?;
        if !af.is_trained() {
            return Err("model is untrained; run `airfinger train` first".into());
        }
        let base = load_corpus(args.required("corpus")?)?;
        let enroll = load_corpus(args.required("enroll")?)?;
        let mix = args.number("mix", airfinger_core::adapt::DEFAULT_MIX)?;
        let per_gesture = args.number("trials", usize::MAX)?;

        eprintln!(
            "extracting features of the {}-sample base corpus…",
            base.len()
        );
        let mut adapter =
            UserAdapter::new(all_gesture_feature_set(&base, af.config())).with_mix(mix);
        let mut taken = [0usize; 8];
        for s in enroll.samples() {
            let Some(g) = s.label.gesture() else { continue };
            if taken[g.index()] >= per_gesture {
                continue;
            }
            taken[g.index()] += 1;
            adapter.enroll_trace(&af, &s.trace, g);
        }
        if adapter.enrolled_count() == 0 {
            return Err("enrollment corpus holds no gesture samples".into());
        }
        eprintln!(
            "enrolled {} trials (each counting {}× in retraining)…",
            adapter.enrolled_count(),
            adapter.boost()
        );
        adapter.apply(&mut af).map_err(|e| e.to_string())?;
        let out = args.required("out")?;
        let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        serde_json::to_writer(BufWriter::new(file), &af)
            .map_err(|e| format!("serialize model: {e}"))?;
        eprintln!("wrote {out}");
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}
