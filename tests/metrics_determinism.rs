//! Instrumentation must be an observer, never a participant:
//!
//! 1. every **counter** in the global registry is identical no matter how
//!    many worker threads the pipeline uses (timing histograms are
//!    scheduling observations and are deliberately excluded), and
//! 2. recognition output is bit-identical with recording enabled and
//!    disabled.
//!
//! The test functions share the process-wide metrics registry, so they
//! serialize on a local mutex and reset the registry around each run.

use airfinger_core::config::AirFingerConfig;
use airfinger_core::engine::StreamingEngine;
use airfinger_core::pipeline::AirFinger;
use airfinger_synth::dataset::{generate_corpus, Corpus};
use airfinger_tests::small_spec;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn registry_guard() -> MutexGuard<'static, ()> {
    REGISTRY_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn corpus() -> Corpus {
    generate_corpus(&small_spec(7))
}

fn config(n_threads: usize) -> AirFingerConfig {
    AirFingerConfig {
        forest_trees: 15,
        n_threads,
        ..Default::default()
    }
}

/// Train on `n_threads` workers, recognize every sample in batch, then
/// stream one sample through a *monitored* engine followed by a flat tail
/// long enough to stall the segmenter and walk the health ladder; return
/// the registry's counters plus the monitor's transition log.
fn counters_at(n_threads: usize, corpus: &Corpus) -> (BTreeMap<String, u64>, Vec<String>) {
    airfinger_obs::global().reset();
    let mut af = AirFinger::new(config(n_threads));
    af.train_on_corpus(corpus, None).expect("training succeeds");
    for s in corpus.samples() {
        af.recognize_primary(&s.trace)
            .expect("recognition succeeds");
    }
    let mut engine = StreamingEngine::new(af, 3).expect("engine builds");
    engine.attach_monitor(airfinger_obs::monitor::with_horizon(100));
    let trace = &corpus.samples()[0].trace;
    let mut last = vec![0.0; 3];
    for i in 0..trace.len() {
        let sample: Vec<f64> = (0..3).map(|k| trace.channel(k)[i]).collect();
        engine.push(&sample).expect("push succeeds");
        last = sample;
    }
    // Flat tail: five zero-segment windows walk degraded (2 consecutive
    // stalls) into unhealthy (4), exercising the transition counters and
    // the flight recorder deterministically.
    for _ in 0..500 {
        engine.push(&last).expect("push succeeds");
    }
    engine.flush().expect("flush succeeds");
    let transitions = engine
        .monitor()
        .map(|m| {
            m.transitions()
                .iter()
                .map(|t| format!("{}->{}@{}", t.from.tag(), t.to.tag(), t.window_index))
                .collect()
        })
        .unwrap_or_default();
    (
        airfinger_obs::global().snapshot().counter_map(),
        transitions,
    )
}

#[test]
fn counters_are_identical_across_thread_counts() {
    let _guard = registry_guard();
    let corpus = corpus();
    let (baseline, base_transitions) = counters_at(1, &corpus);
    // `recording()` reflects the obs crate's compile-time feature; with it
    // off the registry stays empty and the invariance check is vacuous.
    if airfinger_obs::recording() {
        assert!(
            baseline.contains_key("engine_samples_total"),
            "expected engine counters in {baseline:?}"
        );
        assert!(
            baseline
                .keys()
                .any(|k| k.starts_with("parallel_jobs_total")),
            "expected dispatch counters in {baseline:?}"
        );
        assert!(
            baseline.contains_key("ml_trees_trained_total"),
            "expected forest counters in {baseline:?}"
        );
        // The quality counters added for the regression gate must be part
        // of the same invariant: segmentation and family decisions are
        // pipeline outcomes, not scheduling artifacts.
        assert!(
            baseline.contains_key("pipeline_segments_found_total"),
            "expected segmentation counters in {baseline:?}"
        );
        assert!(
            baseline.contains_key("pipeline_segments_merged_total"),
            "expected merge counters in {baseline:?}"
        );
        assert!(
            baseline
                .keys()
                .any(|k| k.starts_with("pipeline_recognitions_total")),
            "expected recognition-kind counters in {baseline:?}"
        );
        // The continuous-monitoring counters are sample-count functions of
        // the input stream, so they join the same invariant.
        assert!(
            baseline.contains_key("engine_windows_closed_total"),
            "expected window counters in {baseline:?}"
        );
        assert!(
            baseline
                .keys()
                .any(|k| k.starts_with("health_transitions_total")),
            "expected health-transition counters in {baseline:?}"
        );
        assert!(
            baseline.contains_key("recorder_dumps_total"),
            "expected flight-recorder counters in {baseline:?}"
        );
        assert!(
            !base_transitions.is_empty(),
            "flat tail should stall the health model"
        );
    }
    for threads in [2, 3, 4, 8] {
        let (got, got_transitions) = counters_at(threads, &corpus);
        assert_eq!(got, baseline, "counters diverged at {threads} threads");
        assert_eq!(
            got_transitions, base_transitions,
            "health transitions diverged at {threads} threads"
        );
    }
}

/// Exporters must be deterministic *functions of logical state*: two
/// registries holding the same metrics — registered in different orders,
/// from different call sites — must export byte-identical JSON and
/// Prometheus documents. This is what makes scrape diffs and snapshot
/// comparisons meaningful.
#[test]
fn export_bytes_are_identical_across_insertion_orders() {
    let populate = |names: &[&str]| {
        let r = airfinger_obs::Registry::new();
        for name in names {
            match *name {
                "a_total" => r.counter("a_total", &[("kind", "x")], "a").add(7),
                "b_total" => r.counter("b_total", &[], "b").add(2),
                "depth" => r.gauge("depth", &[], "queue depth").set(2.25),
                "lat_seconds" => {
                    let h = r.histogram("lat_seconds", &[], "latency");
                    h.record(50_000_000);
                    h.record(750_000_000);
                }
                other => panic!("unknown fixture metric {other}"),
            }
        }
        r
    };
    let forward = populate(&["a_total", "b_total", "depth", "lat_seconds"]);
    let reversed = populate(&["lat_seconds", "depth", "b_total", "a_total"]);
    assert_eq!(
        forward.snapshot().to_json(),
        reversed.snapshot().to_json(),
        "JSON export depends on insertion order"
    );
    assert_eq!(
        forward.snapshot().to_prometheus(),
        reversed.snapshot().to_prometheus(),
        "Prometheus export depends on insertion order"
    );
    // And a snapshot taken twice renders the same bytes both times.
    assert_eq!(forward.snapshot().to_json(), forward.snapshot().to_json());
    assert_eq!(
        forward.snapshot().to_prometheus(),
        forward.snapshot().to_prometheus()
    );
}

/// Stream the first corpus trace through a freshly-trained engine with
/// the cost profiler enabled; return every scoped call path with its
/// deterministic coordinates (frame count and allocation pressure — the
/// nanosecond fields are scheduling observations and excluded).
fn profile_paths_at(n_threads: usize, corpus: &Corpus) -> BTreeMap<String, (u64, u64, u64)> {
    airfinger_obs::global().reset();
    airfinger_obs::profile::reset();
    let mut af = AirFinger::new(config(n_threads));
    af.train_on_corpus(corpus, None).expect("training succeeds");
    let mut engine = StreamingEngine::new(af, 3).expect("engine builds");
    let was_enabled = airfinger_obs::profile::enabled();
    airfinger_obs::profile::set_enabled(true);
    let trace = &corpus.samples()[0].trace;
    let span = airfinger_obs::span!("profile_stream_seconds");
    for i in 0..trace.len() {
        let sample: Vec<f64> = (0..3).map(|k| trace.channel(k)[i]).collect();
        engine.push(&sample).expect("push succeeds");
    }
    drop(span);
    airfinger_obs::profile::set_enabled(was_enabled);
    engine.flush().expect("flush succeeds");
    airfinger_obs::profile::snapshot()
        .under("profile_stream_seconds")
        .paths
        .iter()
        .map(|(p, s)| (p.clone(), (s.count, s.alloc.count, s.alloc.bytes)))
        .collect()
}

/// The profiler's *structural* output — which call paths exist, how many
/// frames each accumulated, and their allocation pressure — is a pure
/// function of the input stream, independent of training parallelism.
/// Only the nanosecond fields may differ between runs.
#[test]
fn profile_breakdown_is_identical_across_thread_counts() {
    let _guard = registry_guard();
    let corpus = corpus();
    let baseline = profile_paths_at(1, &corpus);
    if airfinger_obs::recording() {
        assert!(
            baseline.contains_key("profile_stream_seconds;engine_push_seconds"),
            "expected the push path in {baseline:?}"
        );
    }
    for threads in [4, 8] {
        let got = profile_paths_at(threads, &corpus);
        assert_eq!(got, baseline, "profile diverged at {threads} threads");
    }
}

/// The histogram families recorded once per push and once per pipeline
/// stage: their record counts are pure functions of the input stream.
/// (Worker-busy, job-count and forest spans count per dispatch, so they
/// depend on the thread count and stay out.)
const PUSH_AND_STAGE: [&str; 2] = ["engine_push_seconds", "pipeline_stage_seconds"];

/// The deterministic `perf` outputs of one run: registry metrics, push
/// and stage histogram record counts, and report metrics.
type PerfDeterministic = (
    BTreeMap<String, String>,
    Vec<(String, u64)>,
    BTreeMap<String, String>,
);

/// Run the `perf` bench experiment with `n_threads` training workers;
/// return its deterministic-class registry metrics (DESIGN.md §9:
/// everything *not* suffix-marked as timing), the record count of every
/// push and stage histogram in the registry, and the deterministic-class
/// metrics of its report (the profiled warm-up's frame counts among
/// them). Timing-class gauges, report metrics and histogram sums are
/// wall-clock observations and are deliberately excluded.
fn perf_deterministic_at(n_threads: usize) -> PerfDeterministic {
    use airfinger_bench::diff::{metric_class, MetricClass};
    airfinger_obs::global().reset();
    let mut ctx =
        airfinger_bench::context::Context::new(airfinger_bench::context::Scale::Quick, 99);
    ctx.config.n_threads = n_threads;
    let report = airfinger_bench::run_experiment("perf", &ctx).expect("perf experiment succeeds");
    let report_metrics = report
        .metrics
        .iter()
        .filter(|(name, _)| metric_class(name) == MetricClass::Deterministic)
        .map(|(name, value)| (name.clone(), format!("{value:?}")))
        .collect();
    let snapshot = airfinger_obs::global().snapshot();
    let mut deterministic = BTreeMap::new();
    for c in &snapshot.counters {
        let identity = c.id.to_string();
        if identity.starts_with("perf_") && metric_class(&identity) == MetricClass::Deterministic {
            deterministic.insert(identity, c.value.to_string());
        }
    }
    for g in &snapshot.gauges {
        let identity = g.id.to_string();
        if identity.starts_with("perf_") && metric_class(&identity) == MetricClass::Deterministic {
            // Exact decimal rendering: byte equality is the contract.
            deterministic.insert(identity, format!("{:?}", g.value));
        }
    }
    let latency_counts = snapshot
        .histograms
        .iter()
        .filter(|h| PUSH_AND_STAGE.contains(&h.id.name.as_str()))
        .map(|h| (h.id.to_string(), h.count))
        .collect();
    (deterministic, latency_counts, report_metrics)
}

/// The perf experiment's deterministic metric class (work counters,
/// allocs-per-push, the profiled warm-up's frame counts) and the
/// push/stage histograms' record counts are pure functions of
/// `(scale, seed)` — byte-identical no matter how many worker threads
/// trained the pipeline. This is the invariant that lets `repro diff`
/// gate them exactly across machines and `--threads` settings. The runs
/// share one process, so equal frame counts also prove they are read as
/// a delta rather than from the accumulated profiler table.
#[test]
fn perf_deterministic_metrics_are_identical_across_thread_counts() {
    let _guard = registry_guard();
    let (baseline, base_latency, base_report) = perf_deterministic_at(1);
    if airfinger_obs::recording() {
        for stage in ["filter", "features", "rf_predict", "zebra", "distinguish"] {
            let key = format!("stage_{stage}_frames");
            assert!(
                base_report.contains_key(&key),
                "expected {key} in {base_report:?}"
            );
        }
        let features: f64 = base_report["stage_features_frames"].parse().unwrap();
        assert!(features > 0.0, "features never ran in the profiled warm-up");
        assert_eq!(
            base_report.get("push_frames"),
            base_report.get("samples"),
            "expected one push frame per warm-up sample in {base_report:?}"
        );
        for key in [
            "perf_pushes_total",
            "perf_recognitions_total",
            "perf_rejections_total",
            "perf_repeats_total",
            "perf_allocs_per_push",
            "perf_alloc_bytes_per_push",
        ] {
            assert!(baseline.contains_key(key), "expected {key} in {baseline:?}");
        }
        assert!(
            base_latency
                .iter()
                .any(|(id, count)| id == "engine_push_seconds" && *count > 0),
            "expected push-latency records in {base_latency:?}"
        );
        assert!(
            base_latency
                .iter()
                .any(|(id, _)| id.starts_with("pipeline_stage_seconds")),
            "expected stage-latency histograms in {base_latency:?}"
        );
        // Timing-class names must have been classified out: a p99 gauge
        // leaking into the exact comparison would make this test flaky
        // by construction.
        assert!(
            baseline
                .keys()
                .all(|k| !k.ends_with("_ns") && !k.ends_with("_per_s")),
            "timing-class metric leaked into the deterministic set: {baseline:?}"
        );
    }
    for threads in [4, 8] {
        let (got, got_latency, got_report) = perf_deterministic_at(threads);
        assert_eq!(
            got, baseline,
            "deterministic perf metrics diverged at {threads} threads"
        );
        assert_eq!(
            got_latency, base_latency,
            "latency record counts diverged at {threads} threads"
        );
        assert_eq!(
            got_report, base_report,
            "deterministic perf report metrics diverged at {threads} threads"
        );
    }
}

#[test]
fn recognition_is_identical_with_obs_on_and_off() {
    let _guard = registry_guard();
    let corpus = corpus();
    let mut af = AirFinger::new(config(1));
    af.train_on_corpus(&corpus, None)
        .expect("training succeeds");

    airfinger_obs::set_recording(true);
    let on: Vec<_> = corpus
        .samples()
        .iter()
        .map(|s| {
            af.recognize_primary(&s.trace)
                .expect("recognition succeeds")
        })
        .collect();

    airfinger_obs::set_recording(false);
    let off: Vec<_> = corpus
        .samples()
        .iter()
        .map(|s| {
            af.recognize_primary(&s.trace)
                .expect("recognition succeeds")
        })
        .collect();
    airfinger_obs::set_recording(true);

    assert_eq!(on, off, "instrumentation changed recognition output");
}
