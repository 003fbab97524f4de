//! The deferred-path pass and the per-layer probes.
//!
//! [`deferred_pass`] drives a stream through the five public calls a
//! closed window goes through — `push_deferred`, `prepare_window`,
//! `DetectRecognizer::predict_features`, `finish_window`,
//! `resolve_pending` — and, when given a [`LayerTrace`], times each call
//! as a child span of one `push` root per sample. Probe calls on the same
//! window (the filter's and the recognizer's feature rows, and every
//! Table-I kind on its own) run after the root closes, under a separate
//! `probe` root, so they stay out of the reconciliation.

use crate::inputs::Feed;
use crate::stats::{NsCounts, Samples};
use crate::trace::{ns_between, Request, Tracer};
use airfinger_core::config::AirFingerConfig;
use airfinger_core::engine::{DeferredPush, StreamingEngine};
use airfinger_core::error::AirFingerError;
use airfinger_core::events::Recognition;
use airfinger_core::filter::NonGestureFilter;
use airfinger_core::pipeline::{AirFinger, PreparedWindow};
use airfinger_core::processing::GestureWindow;
use airfinger_dsp::sbc::Sbc;
use airfinger_dsp::segment::StreamingSegmenter;
use airfinger_dsp::threshold::DynamicThreshold;
use airfinger_features::FeatureKind;
use airfinger_obs::monitor::EngineMonitor;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Classify a closed window exactly as `StreamingEngine::push` does:
/// prepare, predict the feature row, finish.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn classify(
    pipeline: &AirFinger,
    window: &GestureWindow,
) -> Result<Recognition, AirFingerError> {
    match pipeline.prepare_window(window)? {
        PreparedWindow::Rejected(recognition) => Ok(recognition),
        PreparedWindow::Pending(features) => {
            let index = pipeline.detect_recognizer().predict_features(&features)?;
            pipeline.finish_window(window, index)
        }
    }
}

/// Shape of one closed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowShape {
    /// Samples the segmenter spanned.
    pub segment_len: usize,
    /// Samples per channel the engine handed to the pipeline.
    pub window_len: usize,
    /// Σ n² over channels: the quadratic feature work of this window.
    pub n2: u64,
}

/// What one deferred pass produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Recognitions in stream order.
    pub recognitions: Vec<Recognition>,
    /// Closed windows in stream order.
    pub windows: Vec<WindowShape>,
    /// Samples pushed.
    pub samples: usize,
    /// Calls that returned an error.
    pub errors: u64,
}

/// Table-I kind groups reported by `features.kind_ns.*`.
pub const KIND_GROUPS: [&str; 9] = [
    "approximate_entropy",
    "sample_entropy",
    "cwt",
    "fft",
    "ar",
    "partial_autocorrelation",
    "augmented_dickey_fuller",
    "quantile",
    "other",
];

fn kind_group(kind: FeatureKind) -> usize {
    match kind {
        FeatureKind::ApproximateEntropy => 0,
        FeatureKind::SampleEntropy => 1,
        FeatureKind::Cwt => 2,
        FeatureKind::Fft => 3,
        FeatureKind::Ar => 4,
        FeatureKind::PartialAutocorrelation => 5,
        FeatureKind::AugmentedDickeyFuller => 6,
        FeatureKind::Quantile => 7,
        _ => 8,
    }
}

/// Per-call timings gathered by a traced pass.
#[derive(Debug)]
pub struct LayerTrace {
    /// The span recorder.
    pub tracer: Tracer,
    /// `push_deferred` calls that closed no window (ns).
    pub quiet_deferred: NsCounts,
    /// `push_deferred` calls that closed a window (ns).
    pub closing_deferred: Samples,
    /// `prepare_window` (ns).
    pub prepare: Samples,
    /// `DetectRecognizer::predict_features` (ns).
    pub predict: Samples,
    /// `finish_window` (ns).
    pub finish: Samples,
    /// Σ `push` root durations (ns).
    pub root_ns: f64,
    /// Σ child-span durations inside the roots (ns).
    pub child_ns: f64,
    /// Σ `probe` root durations (ns).
    pub probe_ns: f64,
    /// Samples pushed under tracing.
    pub samples: u64,
    /// Probe: `NonGestureFilter::features` per window (ns).
    pub filter_features: Samples,
    /// Probe: `DetectRecognizer::features` per window (ns).
    pub table1: Samples,
    /// Probe: Σ `FeatureKind::values` ns per kind group over all windows.
    pub kind_ns: [f64; KIND_GROUPS.len()],
    /// Windows probed.
    pub probed: u64,
    probe_filter: NonGestureFilter,
}

impl LayerTrace {
    /// An empty trace whose clock starts at `epoch`.
    #[must_use]
    pub fn new(config: &AirFingerConfig, epoch: Instant) -> Self {
        LayerTrace {
            tracer: Tracer::new(epoch),
            quiet_deferred: NsCounts::default(),
            closing_deferred: Samples::default(),
            prepare: Samples::default(),
            predict: Samples::default(),
            finish: Samples::default(),
            root_ns: 0.0,
            child_ns: 0.0,
            probe_ns: 0.0,
            samples: 0,
            filter_features: Samples::default(),
            table1: Samples::default(),
            kind_ns: [0.0; KIND_GROUPS.len()],
            probed: 0,
            probe_filter: NonGestureFilter::new(config),
        }
    }

    /// Time the probe calls on one window under a `probe` root.
    fn probe(&mut self, pipeline: &AirFinger, window: &GestureWindow, request: Request) {
        let root = self.tracer.reserve();
        let t0 = Instant::now();
        let row = black_box(self.probe_filter.features(black_box(window)));
        let t1 = Instant::now();
        drop(row);
        let t2 = Instant::now();
        let row = black_box(pipeline.detect_recognizer().features(black_box(window)));
        let t3 = Instant::now();
        drop(row);
        self.filter_features.push(
            self.tracer
                .record("filter.features", t0, t1, Some(root), request) as f64,
        );
        self.table1.push(
            self.tracer
                .record("features.table1", t2, t3, Some(root), request) as f64,
        );
        // Each kind on each channel, on the recognizer's normalization.
        let peak = window
            .delta
            .iter()
            .flat_map(|c| c.iter())
            .fold(0.0f64, |m, &v| m.max(v))
            .max(f64::MIN_POSITIVE);
        let kinds = pipeline.detect_recognizer().extractor().kinds().to_vec();
        let mut end = t3;
        for channel in &window.delta {
            let x: Vec<f64> = channel.iter().map(|v| v / peak).collect();
            for &kind in &kinds {
                let a = Instant::now();
                drop(black_box(kind.values(black_box(&x))));
                end = Instant::now();
                self.kind_ns[kind_group(kind)] += ns_between(a, end) as f64;
            }
        }
        self.probed += 1;
        self.probe_ns += self.tracer.record_as(root, "probe", t0, end, None, request) as f64;
    }
}

/// Stream `feed` (samples `0..feed.len()`, stopping early at `deadline`)
/// through a fresh engine on the deferred path. With `trace`, every call
/// is timed and every closed window probed; `request_base` offsets the
/// span request ids.
///
/// # Errors
///
/// Fails only when the engine cannot be built.
pub fn deferred_pass(
    pipeline: &Arc<AirFinger>,
    feed: &Feed,
    monitor: Option<EngineMonitor>,
    mut trace: Option<&mut LayerTrace>,
    request_base: u64,
    deadline: Option<Instant>,
) -> Result<PassOutput, AirFingerError> {
    let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), feed.channels)?;
    if let Some(monitor) = monitor {
        engine.attach_monitor(monitor);
    }
    let mut out = PassOutput::default();
    for i in 0..feed.len() {
        if i % 256 == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let sample = feed.sample(i);
        let request = Request::Sample(request_base + i as u64);
        out.samples += 1;
        let Some(tr) = trace.as_deref_mut() else {
            match engine.push_deferred(sample) {
                Ok(DeferredPush::Quiet) => {}
                Ok(DeferredPush::Closed(pending)) => {
                    let result = classify(pipeline, pending.window());
                    engine.resolve_pending(&pending, &result);
                    out.windows.push(shape(pending.window()));
                    match result {
                        Ok(r) => out.recognitions.push(r),
                        Err(_) => out.errors += 1,
                    }
                }
                Err(_) => out.errors += 1,
            }
            continue;
        };
        // Traced: children's bounds are kept locally and recorded after
        // the root closes, so recording cost stays out of the root.
        let mut children: [(&'static str, Instant, Instant); 5] =
            [("", Instant::now(), Instant::now()); 5];
        let mut n = 0usize;
        let t0 = Instant::now();
        let pushed = engine.push_deferred(sample);
        let t1 = Instant::now();
        children[n] = ("push_deferred", t0, t1);
        n += 1;
        let mut end = t1;
        let mut probe_window = None;
        match pushed {
            Ok(DeferredPush::Quiet) => tr.quiet_deferred.push(ns_between(t0, t1)),
            Ok(DeferredPush::Closed(pending)) => {
                tr.closing_deferred.push(ns_between(t0, t1) as f64);
                let window = pending.window();
                let a = Instant::now();
                let prepared = pipeline.prepare_window(window);
                let b = Instant::now();
                children[n] = ("prepare_window", a, b);
                n += 1;
                let result = match prepared {
                    Err(e) => Err(e),
                    Ok(PreparedWindow::Rejected(r)) => Ok(r),
                    Ok(PreparedWindow::Pending(features)) => {
                        let c = Instant::now();
                        let index = pipeline.detect_recognizer().predict_features(&features);
                        let d = Instant::now();
                        children[n] = ("predict_features", c, d);
                        n += 1;
                        match index {
                            Err(e) => Err(e),
                            Ok(index) => {
                                let e = Instant::now();
                                let r = pipeline.finish_window(window, index);
                                let f = Instant::now();
                                children[n] = ("finish_window", e, f);
                                n += 1;
                                r
                            }
                        }
                    }
                };
                let g = Instant::now();
                engine.resolve_pending(&pending, &result);
                end = Instant::now();
                children[n] = ("resolve_pending", g, end);
                n += 1;
                out.windows.push(shape(window));
                match result {
                    Ok(r) => out.recognitions.push(r),
                    Err(_) => out.errors += 1,
                }
                probe_window = Some(pending);
            }
            Err(_) => out.errors += 1,
        }
        let root = tr.tracer.reserve();
        for &(name, a, b) in &children[..n] {
            let dur = tr.tracer.record(name, a, b, Some(root), request) as f64;
            tr.child_ns += dur;
            match name {
                "prepare_window" => tr.prepare.push(dur),
                "predict_features" => tr.predict.push(dur),
                "finish_window" => tr.finish.push(dur),
                _ => {}
            }
        }
        tr.root_ns += tr.tracer.record_as(root, "push", t0, end, None, request) as f64;
        tr.samples += 1;
        if let Some(pending) = probe_window {
            tr.probe(pipeline, pending.window(), request);
        }
    }
    Ok(out)
}

fn shape(window: &GestureWindow) -> WindowShape {
    WindowShape {
        segment_len: window.segment.end - window.segment.start,
        window_len: window.raw.first().map_or(0, Vec::len),
        n2: window.delta.iter().map(|c| (c.len() as u64).pow(2)).sum(),
    }
}

/// Per channel-sample cost of the three streaming DSP kernels, from a
/// replay of each channel of `feed` (at most `max_samples` samples)
/// through `SbcStream::push`, `DynamicThreshold::observe` and
/// `StreamingSegmenter::push`, each timed over the whole channel. The
/// median of `reps` replays, as `[sbc, threshold, segmenter]` in ns.
#[must_use]
pub fn dsp_replay(
    config: &AirFingerConfig,
    feed: &Feed,
    max_samples: usize,
    reps: usize,
    tracer: &mut Tracer,
) -> [f64; 3] {
    let n = feed.len().min(max_samples);
    let mut per_rep: [Vec<f64>; 3] = Default::default();
    for _ in 0..reps.max(1) {
        let mut totals = [0u64; 3];
        for k in 0..feed.channels {
            let request = Request::Sample(k as u64);
            let raw: Vec<f64> = (0..n).map(|i| feed.sample(i)[k]).collect();
            let mut deltas = Vec::with_capacity(n);
            let mut sbc = Sbc::new(config.sbc_window).stream();
            let t0 = Instant::now();
            for &v in &raw {
                deltas.push(sbc.push(v));
            }
            let t1 = Instant::now();
            totals[0] += tracer.record("dsp.sbc", t0, t1, None, request);
            let smoothed: Vec<f64> = (0..n)
                .map(|i| {
                    let lo = i.saturating_sub(4);
                    deltas[lo..=i].iter().sum::<f64>() / (i + 1 - lo) as f64
                })
                .collect();
            let mut thresholds = Vec::with_capacity(n);
            let mut threshold =
                DynamicThreshold::new(config.initial_threshold, config.threshold_forget);
            let t2 = Instant::now();
            for &s in &smoothed {
                threshold.observe(s);
                thresholds.push(threshold.threshold().max(f64::MIN_POSITIVE));
            }
            let t3 = Instant::now();
            totals[1] += tracer.record("dsp.threshold", t2, t3, None, request);
            let activity: Vec<f64> = smoothed
                .iter()
                .zip(&thresholds)
                .map(|(s, t)| s / t)
                .collect();
            let mut segmenter = StreamingSegmenter::new(config.segmenter);
            let t4 = Instant::now();
            for &a in &activity {
                black_box(segmenter.push(a, 1.0));
            }
            let t5 = Instant::now();
            totals[2] += tracer.record("dsp.segmenter", t4, t5, None, request);
        }
        let per = (n * feed.channels).max(1) as f64;
        for (acc, total) in per_rep.iter_mut().zip(totals) {
            acc.push(total as f64 / per);
        }
    }
    per_rep.map(|v| crate::stats::median(&v).unwrap_or(0.0))
}

/// Mean `StreamingEngine::push` cost over the first `n` samples of `feed`
/// on a fresh engine (block-timed), optionally with a monitor attached.
///
/// # Errors
///
/// Fails only when the engine cannot be built.
pub fn push_pass_ns(
    pipeline: &Arc<AirFinger>,
    feed: &Feed,
    n: usize,
    monitor: Option<EngineMonitor>,
) -> Result<f64, AirFingerError> {
    let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), feed.channels)?;
    if let Some(monitor) = monitor {
        engine.attach_monitor(monitor);
    }
    let n = n.min(feed.len()).max(1);
    let t0 = Instant::now();
    for i in 0..n {
        let _ = black_box(engine.push(feed.sample(i)));
    }
    Ok(ns_between(t0, Instant::now()) as f64 / n as f64)
}
