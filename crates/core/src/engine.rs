//! Real-time streaming engine: sample-by-sample recognition.
//!
//! The prototype streams 3-channel ADC readings at 100 Hz; this engine
//! consumes them one sample at a time with constant memory, maintaining
//! per-channel streaming SBC, streaming dynamic thresholds (the paper's
//! calibrate-as-you-accumulate `I_seg`), and a streaming segmenter. When a
//! gesture window closes, the trained [`AirFinger`] pipeline classifies it
//! and a [`Recognition`] event is emitted.

use crate::error::AirFingerError;
use crate::events::Recognition;
use crate::pipeline::AirFinger;
use crate::processing::GestureWindow;
use crate::zebra::ScrollDirection;
use airfinger_dsp::sbc::{Sbc, SbcStream};
use airfinger_dsp::segment::{Segment, StreamingSegmenter};
use airfinger_dsp::threshold::DynamicThreshold;
use airfinger_obs::events::Event as ObsEvent;
use airfinger_obs::monitor::EngineMonitor;
use airfinger_obs::recorder::Dump;
use airfinger_obs::window::{Outcome, WindowStats};
use airfinger_obs::{HealthState, Span};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// How many samples of history the engine retains (40 s at 100 Hz) — far
/// longer than any gesture, bounded for constant memory.
const HISTORY_CAPACITY: usize = 4096;

/// Single-threaded streaming engine.
#[derive(Debug)]
pub struct StreamingEngine {
    /// Shared so a fleet of engines can serve one trained model without
    /// cloning the forest per session; a solo engine just owns the only
    /// reference.
    pipeline: Arc<AirFinger>,
    sbc: Vec<SbcStream>,
    thresholds: Vec<DynamicThreshold>,
    segmenter: StreamingSegmenter,
    raw_hist: Vec<VecDeque<f64>>,
    delta_hist: Vec<VecDeque<f64>>,
    /// Short per-channel smoothing window over ΔRSS² (mirrors the batch
    /// processor's spike dilution).
    smooth: Vec<VecDeque<f64>>,
    /// First above-threshold sample of each channel within the currently
    /// open gesture (global index) — the live ascending points behind
    /// [`StreamingEngine::live_hint`].
    live_ascents: Vec<Option<usize>>,
    offset: usize,
    channel_count: usize,
    /// Optional continuous health monitor (sliding windows, SLO health
    /// model, flight recorder) fed by every push; see
    /// [`StreamingEngine::attach_monitor`].
    monitor: Option<EngineMonitor>,
}

/// Length of the streaming ΔRSS² smoothing window.
const SMOOTH_LEN: usize = 5;

impl StreamingEngine {
    /// Build an engine around a trained pipeline for `channel_count`
    /// photodiodes.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] if the pipeline has not been
    /// trained, and [`AirFingerError::InvalidTrainingData`] for a zero
    /// channel count.
    pub fn new(pipeline: AirFinger, channel_count: usize) -> Result<Self, AirFingerError> {
        Self::with_shared(Arc::new(pipeline), channel_count)
    }

    /// Build an engine around an already-shared trained pipeline. Many
    /// engines can hold the same `Arc` — recognition only ever borrows the
    /// pipeline immutably — which is how the fleet layer serves one model
    /// to every session.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingEngine::new`].
    pub fn with_shared(
        pipeline: Arc<AirFinger>,
        channel_count: usize,
    ) -> Result<Self, AirFingerError> {
        if !pipeline.is_trained() {
            return Err(AirFingerError::NotTrained);
        }
        if channel_count == 0 {
            return Err(AirFingerError::InvalidTrainingData("zero channel count"));
        }
        let config = *pipeline.config();
        Ok(StreamingEngine {
            sbc: (0..channel_count)
                .map(|_| Sbc::new(config.sbc_window).stream())
                .collect(),
            thresholds: (0..channel_count)
                .map(|_| DynamicThreshold::new(config.initial_threshold, config.threshold_forget))
                .collect(),
            segmenter: StreamingSegmenter::new(config.segmenter),
            raw_hist: vec![VecDeque::with_capacity(HISTORY_CAPACITY); channel_count],
            delta_hist: vec![VecDeque::with_capacity(HISTORY_CAPACITY); channel_count],
            smooth: vec![VecDeque::with_capacity(SMOOTH_LEN); channel_count],
            live_ascents: vec![None; channel_count],
            offset: 0,
            channel_count,
            monitor: None,
            pipeline,
        })
    }

    /// Attach a continuous health monitor. Every subsequent push feeds
    /// its sliding window (sample counts, recognition outcomes, mean
    /// dynamic threshold, per-push latency) and its flight-recorder ring;
    /// [`StreamingEngine::flush`] closes the trailing partial window.
    /// Replaces any previously attached monitor.
    pub fn attach_monitor(&mut self, monitor: EngineMonitor) {
        self.monitor = Some(monitor);
    }

    /// Detach and return the monitor, if one is attached.
    pub fn detach_monitor(&mut self) -> Option<EngineMonitor> {
        self.monitor.take()
    }

    /// The attached monitor, if any.
    #[must_use]
    pub fn monitor(&self) -> Option<&EngineMonitor> {
        self.monitor.as_ref()
    }

    /// Mutable access to the attached monitor (e.g. to drain dumps).
    pub fn monitor_mut(&mut self) -> Option<&mut EngineMonitor> {
        self.monitor.as_mut()
    }

    /// Global index of the next sample.
    #[must_use]
    pub fn position(&self) -> usize {
        self.segmenter.position()
    }

    /// Whether a gesture is currently open.
    #[must_use]
    pub fn in_gesture(&self) -> bool {
        self.segmenter.in_gesture()
    }

    /// The wrapped pipeline.
    #[must_use]
    pub fn pipeline(&self) -> &AirFinger {
        &self.pipeline
    }

    /// A new shared handle to the wrapped pipeline (see
    /// [`StreamingEngine::with_shared`]).
    #[must_use]
    pub fn shared_pipeline(&self) -> Arc<AirFinger> {
        Arc::clone(&self.pipeline)
    }

    /// Push one multi-channel sample; returns a recognition event when a
    /// gesture window closes at this sample.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::InvalidTrainingData`] for a wrong-width
    /// or non-finite sample, before any engine state changes, and
    /// propagates recognition errors.
    // lint: hot-path-root — the per-sample streaming entry point
    pub fn push(&mut self, sample: &[f64]) -> Result<Option<Recognition>, AirFingerError> {
        let (span, closed) = self.begin(sample)?;
        let result = closed.map(|seg| self.emit(seg)).transpose();
        if let Some(monitor) = self.monitor.as_mut() {
            let outcome = outcome_of(result.as_ref().ok().and_then(Option::as_ref));
            let mean_threshold = mean_of(&self.thresholds);
            // The span's live elapsed time stands in for this push's
            // latency; with recording off it reads 0 (spans never touch
            // the clock), which keeps the monitor's counters intact while
            // the latency gauges go dark.
            let _ = monitor.observe_push(sample, span.elapsed_s(), mean_threshold, outcome);
        }
        result
    }

    /// Push one sample without classifying a closed gesture window.
    ///
    /// Identical to [`StreamingEngine::push`] up to the moment a gesture
    /// window closes: quiet pushes feed the monitor as usual and return
    /// [`DeferredPush::Quiet`]. When a window closes, it is returned as a
    /// [`PendingWindow`] instead of being recognized, and the monitor
    /// observation of the closing push is deferred with it — the caller
    /// must classify the window (typically batched with windows from other
    /// engines) and call [`StreamingEngine::resolve_pending`] before
    /// pushing more samples, which keeps the monitor's observation
    /// sequence bit-identical to a plain `push` loop.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::InvalidTrainingData`] for a wrong-width
    /// or non-finite sample.
    pub fn push_deferred(&mut self, sample: &[f64]) -> Result<DeferredPush, AirFingerError> {
        let (span, closed) = self.begin(sample)?;
        let mean_threshold = mean_of(&self.thresholds);
        match closed {
            Some(seg) => Ok(DeferredPush::Closed(PendingWindow {
                window: self.window(seg),
                // lint: hot-path — deferred pushes must own the sample past the call
                sample: sample.to_vec(),
                push_seconds: span.elapsed_s(),
                mean_threshold,
            })),
            None => {
                if let Some(monitor) = self.monitor.as_mut() {
                    let _ = monitor.observe_push(
                        sample,
                        span.elapsed_s(),
                        mean_threshold,
                        Outcome::Quiet,
                    );
                }
                Ok(DeferredPush::Quiet)
            }
        }
    }

    /// Complete a deferred push: replay the monitor observation for the
    /// push that closed `pending`, with the outcome derived from the
    /// caller-supplied recognition result exactly as [`StreamingEngine::push`]
    /// derives it. Must be called once per [`PendingWindow`] before the
    /// next push on this engine.
    pub fn resolve_pending(
        &mut self,
        pending: &PendingWindow,
        result: &Result<Recognition, AirFingerError>,
    ) {
        if let Some(monitor) = self.monitor.as_mut() {
            let _ = monitor.observe_push(
                &pending.sample,
                pending.push_seconds,
                pending.mean_threshold,
                outcome_of(result.as_ref().ok()),
            );
        }
    }

    /// The prologue every push shares: validate the sample, open the
    /// push span (the caller keeps it open across classification), count
    /// the sample, advance the streaming stages, and — between gestures —
    /// forget the live crossings so pre-gesture noise cannot pre-arm the
    /// next hint. Returns the open span and the segment this sample
    /// closed, if any. Always inlined: as an out-of-line call, returning
    /// the span by value cost the quiet push ≈ 2% at p50.
    #[inline(always)]
    fn begin(&mut self, sample: &[f64]) -> Result<(Span, Option<Segment>), AirFingerError> {
        self.check_sample(sample)?;
        let span = airfinger_obs::span!("engine_push_seconds");
        airfinger_obs::counter!("engine_samples_total").inc();
        let closed = self.ingest(sample);
        if !self.segmenter.in_gesture() {
            self.live_ascents.fill(None);
        }
        Ok((span, closed))
    }

    /// Reject a sample before it touches any engine state: a wrong width,
    /// or any NaN/±inf reading (one such value would otherwise skew the
    /// SBC ring, the smoothing window and the Otsu histogram). Each
    /// rejection counts under `engine_samples_rejected_total{reason}`.
    fn check_sample(&self, sample: &[f64]) -> Result<(), AirFingerError> {
        if sample.len() != self.channel_count {
            airfinger_obs::counter!("engine_samples_rejected_total", reason = "width").inc();
            return Err(AirFingerError::InvalidTrainingData("sample width mismatch"));
        }
        if !sample.iter().all(|v| v.is_finite()) {
            airfinger_obs::counter!("engine_samples_rejected_total", reason = "non_finite").inc();
            return Err(AirFingerError::InvalidTrainingData("non-finite sample"));
        }
        Ok(())
    }

    /// Advance every streaming stage by one sample; returns the segment
    /// when this sample closed a gesture window.
    fn ingest(&mut self, sample: &[f64]) -> Option<Segment> {
        let mut activity = 0.0f64;
        let position = self.segmenter.position();
        for (k, &raw) in sample.iter().enumerate() {
            let delta = self.sbc[k].push(raw);
            let win = &mut self.smooth[k];
            if win.len() == SMOOTH_LEN {
                win.pop_front();
            }
            win.push_back(delta);
            let smoothed = win.iter().sum::<f64>() / win.len() as f64;
            self.thresholds[k].observe(smoothed);
            let t = self.thresholds[k].threshold().max(f64::MIN_POSITIVE);
            activity = activity.max(smoothed / t);
            // Live ascending point: first crossing of this channel within
            // the open gesture.
            if smoothed > t && self.live_ascents[k].is_none() {
                self.live_ascents[k] = Some(position);
            }
            self.raw_hist[k].push_back(raw);
            self.delta_hist[k].push_back(delta);
        }
        if self.raw_hist[0].len() > HISTORY_CAPACITY {
            for k in 0..self.channel_count {
                self.raw_hist[k].pop_front();
                self.delta_hist[k].pop_front();
            }
            self.offset += 1;
        }
        self.segmenter.push(activity, 1.0)
    }

    /// Early scroll-direction hint for the *currently open* gesture — the
    /// paper's §IV-D1 claim that direction is available "in real-time,
    /// without waiting for the end of this gesture". `None` while no
    /// gesture is open or while the outer-channel ascent order is still
    /// ambiguous (which is the normal state for detect-aimed gestures).
    #[must_use]
    pub fn live_hint(&self) -> Option<ScrollDirection> {
        if !self.segmenter.in_gesture() {
            return None;
        }
        let first = *self.live_ascents.first()?;
        let last = *self.live_ascents.last()?;
        let ig = self.pipeline.config().ig_samples();
        match (first, last) {
            (Some(a), Some(b)) if a + ig <= b => Some(ScrollDirection::Up),
            (Some(a), Some(b)) if b + ig <= a => Some(ScrollDirection::Down),
            _ => None,
        }
    }

    /// Close any open gesture at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates recognition errors.
    pub fn flush(&mut self) -> Result<Option<Recognition>, AirFingerError> {
        let _span = airfinger_obs::span!("engine_flush_seconds");
        let result = match self.segmenter.flush() {
            Some(seg) => self.emit(seg).map(Some),
            None => Ok(None),
        };
        if let Some(monitor) = self.monitor.as_mut() {
            let _ = monitor.finish();
        }
        result
    }

    fn emit(&self, segment: Segment) -> Result<Recognition, AirFingerError> {
        let window = self.window(segment);
        self.pipeline.recognize_window(&window)
    }

    /// Snapshot the gesture window for a closed segment from the retained
    /// history.
    fn window(&self, segment: Segment) -> GestureWindow {
        let start = segment.start.max(self.offset) - self.offset;
        let end = (segment.end.max(self.offset) - self.offset).min(self.raw_hist[0].len());
        let slice = |hist: &VecDeque<f64>| -> Vec<f64> {
            hist.iter()
                .skip(start)
                .take(end.saturating_sub(start))
                .copied()
                .collect()
        };
        GestureWindow {
            segment,
            raw: self.raw_hist.iter().map(slice).collect(),
            delta: self.delta_hist.iter().map(slice).collect(),
            thresholds: self
                .thresholds
                .iter()
                .map(DynamicThreshold::threshold)
                .collect(),
            sample_rate_hz: self.pipeline.config().sample_rate_hz,
        }
    }
}

/// The monitor outcome of one push: its recognition, or quiet when the
/// push closed no window or classification failed.
fn outcome_of(recognition: Option<&Recognition>) -> Outcome {
    match recognition {
        Some(Recognition::Detect { .. }) => Outcome::Detect,
        Some(Recognition::Track { .. }) => Outcome::Track,
        Some(Recognition::Rejected { .. }) => Outcome::Rejected,
        None => Outcome::Quiet,
    }
}

/// Mean dynamic threshold across channels (the monitor's drift signal).
fn mean_of(thresholds: &[DynamicThreshold]) -> f64 {
    thresholds
        .iter()
        .map(DynamicThreshold::threshold)
        .sum::<f64>()
        / thresholds.len().max(1) as f64
}

/// Outcome of [`StreamingEngine::push_deferred`].
#[derive(Debug)]
pub enum DeferredPush {
    /// No gesture window closed at this sample; the monitor (if attached)
    /// has already observed the push.
    Quiet,
    /// A gesture window closed at this sample. Classification and the
    /// monitor observation are deferred until
    /// [`StreamingEngine::resolve_pending`].
    Closed(PendingWindow),
}

/// A closed gesture window awaiting classification, carrying everything
/// needed to replay the monitor observation of the push that closed it.
#[derive(Debug, Clone)]
pub struct PendingWindow {
    window: GestureWindow,
    sample: Vec<f64>,
    push_seconds: f64,
    mean_threshold: f64,
}

impl PendingWindow {
    /// The closed gesture window to classify.
    #[must_use]
    pub fn window(&self) -> &GestureWindow {
        &self.window
    }
}

/// A thread-safe handle around a [`StreamingEngine`]: the acquisition
/// thread pushes samples while a UI thread inspects state.
#[derive(Debug, Clone)]
pub struct SharedEngine {
    inner: Arc<Mutex<StreamingEngine>>,
}

impl SharedEngine {
    /// Wrap an engine.
    #[must_use]
    pub fn new(engine: StreamingEngine) -> Self {
        SharedEngine {
            inner: Arc::new(Mutex::new(engine)),
        }
    }

    /// Push one sample (see [`StreamingEngine::push`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingEngine::push`].
    pub fn push(&self, sample: &[f64]) -> Result<Option<Recognition>, AirFingerError> {
        // Poisoning is recovered rather than propagated: the engine's
        // state stays valid across a panicked peer (every mutation is
        // single-assignment per sample), so the lost-update is benign.
        self.inner
            // lint: hot-path — SharedEngine IS the lock adapter; lock-free callers use StreamingEngine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(sample)
    }

    /// Close any open gesture.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingEngine::flush`].
    pub fn flush(&self) -> Result<Option<Recognition>, AirFingerError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }

    /// Whether a gesture is currently open.
    #[must_use]
    pub fn in_gesture(&self) -> bool {
        self.inner
            // lint: hot-path — SharedEngine IS the lock adapter; lock-free callers use StreamingEngine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_gesture()
    }

    /// Global sample position.
    #[must_use]
    pub fn position(&self) -> usize {
        self.inner
            // lint: hot-path — SharedEngine IS the lock adapter; lock-free callers use StreamingEngine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .position()
    }

    /// Attach a continuous health monitor (see
    /// [`StreamingEngine::attach_monitor`]).
    pub fn attach_monitor(&self, monitor: EngineMonitor) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .attach_monitor(monitor);
    }

    /// Current health verdict, when a monitor is attached.
    #[must_use]
    pub fn health(&self) -> Option<HealthState> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .monitor()
            .map(EngineMonitor::health)
    }

    /// Statistics of the most recently closed monitoring window, when a
    /// monitor is attached and has closed one.
    #[must_use]
    pub fn last_window(&self) -> Option<WindowStats> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .monitor()
            .and_then(|m| m.last_window().cloned())
    }

    /// Drain pending flight-recorder dumps (empty when no monitor is
    /// attached or nothing breached).
    #[must_use]
    pub fn take_dumps(&self) -> Vec<Dump> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .monitor_mut()
            .map(EngineMonitor::take_dumps)
            .unwrap_or_default()
    }

    /// Drain the monitor's buffered journal events (see
    /// [`airfinger_obs::events`]) in emission order so the caller can
    /// publish them into a journal. Empty when no monitor is attached,
    /// or when the monitor publishes into a journal directly.
    #[must_use]
    pub fn take_events(&self) -> Vec<ObsEvent> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .monitor_mut()
            .map(EngineMonitor::take_events)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AirFingerConfig;
    use airfinger_synth::dataset::{generate_corpus, CorpusSpec};

    fn trained() -> AirFinger {
        let spec = CorpusSpec {
            users: 2,
            sessions: 1,
            reps: 3,
            ..Default::default()
        };
        let corpus = generate_corpus(&spec);
        let mut af = AirFinger::new(AirFingerConfig {
            forest_trees: 20,
            ..Default::default()
        });
        af.train_on_corpus(&corpus, None).unwrap();
        af
    }

    #[test]
    fn untrained_pipeline_rejected() {
        let af = AirFinger::new(AirFingerConfig::default());
        assert!(matches!(
            StreamingEngine::new(af, 3),
            Err(AirFingerError::NotTrained)
        ));
    }

    #[test]
    fn wrong_width_sample_rejected() {
        let mut e = StreamingEngine::new(trained(), 3).unwrap();
        assert!(e.push(&[1.0]).is_err());
    }

    #[test]
    fn recognizes_streamed_gesture() {
        let spec = CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 2,
            ..Default::default()
        };
        let corpus = generate_corpus(&spec);
        let mut engine = StreamingEngine::new(trained(), 3).unwrap();
        let mut events = Vec::new();
        let sample0 = &corpus.samples()[0];
        let trace = &sample0.trace;
        for i in 0..trace.len() {
            let s: Vec<f64> = (0..3).map(|k| trace.channel(k)[i]).collect();
            if let Some(ev) = engine.push(&s).unwrap() {
                events.push(ev);
            }
        }
        if let Some(ev) = engine.flush().unwrap() {
            events.push(ev);
        }
        assert!(!events.is_empty(), "streamed gesture not detected");
    }

    #[test]
    fn quiet_stream_emits_nothing() {
        let mut engine = StreamingEngine::new(trained(), 3).unwrap();
        for _ in 0..500 {
            assert!(engine.push(&[200.0, 200.0, 200.0]).unwrap().is_none());
        }
        assert!(engine.flush().unwrap().is_none());
        assert!(!engine.in_gesture());
    }

    #[test]
    fn position_advances() {
        let mut engine = StreamingEngine::new(trained(), 3).unwrap();
        for _ in 0..10 {
            let _ = engine.push(&[200.0, 200.0, 200.0]);
        }
        assert_eq!(engine.position(), 10);
    }

    #[test]
    fn live_hint_appears_during_a_scroll() {
        use airfinger_synth::dataset::generate_sample;
        use airfinger_synth::gesture::{Gesture, SampleLabel};
        use airfinger_synth::profile::UserProfile;
        let spec = CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 1,
            ..Default::default()
        };
        let profile = UserProfile::sample(0, spec.seed);
        let s = generate_sample(
            &profile,
            SampleLabel::Gesture(Gesture::ScrollUp),
            0,
            0,
            &spec,
        );
        let mut engine = StreamingEngine::new(trained(), 3).unwrap();
        let mut hint_before_close = None;
        let mut closed = false;
        for i in 0..s.trace.len() {
            let sample = [
                s.trace.channel(0)[i],
                s.trace.channel(1)[i],
                s.trace.channel(2)[i],
            ];
            if engine.push(&sample).unwrap().is_some() {
                closed = true;
            }
            if !closed {
                if let Some(h) = engine.live_hint() {
                    hint_before_close.get_or_insert(h);
                }
            }
        }
        // The direction was available before the gesture window closed.
        assert_eq!(
            hint_before_close,
            Some(crate::zebra::ScrollDirection::Up),
            "live hint during the sweep"
        );
    }

    #[test]
    fn no_hint_while_idle() {
        let mut engine = StreamingEngine::new(trained(), 3).unwrap();
        for _ in 0..200 {
            engine.push(&[230.0, 231.0, 229.0]).unwrap();
            assert_eq!(engine.live_hint(), None);
        }
    }

    #[test]
    fn attached_monitor_observes_the_stream() {
        use airfinger_obs::monitor::with_horizon;
        let spec = CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 2,
            ..Default::default()
        };
        let corpus = generate_corpus(&spec);
        let mut engine = StreamingEngine::new(trained(), 3).unwrap();
        engine.attach_monitor(with_horizon(50));
        let trace = &corpus.samples()[0].trace;
        for i in 0..trace.len() {
            let s: Vec<f64> = (0..3).map(|k| trace.channel(k)[i]).collect();
            engine.push(&s).unwrap();
        }
        engine.flush().unwrap();
        let monitor = engine.monitor().expect("monitor attached");
        assert_eq!(monitor.samples_seen() as usize, trace.len());
        assert!(monitor.windows_closed() >= 1, "windows closed");
        // A single gesture trace is too short to breach any SLO.
        assert!(monitor.health().level() < 2, "not unhealthy");
        let detached = engine.detach_monitor().expect("detaches");
        assert!(engine.monitor().is_none());
        assert_eq!(detached.dump_count(), 0);
    }

    #[test]
    fn shared_engine_monitor_accessors() {
        use airfinger_obs::monitor::with_horizon;
        let engine = SharedEngine::new(StreamingEngine::new(trained(), 3).unwrap());
        assert_eq!(engine.health(), None);
        engine.attach_monitor(with_horizon(10));
        // One closed quiet window: below the consecutive-stall ceiling.
        for _ in 0..15 {
            engine.push(&[200.0, 200.0, 200.0]).unwrap();
        }
        assert_eq!(engine.health(), Some(airfinger_obs::HealthState::Healthy));
        assert!(engine.last_window().is_some());
        assert!(engine.take_dumps().is_empty());
    }

    #[test]
    fn shared_engine_is_usable_across_threads() {
        let engine = SharedEngine::new(StreamingEngine::new(trained(), 3).unwrap());
        let e2 = engine.clone();
        let handle = std::thread::spawn(move || {
            for _ in 0..100 {
                e2.push(&[200.0, 200.0, 200.0]).unwrap();
            }
        });
        handle.join().unwrap();
        assert_eq!(engine.position(), 100);
    }
}
