//! *Data Processing* (§IV-B): SBC noise mitigation + dynamic-threshold
//! gesture segmentation, batch form.
//!
//! The batch processor takes a whole recording, applies SBC per channel,
//! computes one Otsu threshold per channel over the transformed trace, and
//! segments on combined multi-channel activity. Each resulting
//! [`GestureWindow`] carries both the raw RSS and the `ΔRSS²` slices per
//! channel — everything the downstream recognizers need.

use crate::config::AirFingerConfig;
use airfinger_dsp::sbc::Sbc;
use airfinger_dsp::segment::{Segment, Segmenter};
use airfinger_dsp::threshold::otsu_threshold;
use airfinger_nir_sim::trace::RssTrace;
use serde::{Deserialize, Serialize};

/// One segmented gesture candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GestureWindow {
    /// Sample range within the source trace.
    pub segment: Segment,
    /// Raw RSS per channel within the segment.
    pub raw: Vec<Vec<f64>>,
    /// `ΔRSS²` per channel within the segment.
    pub delta: Vec<Vec<f64>>,
    /// Per-channel segmentation thresholds in effect.
    pub thresholds: Vec<f64>,
    /// Sampling rate of the source trace.
    pub sample_rate_hz: f64,
}

impl GestureWindow {
    /// Window duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.segment.len() as f64 / self.sample_rate_hz
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.delta.len()
    }

    /// Each channel's smoothed `ΔRSS²` with its noise floor (the 10th
    /// percentile of the smoothed series).
    fn smoothed_with_floors(&self) -> impl Iterator<Item = (Vec<f64>, f64)> + '_ {
        const SMOOTH_WINDOW: usize = 11;
        self.delta.iter().map(|c| {
            let sm = airfinger_dsp::filter::moving_average(c, SMOOTH_WINDOW);
            let floor = airfinger_dsp::stats::quantile(&sm, 0.1).unwrap_or(0.0);
            (sm, floor)
        })
    }

    /// Per-channel gesture-energy envelopes: smoothed `ΔRSS²` minus the
    /// channel's noise floor (10th percentile), clamped at zero.
    #[must_use]
    pub fn envelopes(&self) -> Vec<Vec<f64>> {
        self.smoothed_with_floors()
            .map(|(sm, floor)| sm.into_iter().map(|v| (v - floor).max(0.0)).collect())
            .collect()
    }

    /// Cross-channel timing analysis: which photodiodes the gesture
    /// activated, and the time lag between the first and last active one.
    ///
    /// The lag is the paper's `Δt` between signal ascending points,
    /// estimated robustly as the argmax of the cross-correlation between
    /// the two channels' energy envelopes. A scroll is a traveling wave —
    /// the far photodiode's envelope is the near one's, delayed by the
    /// crossing time — so the lag is large and its sign gives the
    /// direction. A detect-aimed gesture modulates every photodiode with
    /// the *same* motion, so the envelopes are scaled copies and the lag
    /// is near zero ("ascending points almost occur simultaneously").
    #[must_use]
    pub fn channel_timing(&self, config: &AirFingerConfig) -> ChannelTiming {
        const PARTICIPATION_FRACTION: f64 = 0.10;
        let envelopes = self.envelopes();
        let peaks: Vec<f64> = envelopes
            .iter()
            .map(|e| e.iter().copied().fold(0.0, f64::max))
            .collect();
        let global_peak = peaks.iter().copied().fold(0.0, f64::max);
        let active: Vec<bool> = peaks
            .iter()
            .map(|&p| p >= PARTICIPATION_FRACTION * global_peak && p > config.initial_threshold)
            .collect();
        let first_active = active.iter().position(|&a| a);
        let last_active = active.iter().rposition(|&a| a);
        let lag_samples = match (first_active, last_active) {
            (Some(i), Some(j)) if i != j => centroid_lag(&envelopes[i], &envelopes[j]),
            _ => None,
        };
        ChannelTiming {
            active,
            first_active,
            last_active,
            lag_samples,
        }
    }

    /// Per-channel *signal ascending points* (§IV-D1).
    ///
    /// The ascent threshold is deliberately **sensitive**: the channel's
    /// noise floor (10th percentile of its smoothed `ΔRSS²` — the padded
    /// idle margins) plus a small fraction of the window's strongest
    /// channel swing. This matches the paper's observation that ascending
    /// points of a detect-aimed gesture "almost occur simultaneously":
    /// when the thumb starts moving, *every* photodiode watching it
    /// crosses a just-above-noise threshold within a few samples, however
    /// unequal their amplitudes. A scroll is different in kind, not in
    /// degree — the far photodiode receives essentially no reflection at
    /// all until the finger physically enters its zone, so its ascent
    /// comes later than `I_g`. A channel that never crosses (the partial
    /// scroll that stops before `P3`) reports `None`.
    #[must_use]
    pub fn ascents(&self, config: &AirFingerConfig) -> Vec<Option<usize>> {
        const GLOBAL_FRACTION: f64 = 0.015;
        let (smoothed, floors): (Vec<_>, Vec<_>) = self.smoothed_with_floors().unzip();
        let global_peak = smoothed
            .iter()
            .zip(&floors)
            .map(|(c, &fl)| c.iter().map(|v| v - fl).fold(0.0, f64::max))
            .fold(0.0, f64::max);
        let sensitivity = (GLOBAL_FRACTION * global_peak).max(config.initial_threshold);
        smoothed
            .iter()
            .zip(&floors)
            .map(|(c, &floor)| {
                let threshold = floor + sensitivity;
                let mut run = 0usize;
                for (i, &v) in c.iter().enumerate() {
                    if v > threshold {
                        run += 1;
                        if run >= config.ascent_confirm {
                            return Some(i + 1 - run);
                        }
                    } else {
                        run = 0;
                    }
                }
                None
            })
            .collect()
    }
}

/// Result of [`GestureWindow::channel_timing`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelTiming {
    /// Whether each photodiode carried a meaningful share of the gesture
    /// energy.
    pub active: Vec<bool>,
    /// Index of the first active photodiode.
    pub first_active: Option<usize>,
    /// Index of the last active photodiode.
    pub last_active: Option<usize>,
    /// Envelope lag of the last active channel relative to the first, in
    /// samples (positive = last channel later). `None` when fewer than two
    /// channels are active.
    pub lag_samples: Option<isize>,
}

impl ChannelTiming {
    /// Number of active channels.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }
}

/// Energy-centroid lag between two equal-length envelopes: positive when
/// `e2`'s energy arrives later than `e1`'s. `None` when either envelope
/// carries no energy.
///
/// Why centroids: a detect-aimed gesture is a periodic/time-symmetric
/// motion, so every photodiode's energy centroid lands at the gesture
/// midpoint no matter how the per-channel envelope phase structure
/// differs; a scroll is a monotone crossing, so each channel's centroid is
/// the moment the finger passes that photodiode and the difference is an
/// unbiased estimate of the paper's `Δt`.
fn centroid_lag(e1: &[f64], e2: &[f64]) -> Option<isize> {
    let n = e1.len().min(e2.len());
    if n < 4 {
        return None;
    }
    let centroid = |e: &[f64]| -> Option<f64> {
        let total: f64 = e.iter().sum();
        if total <= 0.0 {
            return None;
        }
        Some(
            e.iter()
                .enumerate()
                .map(|(t, &v)| t as f64 * v)
                .sum::<f64>()
                / total,
        )
    };
    let c1 = centroid(&e1[..n])?;
    let c2 = centroid(&e2[..n])?;
    Some((c2 - c1).round() as isize)
}

/// Batch data processor.
#[derive(Debug, Clone, Copy)]
pub struct DataProcessor {
    config: AirFingerConfig,
}

impl DataProcessor {
    /// Create a processor with `config`.
    #[must_use]
    pub fn new(config: AirFingerConfig) -> Self {
        DataProcessor { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AirFingerConfig {
        &self.config
    }

    /// SBC-transform every channel of `trace`.
    #[must_use]
    pub fn sbc(&self, trace: &RssTrace) -> Vec<Vec<f64>> {
        Sbc::new(self.config.sbc_window).apply_multi(trace.channels())
    }

    /// Smoothed `ΔRSS²` used for thresholding and segmentation: a short
    /// moving average dilutes isolated shot-noise spikes (whose squared
    /// diffs would otherwise chain through the `t_e` merge rule into fake
    /// segments) while a sustained gesture passes through unchanged.
    #[must_use]
    pub fn smoothed(&self, delta: &[Vec<f64>]) -> Vec<Vec<f64>> {
        delta
            .iter()
            .map(|c| airfinger_dsp::filter::moving_average(c, 5))
            .collect()
    }

    /// Per-channel Otsu thresholds over the smoothed SBC output, floored
    /// at the configured initial threshold so a gesture-free recording
    /// does not split its noise floor in half.
    #[must_use]
    pub fn thresholds(&self, smoothed: &[Vec<f64>]) -> Vec<f64> {
        smoothed
            .iter()
            .map(|c| otsu_threshold(c).max(self.config.initial_threshold))
            .collect()
    }

    /// Segment a recording into gesture windows.
    #[must_use]
    pub fn process(&self, trace: &RssTrace) -> Vec<GestureWindow> {
        let (delta, _smoothed, thresholds, segments) = self.stages(trace);
        airfinger_obs::counter!("pipeline_windows_total").add(segments.len() as u64);
        segments
            .into_iter()
            .map(|seg| GestureWindow {
                segment: seg,
                raw: trace
                    .channels()
                    .iter()
                    .map(|c| seg.slice(c).to_vec())
                    .collect(),
                delta: delta.iter().map(|c| seg.slice(c).to_vec()).collect(),
                thresholds: thresholds.clone(),
                sample_rate_hz: trace.sample_rate_hz(),
            })
            .collect()
    }

    /// The gesture window of a *single-gesture recording*. The dominant
    /// (highest-energy) segment is selected, then neighbouring segments
    /// are absorbed when they plausibly belong to the same gesture: gap
    /// below the longest double-gesture pause (~0.6 s) **and** energy at
    /// least 8 % of the dominant segment's (tremor blips carry far less).
    /// This keeps a slow double click in one window without letting a
    /// stray noise burst stretch a single circle into a "double". Falls
    /// back to the whole trace when segmentation finds nothing.
    #[must_use]
    pub fn primary_window(&self, trace: &RssTrace) -> GestureWindow {
        let (delta, smoothed, thresholds, segments) = self.stages(trace);
        airfinger_obs::counter!("pipeline_windows_total").inc();
        let segment = self
            .dominant_span(&smoothed, &segments, trace.sample_rate_hz())
            .unwrap_or_else(|| Segment::new(0, trace.len()));
        GestureWindow {
            raw: trace
                .channels()
                .iter()
                .map(|c| segment.slice(c).to_vec())
                .collect(),
            delta: delta.iter().map(|c| segment.slice(c).to_vec()).collect(),
            segment,
            thresholds,
            sample_rate_hz: trace.sample_rate_hz(),
        }
    }

    /// The shared front half of [`DataProcessor::process`] and
    /// [`DataProcessor::primary_window`], with a latency span per stage:
    /// SBC, threshold computation, segmentation.
    #[allow(clippy::type_complexity)]
    // lint: hot-path-root — hosts the sbc/threshold/segment stage spans
    fn stages(&self, trace: &RssTrace) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<f64>, Vec<Segment>) {
        let delta = {
            let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "sbc");
            self.sbc(trace)
        };
        let (smoothed, thresholds) = {
            let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "threshold");
            let smoothed = self.smoothed(&delta);
            let thresholds = self.thresholds(&smoothed);
            (smoothed, thresholds)
        };
        if !thresholds.is_empty() {
            let mean = thresholds.iter().sum::<f64>() / thresholds.len() as f64;
            airfinger_obs::gauge!("pipeline_otsu_threshold").set(mean);
        }
        let segments = {
            let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "segment");
            Segmenter::new(self.config.segmenter).segment_multi(&smoothed, &thresholds)
        };
        airfinger_obs::counter!("pipeline_segments_found_total").add(segments.len() as u64);
        (delta, smoothed, thresholds, segments)
    }

    /// Merge the dominant segment with energetically comparable neighbours.
    fn dominant_span(
        &self,
        smoothed: &[Vec<f64>],
        segments: &[Segment],
        sample_rate_hz: f64,
    ) -> Option<Segment> {
        const ABSORB_ENERGY_FRACTION: f64 = 0.08;
        // Sub-strokes of one gesture sit closer than this (the envelope
        // notch where the derivative crosses zero); always absorb them.
        let near_gap = (0.30 * sample_rate_hz) as usize;
        // The two halves of a double gesture can sit this far apart
        // (double_gap plus the pulse tails); absorb only when the
        // neighbour carries gesture-level energy.
        let far_gap = (0.85 * sample_rate_hz) as usize;
        if segments.is_empty() {
            return None;
        }
        let energy_of = |s: &Segment| -> f64 {
            smoothed
                .iter()
                .map(|c| s.slice(c).iter().sum::<f64>())
                .sum()
        };
        let energies: Vec<f64> = segments.iter().map(energy_of).collect();
        let main = energies
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)?;
        let floor = ABSORB_ENERGY_FRACTION * energies[main];
        let absorbs =
            |gap: usize, energy: f64| gap <= near_gap || (gap <= far_gap && energy >= floor);
        let (mut lo, mut hi) = (main, main);
        while lo > 0 {
            let gap = segments[lo].start.saturating_sub(segments[lo - 1].end);
            if !absorbs(gap, energies[lo - 1]) {
                break;
            }
            lo -= 1;
        }
        while hi + 1 < segments.len() {
            let gap = segments[hi + 1].start.saturating_sub(segments[hi].end);
            if !absorbs(gap, energies[hi + 1]) {
                break;
            }
            hi += 1;
        }
        airfinger_obs::counter!("pipeline_segments_merged_total").add((hi - lo) as u64);
        Some(Segment::new(segments[lo].start, segments[hi].end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfinger_nir_sim::layout::SensorLayout;
    use airfinger_nir_sim::noise::NoiseModel;
    use airfinger_nir_sim::sampler::{Sampler, Scene};
    use airfinger_nir_sim::vec3::Vec3;
    use airfinger_synth::gesture::{Gesture, SampleLabel};
    use airfinger_synth::trajectory::{MotionParams, Trajectory};

    fn record(label: Gesture) -> RssTrace {
        let traj = Trajectory::generate(SampleLabel::Gesture(label), &MotionParams::default(), 3);
        let scene = Scene::new(SensorLayout::paper_prototype()).with_noise(NoiseModel::none());
        Sampler::new(scene, 100.0).sample(traj.duration_s(), 5, |t| traj.position(t))
    }

    fn processor() -> DataProcessor {
        DataProcessor::new(AirFingerConfig::default())
    }

    /// Build a raw RSS trace whose ΔRSS² approximates the given profile.
    fn raw_from_delta(delta_sq: &[f64]) -> Vec<f64> {
        let mut raw = Vec::with_capacity(delta_sq.len());
        let mut level = 300.0;
        let mut sign = 1.0;
        for (i, &d) in delta_sq.iter().enumerate() {
            if i % 12 == 0 {
                sign = -sign; // wiggle so the level stays bounded
            }
            level += sign * d.max(0.0).sqrt();
            raw.push(level);
        }
        raw
    }

    #[test]
    fn click_recording_yields_one_window() {
        let windows = processor().process(&record(Gesture::Click));
        assert_eq!(windows.len(), 1, "{windows:?}");
        let w = &windows[0];
        assert_eq!(w.channel_count(), 3);
        assert!(
            w.duration_s() > 0.1 && w.duration_s() < 1.2,
            "dur {}",
            w.duration_s()
        );
    }

    #[test]
    fn double_click_primary_window_spans_both_clicks() {
        // Even when the inter-click pause exceeds t_e and the halves
        // segment separately, the single-gesture convention spans them.
        let p = MotionParams {
            double_gap_s: 0.2,
            ..Default::default()
        };
        let traj = Trajectory::generate(SampleLabel::Gesture(Gesture::DoubleClick), &p, 3);
        let scene = Scene::new(SensorLayout::paper_prototype()).with_noise(NoiseModel::none());
        let trace = Sampler::new(scene, 100.0).sample(traj.duration_s(), 5, |t| traj.position(t));
        let proc = processor();
        let pieces = proc.process(&trace);
        let primary = proc.primary_window(&trace);
        assert!(primary.segment.len() >= pieces.iter().map(|w| w.segment.len()).sum::<usize>());
        // Both dips fall inside the primary window.
        assert!(primary.duration_s() > 0.5, "dur {}", primary.duration_s());
    }

    #[test]
    fn idle_recording_yields_no_window() {
        let scene = Scene::new(SensorLayout::paper_prototype()).with_noise(NoiseModel::none());
        let trace = Sampler::new(scene, 100.0).sample(1.0, 5, |_| Some(Vec3::new(0.0, 0.0, 0.02)));
        assert!(processor().process(&trace).is_empty());
    }

    #[test]
    fn window_slices_match_segment() {
        let trace = record(Gesture::Circle);
        let windows = processor().process(&trace);
        let w = &windows[0];
        assert_eq!(w.raw[0].len(), w.segment.len());
        assert_eq!(w.delta[0].len(), w.segment.len());
        assert_eq!(w.raw[0][0], trace.channel(0)[w.segment.start]);
    }

    #[test]
    fn primary_window_picks_gesture() {
        let trace = record(Gesture::Rub);
        let w = processor().primary_window(&trace);
        // The gesture occupies the middle of the trace; the window should
        // not span the entire recording.
        assert!(w.segment.len() < trace.len());
        assert!(w.segment.len() > 10);
    }

    #[test]
    fn primary_window_falls_back_to_whole_trace() {
        let scene = Scene::new(SensorLayout::paper_prototype()).with_noise(NoiseModel::none());
        let trace = Sampler::new(scene, 100.0).sample(0.5, 5, |_| Some(Vec3::new(0.0, 0.0, 0.02)));
        let w = processor().primary_window(&trace);
        assert_eq!(w.segment, Segment::new(0, trace.len()));
    }

    #[test]
    fn thresholds_floored_at_initial() {
        let delta = vec![vec![0.01; 100], vec![0.02; 100], vec![0.0; 100]];
        let t = processor().thresholds(&delta);
        assert!(t.iter().all(|&v| v >= 10.0));
    }

    #[test]
    fn every_gesture_is_segmented() {
        for g in Gesture::ALL {
            let windows = processor().process(&record(g));
            assert!(!windows.is_empty(), "{g} produced no window");
        }
    }

    #[test]
    fn envelopes_subtract_noise_floor() {
        // Constant-noise channels floor to zero; the burst survives.
        let n = 100;
        let mut delta = vec![6.0; n];
        for v in delta.iter_mut().take(60).skip(40) {
            *v = 120.0;
        }
        let w = GestureWindow {
            segment: Segment::new(0, n),
            raw: vec![delta.clone(); 3],
            delta: vec![delta; 3],
            thresholds: vec![10.0; 3],
            sample_rate_hz: 100.0,
        };
        let env = w.envelopes();
        assert!(env[0][..30].iter().all(|&v| v < 3.0), "floor removed");
        let peak = env[0].iter().cloned().fold(0.0f64, f64::max);
        assert!(peak > 80.0, "burst survives: {peak}");
    }

    #[test]
    fn channel_timing_orders_traveling_bumps() {
        let n = 140;
        let bump = |center: usize| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let d = (i as f64 - center as f64) / 8.0;
                    150.0 * (-d * d).exp()
                })
                .collect()
        };
        let w = GestureWindow {
            segment: Segment::new(0, n),
            raw: vec![bump(30), bump(60), bump(90)],
            delta: vec![bump(30), bump(60), bump(90)],
            thresholds: vec![10.0; 3],
            sample_rate_hz: 100.0,
        };
        let t = w.channel_timing(&AirFingerConfig::default());
        assert_eq!(t.active, vec![true, true, true]);
        assert_eq!(t.active_count(), 3);
        let lag = t.lag_samples.unwrap();
        assert!((55..=65).contains(&(lag as usize)), "lag {lag}");
    }

    #[test]
    fn channel_timing_flags_inactive_channels() {
        let n = 100;
        let loud: Vec<f64> = (0..n)
            .map(|i| if (40..60).contains(&i) { 200.0 } else { 1.0 })
            .collect();
        let quiet = vec![1.0; n];
        let w = GestureWindow {
            segment: Segment::new(0, n),
            raw: vec![loud.clone(), quiet.clone(), quiet],
            delta: vec![loud.clone(), vec![1.0; n], vec![1.0; n]],
            thresholds: vec![10.0; 3],
            sample_rate_hz: 100.0,
        };
        let t = w.channel_timing(&AirFingerConfig::default());
        assert_eq!(t.active, vec![true, false, false]);
        assert_eq!(t.first_active, Some(0));
        assert_eq!(t.last_active, Some(0));
        assert_eq!(t.lag_samples, None);
    }

    #[test]
    fn dominant_span_ignores_weak_distant_blip() {
        // A strong gesture at samples 100..160 and a weak tremor blip at
        // 230..240 (gap 0.7 s, energy far below 8%): the window must not
        // absorb the blip.
        let n = 300;
        let mut d = vec![0.0; n];
        for v in d.iter_mut().take(160).skip(100) {
            *v = 200.0;
        }
        for v in d.iter_mut().take(240).skip(230) {
            *v = 14.0;
        }
        let trace = RssTrace::from_channels(vec![raw_from_delta(&d); 3], 100.0);
        let w = processor().primary_window(&trace);
        assert!(
            w.segment.end <= 200,
            "window {:?} absorbed the blip",
            w.segment
        );
    }

    #[test]
    fn dominant_span_absorbs_equal_second_stroke() {
        // Two equal strokes 0.5 s apart (a slow double gesture): spanned.
        let n = 300;
        let mut d = vec![0.0; n];
        for v in d.iter_mut().take(120).skip(80) {
            *v = 200.0;
        }
        for v in d.iter_mut().take(220).skip(180) {
            *v = 190.0;
        }
        let trace = RssTrace::from_channels(vec![raw_from_delta(&d); 3], 100.0);
        let w = processor().primary_window(&trace);
        assert!(
            w.segment.start <= 85 && w.segment.end >= 210,
            "window {:?}",
            w.segment
        );
    }
}
