//! Distinguishing detect-aimed from track-aimed gestures (§IV-E).
//!
//! "When performing a detect-aimed gesture, signal ascending points from
//! all PDs almost occur simultaneously … when performing a track-aimed
//! gesture, signal ascending points from all PDs occur in orders." The
//! rule: ascent spread below `I_g` (30 ms) ⇒ detect-aimed; above ⇒
//! track-aimed.

use crate::config::AirFingerConfig;
use crate::processing::GestureWindow;
use serde::{Deserialize, Serialize};

/// The two gesture families of §III-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GestureFamily {
    /// Recognized from features (circle, rub, click families).
    DetectAimed,
    /// Tracked by ZEBRA (scrolls).
    TrackAimed,
}

/// Family distinguisher.
#[derive(Debug, Clone, Copy)]
pub struct Distinguisher {
    config: AirFingerConfig,
}

impl Distinguisher {
    /// Create a distinguisher with `config`.
    #[must_use]
    pub fn new(config: AirFingerConfig) -> Self {
        Distinguisher { config }
    }

    /// Per-channel ascending points within a window (see
    /// [`GestureWindow::ascents`]).
    #[must_use]
    pub fn ascents(&self, window: &GestureWindow) -> Vec<Option<usize>> {
        window.ascents(&self.config)
    }

    /// Classify the window's family.
    ///
    /// Detect-aimed when the cross-channel envelope lag (the paper's time
    /// difference between signal ascending points) is below `I_g`;
    /// track-aimed when it is at least `I_g` **or** when only one *outer*
    /// photodiode carries gesture energy (the paper's partial-scroll case:
    /// a scroll passing only `P1` is still a scroll).
    #[must_use]
    // lint: hot-path-root — hosts the distinguish stage span
    pub fn classify(&self, window: &GestureWindow) -> GestureFamily {
        let _span = airfinger_obs::span!("pipeline_stage_seconds", stage = "distinguish");
        let timing = window.channel_timing(&self.config);
        let ig = self.config.ig_samples() as isize;
        let family = match timing.lag_samples {
            Some(lag) => {
                if lag.abs() >= ig {
                    GestureFamily::TrackAimed
                } else {
                    GestureFamily::DetectAimed
                }
            }
            None => {
                let n = timing.active.len();
                let lone_outer = timing.active_count() == 1
                    && n >= 2
                    && (timing.active[0] || timing.active[n - 1]);
                if lone_outer {
                    GestureFamily::TrackAimed
                } else {
                    GestureFamily::DetectAimed
                }
            }
        };
        match family {
            GestureFamily::DetectAimed => {
                airfinger_obs::counter!("pipeline_family_total", family = "detect").inc();
            }
            GestureFamily::TrackAimed => {
                airfinger_obs::counter!("pipeline_family_total", family = "track").inc();
            }
        }
        family
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfinger_dsp::segment::Segment;

    /// Build a 3-channel window with Gaussian energy bumps centered at the
    /// given samples (None = channel stays at the noise floor).
    fn window_with_bumps(centers: [Option<usize>; 3], n: usize) -> GestureWindow {
        let delta: Vec<Vec<f64>> = centers
            .iter()
            .map(|c| {
                (0..n)
                    .map(|i| match c {
                        Some(center) => {
                            let d = (i as f64 - *center as f64) / 8.0;
                            120.0 * (-d * d).exp()
                        }
                        None => 0.5,
                    })
                    .collect()
            })
            .collect();
        GestureWindow {
            segment: Segment::new(0, n),
            raw: delta.clone(),
            delta,
            thresholds: vec![10.0; 3],
            sample_rate_hz: 100.0,
        }
    }

    fn distinguisher() -> Distinguisher {
        Distinguisher::new(AirFingerConfig::default())
    }

    #[test]
    fn simultaneous_envelopes_are_detect_aimed() {
        let w = window_with_bumps([Some(50), Some(51), Some(50)], 120);
        assert_eq!(distinguisher().classify(&w), GestureFamily::DetectAimed);
    }

    #[test]
    fn traveling_envelopes_are_track_aimed() {
        // 200 ms lag >> I_g = 30 ms.
        let w = window_with_bumps([Some(30), Some(50), Some(70)], 140);
        assert_eq!(distinguisher().classify(&w), GestureFamily::TrackAimed);
    }

    #[test]
    fn lag_at_ig_is_track_aimed() {
        let ig = AirFingerConfig::default().ig_samples();
        let w = window_with_bumps([Some(40), Some(40), Some(40 + 2 * ig)], 140);
        assert_eq!(distinguisher().classify(&w), GestureFamily::TrackAimed);
    }

    #[test]
    fn lone_outer_channel_is_partial_scroll() {
        let only_p1 = window_with_bumps([Some(40), None, None], 100);
        let only_p3 = window_with_bumps([None, None, Some(40)], 100);
        assert_eq!(
            distinguisher().classify(&only_p1),
            GestureFamily::TrackAimed
        );
        assert_eq!(
            distinguisher().classify(&only_p3),
            GestureFamily::TrackAimed
        );
    }

    #[test]
    fn lone_middle_channel_is_detect_aimed() {
        let w = window_with_bumps([None, Some(40), None], 100);
        assert_eq!(distinguisher().classify(&w), GestureFamily::DetectAimed);
    }

    #[test]
    fn no_energy_defaults_to_detect_aimed() {
        let w = window_with_bumps([None, None, None], 100);
        assert_eq!(distinguisher().classify(&w), GestureFamily::DetectAimed);
    }

    #[test]
    fn ascents_preserve_ordering_and_absence() {
        let w = window_with_bumps([Some(30), Some(60), None], 120);
        let a = distinguisher().ascents(&w);
        let (a0, a1) = (a[0].unwrap(), a[1].unwrap());
        assert!(a0 < a1, "ascent order: {a0} vs {a1}");
    }

    #[test]
    fn timing_reports_active_channels() {
        let w = window_with_bumps([Some(30), None, Some(70)], 120);
        let timing = w.channel_timing(&AirFingerConfig::default());
        assert_eq!(timing.active, vec![true, false, true]);
        assert_eq!(timing.first_active, Some(0));
        assert_eq!(timing.last_active, Some(2));
        let lag = timing.lag_samples.unwrap();
        assert!((35..=45).contains(&(lag as usize)), "lag {lag}");
    }
}
