//! Gesture recognition (§IV-C): Table-I features over the processed
//! window, classified by a random forest.
//!
//! The recognizer covers **all eight** gestures: the six detect-aimed
//! classes plus the two scrolls. Routing a window to ZEBRA via the
//! recognized class (rather than the raw `I_g` ascent rule, which is also
//! implemented in [`crate::distinguish`]) is a robustness substitution:
//! on the simulated optics the wide photodiode cones overlap enough that a
//! micro gesture's per-channel envelope phases mimic small travel lags,
//! while the forest sees the whole multi-channel shape.

use crate::config::AirFingerConfig;
use crate::error::AirFingerError;
use crate::processing::GestureWindow;
use airfinger_features::FeatureExtractor;
use airfinger_ml::classifier::Classifier;
use airfinger_ml::forest::{RandomForest, RandomForestConfig};
use airfinger_synth::gesture::Gesture;
use serde::{Deserialize, Serialize};

/// Build the recognition feature vector of a window.
///
/// §IV-C1: "features based on specific RSS values are not appropriate for
/// classification" because amplitude varies with the user's finger
/// position and habits. Each channel's `ΔRSS²` is therefore normalized by
/// the window's global peak before the Table-I bank runs (shape features
/// become user-invariant), and a small set of explicitly scale-bearing
/// descriptors is appended: the window duration, the log global energy,
/// and each channel's share of that energy (the cross-channel energy
/// pattern encodes where over the board the gesture happened).
#[must_use]
pub fn prepare_features(extractor: &FeatureExtractor, window: &GestureWindow) -> Vec<f64> {
    let global_peak = window
        .delta
        .iter()
        .flat_map(|c| c.iter())
        .fold(0.0f64, |m, &v| m.max(v))
        .max(f64::MIN_POSITIVE);
    let normalized: Vec<Vec<f64>> = window
        .delta
        .iter()
        .map(|c| c.iter().map(|v| v / global_peak).collect())
        .collect();
    let mut out = extractor.extract_multi(&normalized);
    // ΔRSS² is non-negative by construction, but windows built by callers
    // may carry arbitrary data: clamp energies at zero before forming
    // shares so hostile inputs cannot produce non-finite features.
    let energies: Vec<f64> = window
        .delta
        .iter()
        .map(|c| c.iter().map(|v| v.max(0.0)).sum::<f64>())
        .collect();
    let total: f64 = energies.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    out.push(window.duration_s());
    out.push(total.ln());
    for e in &energies {
        out.push(e / total);
    }
    out.into_iter()
        .map(|v| if v.is_finite() { v } else { 0.0 })
        .collect()
}

/// Number of scale-bearing descriptors [`prepare_features`] appends after
/// the per-channel feature bank.
#[must_use]
pub fn extra_feature_count(channel_count: usize) -> usize {
    2 + channel_count
}

/// Recognizer for the eight gestures.
///
/// Labels are gesture indices `0..8` in [`Gesture::ALL`] order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectRecognizer {
    extractor: FeatureExtractor,
    forest: RandomForest,
    trained: bool,
}

impl DetectRecognizer {
    /// Create an untrained recognizer using the full Table-I feature bank.
    #[must_use]
    pub fn new(config: &AirFingerConfig) -> Self {
        DetectRecognizer {
            extractor: FeatureExtractor::table1(),
            forest: RandomForest::new(RandomForestConfig {
                n_trees: config.forest_trees,
                seed: config.train_seed,
                n_threads: config.n_threads,
                ..Default::default()
            }),
            trained: false,
        }
    }

    /// The feature extractor in use.
    #[must_use]
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Whether [`DetectRecognizer::train`] has succeeded.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Feature vector of a window (see [`prepare_features`]).
    #[must_use]
    pub fn features(&self, window: &GestureWindow) -> Vec<f64> {
        prepare_features(&self.extractor, window)
    }

    /// Train from precomputed feature vectors (labels are gesture indices).
    ///
    /// # Errors
    ///
    /// Propagates classifier errors (empty/ragged/non-finite data).
    pub fn train_features(&mut self, x: &[Vec<f64>], y: &[usize]) -> Result<(), AirFingerError> {
        self.forest.fit(x, y)?;
        self.trained = true;
        Ok(())
    }

    /// Train from gesture windows.
    ///
    /// # Errors
    ///
    /// Propagates classifier errors.
    pub fn train(
        &mut self,
        windows: &[GestureWindow],
        labels: &[usize],
    ) -> Result<(), AirFingerError> {
        let x: Vec<Vec<f64>> = windows.iter().map(|w| self.features(w)).collect();
        self.train_features(&x, labels)
    }

    /// Predict the gesture index of a window.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training.
    // lint: hot-path-root — hosts the features/rf_predict stage spans
    pub fn predict_index(&self, window: &GestureWindow) -> Result<usize, AirFingerError> {
        if !self.trained {
            return Err(AirFingerError::NotTrained);
        }
        let features = {
            let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "features");
            self.features(window)
        };
        let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "rf_predict");
        Ok(self.forest.predict(&features)?)
    }

    /// Predict the gesture index from a precomputed feature row (the
    /// counterpart of [`DetectRecognizer::train_features`]).
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training and
    /// propagates classifier errors on width mismatch.
    pub fn predict_features(&self, features: &[f64]) -> Result<usize, AirFingerError> {
        if !self.trained {
            return Err(AirFingerError::NotTrained);
        }
        Ok(self.forest.predict(features)?)
    }

    /// Predict gesture indices for many precomputed feature rows in one
    /// matrix-shaped forest pass. Row `i` of the result is exactly
    /// [`DetectRecognizer::predict_features`] of row `i` of the input —
    /// the forest's batch path is pinned bit-identical to its serial path
    /// at any thread count — which is what lets the fleet serving layer
    /// batch inference across sessions without changing any result.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training and
    /// propagates classifier errors on width mismatch.
    pub fn predict_features_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<usize>, AirFingerError> {
        if !self.trained {
            return Err(AirFingerError::NotTrained);
        }
        Ok(self.forest.predict_batch(xs)?)
    }

    /// Predict the gesture of a window.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training.
    pub fn predict(&self, window: &GestureWindow) -> Result<Gesture, AirFingerError> {
        let idx = self.predict_index(window)?;
        Gesture::from_index(idx.min(Gesture::ALL.len() - 1)).ok_or(AirFingerError::Ml(
            airfinger_ml::MlError::InvalidData("predicted label outside the gesture set"),
        ))
    }

    /// Feature importances of the trained forest (empty before training),
    /// aligned with [`DetectRecognizer::feature_names`].
    #[must_use]
    pub fn feature_importances(&self) -> &[f64] {
        self.forest.feature_importances()
    }

    /// Names of the multi-channel feature scalars for `channel_count`
    /// photodiodes, including the appended scale descriptors.
    #[must_use]
    pub fn feature_names(&self, channel_count: usize) -> Vec<String> {
        let mut names = self.extractor.names_multi(channel_count);
        names.push("duration_s".into());
        names.push("log_total_energy".into());
        for ch in 0..channel_count {
            names.push(format!("p{ch}_energy_share"));
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfinger_dsp::segment::Segment;

    /// Tiny synthetic windows: class 0 has one energy bump, class 1 two.
    fn toy_window(class: usize, jitter: usize) -> GestureWindow {
        let n = 100;
        let mut delta = vec![0.0; n];
        let bump = |d: &mut Vec<f64>, at: usize| {
            for i in 0..20 {
                d[at + i] = 50.0 * ((i as f64 / 20.0) * std::f64::consts::PI).sin();
            }
        };
        bump(&mut delta, 10 + jitter);
        if class == 1 {
            bump(&mut delta, 60 + jitter);
        }
        let chans = vec![delta.clone(), delta.clone(), delta];
        GestureWindow {
            segment: Segment::new(0, n),
            raw: chans.clone(),
            delta: chans,
            thresholds: vec![10.0; 3],
            sample_rate_hz: 100.0,
        }
    }

    #[test]
    fn learns_toy_classes() {
        let cfg = AirFingerConfig {
            forest_trees: 15,
            ..Default::default()
        };
        let mut rec = DetectRecognizer::new(&cfg);
        let windows: Vec<GestureWindow> = (0..20).map(|i| toy_window(i % 2, i / 2)).collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        rec.train(&windows, &labels).unwrap();
        assert!(rec.is_trained());
        for (w, &l) in windows.iter().zip(&labels) {
            assert_eq!(rec.predict_index(w).unwrap(), l);
        }
    }

    #[test]
    fn predict_maps_to_detect_gestures() {
        let cfg = AirFingerConfig {
            forest_trees: 10,
            ..Default::default()
        };
        let mut rec = DetectRecognizer::new(&cfg);
        let windows: Vec<GestureWindow> = (0..12).map(|i| toy_window(i % 2, i / 2)).collect();
        let labels: Vec<usize> = (0..12).map(|i| i % 2).collect();
        rec.train(&windows, &labels).unwrap();
        let g = rec.predict(&toy_window(0, 3)).unwrap();
        assert_eq!(g, Gesture::Circle); // detect index 0
    }

    #[test]
    fn untrained_errors() {
        let rec = DetectRecognizer::new(&AirFingerConfig::default());
        assert_eq!(
            rec.predict_index(&toy_window(0, 0)),
            Err(AirFingerError::NotTrained)
        );
    }

    #[test]
    fn feature_vector_width_is_channels_times_bank() {
        let rec = DetectRecognizer::new(&AirFingerConfig::default());
        let w = toy_window(0, 0);
        let f = rec.features(&w);
        assert_eq!(f.len(), 3 * rec.extractor().len() + extra_feature_count(3));
        assert_eq!(rec.feature_names(3).len(), f.len());
    }

    #[test]
    fn importances_populate_after_training() {
        let cfg = AirFingerConfig {
            forest_trees: 8,
            ..Default::default()
        };
        let mut rec = DetectRecognizer::new(&cfg);
        assert!(rec.feature_importances().is_empty());
        let windows: Vec<GestureWindow> = (0..10).map(|i| toy_window(i % 2, i / 2)).collect();
        let labels: Vec<usize> = (0..10).map(|i| i % 2).collect();
        rec.train(&windows, &labels).unwrap();
        assert_eq!(
            rec.feature_importances().len(),
            3 * rec.extractor().len() + extra_feature_count(3)
        );
    }
}
