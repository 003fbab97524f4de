//! *Remove Other Interferences* (§IV-F): the gesture/non-gesture filter.
//!
//! Unintentional motions (scratching, repositioning) segment just like
//! gestures; a binary random forest over the bold 9-feature Table-I subset
//! decides whether a window is a deliberate gesture before it reaches the
//! recognizers. The 9 features are a subset of the 25, so (as the paper
//! notes) they "can be reused downstream without extra consumption
//! burden": the pipeline builds the filter's row and the recognizer's
//! Table-I row from one [`WindowFeatures`](crate::detect::WindowFeatures),
//! so a window the filter passes computes only the 16 other kinds.

use crate::config::AirFingerConfig;
use crate::detect::prepare_features;
use crate::error::AirFingerError;
use crate::processing::GestureWindow;
use airfinger_features::FeatureExtractor;
use airfinger_ml::classifier::Classifier;
use airfinger_ml::forest::{RandomForest, RandomForestConfig};
use serde::{Deserialize, Serialize};

/// Binary label used by the filter.
pub const LABEL_NON_GESTURE: usize = 0;
/// Binary label used by the filter.
pub const LABEL_GESTURE: usize = 1;

/// The gesture/non-gesture filter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NonGestureFilter {
    extractor: FeatureExtractor,
    forest: RandomForest,
    trained: bool,
}

impl NonGestureFilter {
    /// Create an untrained filter over the 9-feature subset.
    #[must_use]
    pub fn new(config: &AirFingerConfig) -> Self {
        NonGestureFilter {
            extractor: FeatureExtractor::nongesture9(),
            forest: RandomForest::new(RandomForestConfig {
                n_trees: config.forest_trees,
                seed: config.train_seed.wrapping_add(1),
                n_threads: config.n_threads,
                ..Default::default()
            }),
            trained: false,
        }
    }

    /// The 9-feature extractor.
    #[must_use]
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Feature vector of a window (same preparation as the recognizer —
    /// see [`prepare_features`]).
    #[must_use]
    pub fn features(&self, window: &GestureWindow) -> Vec<f64> {
        prepare_features(&self.extractor, window)
    }

    /// Train from precomputed feature vectors with binary labels
    /// ([`LABEL_GESTURE`] / [`LABEL_NON_GESTURE`]).
    ///
    /// # Errors
    ///
    /// Propagates classifier errors.
    pub fn train_features(&mut self, x: &[Vec<f64>], y: &[usize]) -> Result<(), AirFingerError> {
        self.forest.fit(x, y)?;
        self.trained = true;
        Ok(())
    }

    /// Whether a window is a deliberate gesture, judged from its
    /// [`NonGestureFilter::features`] row.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training and
    /// propagates classifier errors.
    pub fn is_gesture(&self, features: &[f64]) -> Result<bool, AirFingerError> {
        if !self.trained {
            return Err(AirFingerError::NotTrained);
        }
        Ok(self.forest.predict(features)? == LABEL_GESTURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfinger_dsp::segment::Segment;

    /// Gestures: strong periodic bursts. Non-gestures: weak drifty wiggle.
    fn toy_window(gesture: bool, seed: usize) -> GestureWindow {
        let n = 110;
        let delta: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                if gesture {
                    60.0 * (std::f64::consts::TAU * 3.0 * t).sin().powi(2)
                        * (1.0 + 0.05 * (seed % 7) as f64)
                } else {
                    6.0 * (std::f64::consts::TAU * (0.7 + 0.1 * (seed % 5) as f64) * t)
                        .sin()
                        .abs()
                }
            })
            .collect();
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
    fn separates_gestures_from_wiggle() {
        let cfg = AirFingerConfig {
            forest_trees: 15,
            ..Default::default()
        };
        let mut f = NonGestureFilter::new(&cfg);
        let mut x = Vec::new();
        let mut labels = Vec::new();
        for i in 0..15 {
            for (gesture, label) in [(true, LABEL_GESTURE), (false, LABEL_NON_GESTURE)] {
                x.push(f.features(&toy_window(gesture, i)));
                labels.push(label);
            }
        }
        f.train_features(&x, &labels).unwrap();
        assert!(f.is_gesture(&f.features(&toy_window(true, 99))).unwrap());
        assert!(!f.is_gesture(&f.features(&toy_window(false, 99))).unwrap());
    }

    #[test]
    fn untrained_errors() {
        let f = NonGestureFilter::new(&AirFingerConfig::default());
        assert_eq!(
            f.is_gesture(&f.features(&toy_window(true, 0))),
            Err(AirFingerError::NotTrained)
        );
    }

    #[test]
    fn uses_nine_feature_subset() {
        let f = NonGestureFilter::new(&AirFingerConfig::default());
        assert_eq!(f.extractor().kinds().len(), 9);
        // Reusability claim: every filter kind also appears in Table I.
        let table1 = airfinger_features::FeatureKind::table1();
        assert!(f.extractor().kinds().iter().all(|k| table1.contains(k)));
    }
}
