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
use airfinger_features::{FeatureExtractor, FeatureKind};
use airfinger_ml::classifier::Classifier;
use airfinger_ml::forest::{RandomForest, RandomForestConfig};
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
    WindowFeatures::new(window).row(extractor)
}

/// The feature columns of one window, shared by every row built from it:
/// each [`FeatureKind`] runs once per channel, for whichever row first
/// needs it. The filter's nine kinds are a subset of Table I, so (§IV-F)
/// they "can be reused downstream without extra consumption burden".
#[derive(Debug)]
pub struct WindowFeatures<'w> {
    window: &'w GestureWindow,
    /// Each channel's `ΔRSS²` over the window's global peak.
    normalized: Vec<Vec<f64>>,
    /// Each computed kind with the start of its values in `columns`
    /// (one run of [`FeatureKind::arity`] values per channel).
    computed: Vec<(FeatureKind, usize)>,
    columns: Vec<f64>,
}

impl<'w> WindowFeatures<'w> {
    /// Normalize the channels of `window`; no kind is computed yet.
    #[must_use]
    pub fn new(window: &'w GestureWindow) -> Self {
        let global_peak = window
            .delta
            .iter()
            .flat_map(|c| c.iter())
            .fold(0.0f64, |m, &v| m.max(v))
            .max(f64::MIN_POSITIVE);
        let normalized = window
            .delta
            .iter()
            .map(|c| c.iter().map(|v| v / global_peak).collect())
            .collect();
        WindowFeatures {
            window,
            normalized,
            computed: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// The row [`prepare_features`]`(extractor, window)` returns, computing
    /// only the kinds no earlier row of this window computed (each kind's
    /// values are independent of the others, so the row is the same).
    pub fn row(&mut self, extractor: &FeatureExtractor) -> Vec<f64> {
        for &kind in extractor.kinds() {
            if self.start_of(kind).is_none() {
                self.computed.push((kind, self.columns.len()));
                for x in &self.normalized {
                    self.columns.extend(kind.values(x));
                }
            }
        }
        let channels = self.normalized.len();
        let mut out =
            Vec::with_capacity(channels * extractor.len() + extra_feature_count(channels));
        for channel in 0..channels {
            for &kind in extractor.kinds() {
                // Every kind of `extractor` was computed above.
                let at = self.start_of(kind).unwrap_or(0) + channel * kind.arity();
                out.extend_from_slice(&self.columns[at..at + kind.arity()]);
            }
        }
        // ΔRSS² is non-negative by construction, but windows built by
        // callers may carry arbitrary data: clamp energies at zero before
        // forming shares so hostile inputs cannot produce non-finite
        // features.
        let energy = |c: &Vec<f64>| c.iter().map(|v| v.max(0.0)).sum::<f64>();
        let delta = &self.window.delta;
        let total: f64 = delta.iter().map(energy).sum::<f64>().max(f64::MIN_POSITIVE);
        out.push(self.window.duration_s());
        out.push(total.ln());
        out.extend(delta.iter().map(|c| energy(c) / total));
        out.iter_mut()
            .filter(|v| !v.is_finite())
            .for_each(|v| *v = 0.0);
        out
    }

    fn start_of(&self, kind: FeatureKind) -> Option<usize> {
        self.computed
            .iter()
            .find_map(|&(k, at)| (k == kind).then_some(at))
    }
}

/// Number of scale-bearing descriptors [`prepare_features`] appends after
/// the per-channel feature bank.
#[must_use]
pub fn extra_feature_count(channel_count: usize) -> usize {
    2 + channel_count
}

/// Recognizer for the eight gestures.
///
/// Labels are gesture indices `0..8` in
/// [`Gesture::ALL`](airfinger_synth::gesture::Gesture::ALL) order.
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

    /// Whether [`DetectRecognizer::train_features`] has succeeded.
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
pub(crate) mod tests {
    use super::*;
    use airfinger_dsp::segment::Segment;
    use airfinger_synth::gesture::Gesture;

    /// [`prepare_features`] as one extraction per call, without shared
    /// columns: the reference the shared-column rows are checked against.
    pub(crate) fn reference_features(
        extractor: &FeatureExtractor,
        window: &GestureWindow,
    ) -> Vec<f64> {
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
    fn shared_columns_match_one_extraction_per_row() {
        let with_delta = |delta: Vec<Vec<f64>>| GestureWindow {
            segment: Segment::new(0, delta.first().map_or(0, Vec::len)),
            raw: delta.clone(),
            delta,
            thresholds: vec![10.0; 3],
            sample_rate_hz: 100.0,
        };
        let mut windows = vec![toy_window(0, 3), toy_window(1, 4)];
        // Degenerate windows: no channels, empty, one sample, constant,
        // all-zero, short, unequal lengths, non-finite and negative samples.
        windows.push(with_delta(vec![]));
        windows.push(with_delta(vec![vec![]; 3]));
        windows.push(with_delta(vec![vec![4.0]; 3]));
        windows.push(with_delta(vec![vec![2.5; 40]; 3]));
        windows.push(with_delta(vec![vec![0.0; 40]; 3]));
        windows.push(with_delta(vec![vec![1.0, 3.0, 2.0]; 2]));
        windows.push(with_delta(vec![vec![1.0; 5], vec![2.0; 9], vec![]]));
        windows.push(with_delta(vec![vec![-3.0, 1.0, -2.0, 0.5]; 3]));
        let mut bad = toy_window(1, 5);
        bad.delta[1][17] = f64::NAN;
        bad.delta[2][40] = f64::INFINITY;
        windows.push(bad);
        let nine = FeatureExtractor::nongesture9();
        let table1 = FeatureExtractor::table1();
        // Shares SampEn with both, adds kinds neither has.
        let other = FeatureExtractor::new(vec![
            FeatureKind::Skewness,
            FeatureKind::SampleEntropy,
            FeatureKind::Mean,
        ]);
        let bits = |row: Vec<f64>| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for w in &windows {
            for order in [[&nine, &table1, &other], [&table1, &other, &nine]] {
                let mut columns = WindowFeatures::new(w);
                for extractor in order {
                    assert_eq!(
                        bits(columns.row(extractor)),
                        bits(reference_features(extractor, w)),
                        "{} channels, {} kinds",
                        w.channel_count(),
                        extractor.kinds().len()
                    );
                }
            }
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
        let x: Vec<Vec<f64>> = windows.iter().map(|w| rec.features(w)).collect();
        rec.train_features(&x, &labels).unwrap();
        assert!(rec.is_trained());
        for (w, &l) in windows.iter().zip(&labels) {
            assert_eq!(rec.predict_features(&rec.features(w)).unwrap(), l);
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
        let x: Vec<Vec<f64>> = windows.iter().map(|w| rec.features(w)).collect();
        rec.train_features(&x, &labels).unwrap();
        let index = rec
            .predict_features(&rec.features(&toy_window(0, 3)))
            .unwrap();
        assert_eq!(Gesture::from_index(index), Some(Gesture::Circle)); // index 0
    }

    #[test]
    fn untrained_errors() {
        let rec = DetectRecognizer::new(&AirFingerConfig::default());
        assert_eq!(
            rec.predict_features(&rec.features(&toy_window(0, 0))),
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
        let x: Vec<Vec<f64>> = windows.iter().map(|w| rec.features(w)).collect();
        rec.train_features(&x, &labels).unwrap();
        assert_eq!(
            rec.feature_importances().len(),
            3 * rec.extractor().len() + extra_feature_count(3)
        );
    }
}
