//! User-defined gestures — the §VI "Gesture Set" proposal: "it is an
//! interesting option to enable user-self-defined gestures … like
//! personalized icons, customized gestures can provide more space for
//! users to interact with their smart devices".
//!
//! A [`CustomRecognizer`] extends the eight built-in classes with any
//! number of user-registered gestures, each taught from a handful of
//! example recordings. Internally it is the same Table-I feature bank and
//! random forest, retrained over the union label space.

use crate::config::AirFingerConfig;
use crate::detect::prepare_features;
use crate::error::AirFingerError;
use crate::processing::{DataProcessor, GestureWindow};
use crate::train::{feature_set, LabeledFeatures};
use airfinger_features::FeatureExtractor;
use airfinger_ml::classifier::Classifier;
use airfinger_ml::forest::{RandomForest, RandomForestConfig};
use airfinger_nir_sim::trace::RssTrace;
use airfinger_synth::dataset::Corpus;
use airfinger_synth::gesture::Gesture;
use serde::{Deserialize, Serialize};

/// A label in the extended gesture space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExtendedLabel {
    /// One of the paper's eight gestures.
    Builtin(Gesture),
    /// A user-registered gesture, by name.
    Custom(String),
}

impl std::fmt::Display for ExtendedLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendedLabel::Builtin(g) => g.fmt(f),
            ExtendedLabel::Custom(name) => write!(f, "custom:{name}"),
        }
    }
}

/// A recognizer over the eight built-in gestures plus registered custom
/// ones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CustomRecognizer {
    config: AirFingerConfig,
    extractor: FeatureExtractor,
    forest: RandomForest,
    custom_names: Vec<String>,
    trained: bool,
}

impl CustomRecognizer {
    /// Create an untrained recognizer.
    #[must_use]
    pub fn new(config: AirFingerConfig) -> Self {
        CustomRecognizer {
            extractor: FeatureExtractor::table1(),
            forest: RandomForest::new(RandomForestConfig {
                n_trees: config.forest_trees,
                seed: config.train_seed.wrapping_add(2),
                n_threads: config.n_threads,
                ..Default::default()
            }),
            custom_names: Vec::new(),
            trained: false,
            config,
        }
    }

    /// The registered custom gesture names, in label order.
    #[must_use]
    pub fn custom_names(&self) -> &[String] {
        &self.custom_names
    }

    /// Whether training has succeeded.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Train over the built-in corpus plus user-registered gestures.
    ///
    /// Each entry of `custom` is a gesture name with its example
    /// recordings (one gesture per recording, like the corpus protocol).
    /// Labels `0..8` stay the built-in gestures; label `8 + k` is
    /// `custom[k]`.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::InvalidTrainingData`] for an empty corpus,
    /// a custom gesture with no examples, or a duplicate name; propagates
    /// classifier errors.
    pub fn train(
        &mut self,
        builtin: &Corpus,
        custom: &[(String, Vec<RssTrace>)],
    ) -> Result<(), AirFingerError> {
        if builtin.is_empty() {
            return Err(AirFingerError::InvalidTrainingData(
                "built-in corpus is empty",
            ));
        }
        let mut names: Vec<&str> = custom.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != custom.len() {
            return Err(AirFingerError::InvalidTrainingData(
                "duplicate custom gesture name",
            ));
        }
        let processor = DataProcessor::new(self.config);
        let LabeledFeatures { mut x, mut y, .. } =
            feature_set(builtin, &self.config, &self.extractor, |s| {
                s.label.gesture().map(|g| g.index())
            });
        for (k, (_, traces)) in custom.iter().enumerate() {
            if traces.is_empty() {
                return Err(AirFingerError::InvalidTrainingData(
                    "custom gesture registered with no examples",
                ));
            }
            for trace in traces {
                let w = processor.primary_window(trace);
                x.push(prepare_features(&self.extractor, &w));
                y.push(Gesture::ALL.len() + k);
            }
        }
        self.forest.fit(&x, &y)?;
        self.custom_names = custom.iter().map(|(n, _)| n.clone()).collect();
        self.trained = true;
        Ok(())
    }

    /// Recognize one window in the extended label space.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training.
    pub fn recognize_window(
        &self,
        window: &GestureWindow,
    ) -> Result<ExtendedLabel, AirFingerError> {
        if !self.trained {
            return Err(AirFingerError::NotTrained);
        }
        let idx = self
            .forest
            .predict(&prepare_features(&self.extractor, window))?;
        Ok(self.label_of(idx))
    }

    /// Recognize the primary window of a recording.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training.
    pub fn recognize(&self, trace: &RssTrace) -> Result<ExtendedLabel, AirFingerError> {
        let w = DataProcessor::new(self.config).primary_window(trace);
        self.recognize_window(&w)
    }

    fn label_of(&self, idx: usize) -> ExtendedLabel {
        match Gesture::from_index(idx) {
            Some(g) => ExtendedLabel::Builtin(g),
            None => {
                let k = (idx - Gesture::ALL.len()).min(self.custom_names.len().saturating_sub(1));
                ExtendedLabel::Custom(self.custom_names[k].clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfinger_nir_sim::sampler::{Sampler, Scene};
    use airfinger_nir_sim::{SensorLayout, Vec3};
    use airfinger_synth::dataset::{generate_corpus, CorpusSpec};

    /// A "Z-swipe": a gesture the paper's set does not contain — two quick
    /// lateral strokes at different heights.
    fn z_swipe(seed: u64) -> RssTrace {
        let sampler = Sampler::new(Scene::new(SensorLayout::paper_prototype()), 100.0);
        sampler.sample(1.4, seed, |t| {
            let z = if t < 0.5 { 0.018 } else { 0.013 };
            let phase = (t * 2.5).fract();
            Some(Vec3::new(-0.008 + 0.016 * phase, 0.002, z))
        })
    }

    fn small_corpus() -> Corpus {
        generate_corpus(&CorpusSpec {
            users: 2,
            sessions: 1,
            reps: 3,
            ..Default::default()
        })
    }

    #[test]
    fn learns_custom_gesture_alongside_builtins() {
        let config = AirFingerConfig {
            forest_trees: 25,
            ..Default::default()
        };
        let mut rec = CustomRecognizer::new(config);
        let examples: Vec<RssTrace> = (0..6).map(z_swipe).collect();
        rec.train(&small_corpus(), &[("z-swipe".into(), examples)])
            .unwrap();
        assert!(rec.is_trained());
        // A fresh z-swipe is recognized as the custom gesture.
        let got = rec.recognize(&z_swipe(99)).unwrap();
        assert_eq!(got, ExtendedLabel::Custom("z-swipe".into()));
        // Built-ins still recognized.
        let corpus = small_corpus();
        let mut correct = 0;
        let mut total = 0;
        for s in corpus.samples().iter().take(24) {
            total += 1;
            if rec.recognize(&s.trace).unwrap()
                == ExtendedLabel::Builtin(s.label.gesture().unwrap())
            {
                correct += 1;
            }
        }
        assert!(
            correct * 10 >= total * 7,
            "builtin accuracy {correct}/{total}"
        );
    }

    #[test]
    fn rejects_empty_examples() {
        let config = AirFingerConfig {
            forest_trees: 10,
            ..Default::default()
        };
        let mut rec = CustomRecognizer::new(config);
        let err = rec.train(&small_corpus(), &[("ghost".into(), vec![])]);
        assert!(matches!(err, Err(AirFingerError::InvalidTrainingData(_))));
    }

    #[test]
    fn rejects_duplicate_names() {
        let config = AirFingerConfig {
            forest_trees: 10,
            ..Default::default()
        };
        let mut rec = CustomRecognizer::new(config);
        let err = rec.train(
            &small_corpus(),
            &[
                ("a".into(), vec![z_swipe(1)]),
                ("a".into(), vec![z_swipe(2)]),
            ],
        );
        assert!(matches!(err, Err(AirFingerError::InvalidTrainingData(_))));
    }

    #[test]
    fn untrained_errors() {
        let rec = CustomRecognizer::new(AirFingerConfig::default());
        assert!(matches!(
            rec.recognize(&z_swipe(1)),
            Err(AirFingerError::NotTrained)
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ExtendedLabel::Builtin(Gesture::Rub).to_string(), "rub");
        assert_eq!(
            ExtendedLabel::Custom("wave".into()).to_string(),
            "custom:wave"
        );
    }
}
