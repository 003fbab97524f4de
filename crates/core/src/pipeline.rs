//! The end-to-end airFinger pipeline facade.

use crate::config::AirFingerConfig;
use crate::detect::{DetectRecognizer, WindowFeatures};
use crate::error::AirFingerError;
use crate::events::Recognition;
use crate::filter::{NonGestureFilter, LABEL_NON_GESTURE};
use crate::processing::{DataProcessor, GestureWindow};
use crate::train::{feature_set, map_windows};
use crate::zebra::{ScrollDirection, ScrollTrack, VelocitySource, Zebra};
use airfinger_nir_sim::trace::RssTrace;
use airfinger_synth::dataset::Corpus;
use airfinger_synth::gesture::Gesture;
use serde::{Deserialize, Serialize};

/// The complete recognizer: data processing, interference filtering,
/// family distinguishing, detect-aimed recognition and ZEBRA tracking.
///
/// # Example
///
/// ```no_run
/// use airfinger_core::pipeline::AirFinger;
/// use airfinger_core::config::AirFingerConfig;
/// use airfinger_synth::dataset::{generate_corpus, CorpusSpec};
///
/// let corpus = generate_corpus(&CorpusSpec::small(1));
/// let mut af = AirFinger::new(AirFingerConfig::default());
/// af.train_on_corpus(&corpus, None)?;
/// for sample in corpus.samples() {
///     for event in af.recognize_trace(&sample.trace)? {
///         println!("{event}");
///     }
/// }
/// # Ok::<(), airfinger_core::error::AirFingerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AirFinger {
    config: AirFingerConfig,
    processor: DataProcessor,
    zebra: Zebra,
    detect: DetectRecognizer,
    filter: Option<NonGestureFilter>,
}

/// The serialized form of a (possibly trained) pipeline: everything except
/// the stateless stages, which are rebuilt from the config on load. This
/// is what lets a wearable train once on a workstation and ship the model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedPipeline {
    /// Pipeline configuration.
    pub config: AirFingerConfig,
    /// The trained gesture recognizer.
    pub detect: DetectRecognizer,
    /// The trained interference filter, if any.
    pub filter: Option<NonGestureFilter>,
}

impl From<AirFinger> for SavedPipeline {
    fn from(af: AirFinger) -> Self {
        SavedPipeline {
            config: af.config,
            detect: af.detect,
            filter: af.filter,
        }
    }
}

impl From<SavedPipeline> for AirFinger {
    fn from(saved: SavedPipeline) -> Self {
        AirFinger {
            config: saved.config,
            processor: DataProcessor::new(saved.config),
            zebra: Zebra::new(saved.config),
            detect: saved.detect,
            filter: saved.filter,
        }
    }
}

// Serialized via [`SavedPipeline`]: the stateless stages are rebuilt from
// the config on load.
impl Serialize for AirFinger {
    fn to_value(&self) -> serde::Value {
        SavedPipeline::from(self.clone()).to_value()
    }
}

impl Deserialize for AirFinger {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        SavedPipeline::from_value(value).map(AirFinger::from)
    }
}

/// A gesture window after [`AirFinger::prepare_window`]: either already
/// finalized by the interference filter, or carrying the feature row that
/// still needs a random-forest prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedWindow {
    /// The interference filter rejected the window; the recognition is
    /// final and no forest prediction is needed.
    Rejected(Recognition),
    /// The window passed the filter. Classify the feature row (alone or
    /// batched with rows from other windows) and hand the predicted index
    /// to [`AirFinger::finish_window`].
    Pending(Vec<f64>),
}

impl AirFinger {
    /// Create an untrained pipeline.
    #[must_use]
    pub fn new(config: AirFingerConfig) -> Self {
        AirFinger {
            config,
            processor: DataProcessor::new(config),
            zebra: Zebra::new(config),
            detect: DetectRecognizer::new(&config),
            filter: None,
        }
    }

    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &AirFingerConfig {
        &self.config
    }

    /// The data processor (SBC + segmentation).
    #[must_use]
    pub fn processor(&self) -> &DataProcessor {
        &self.processor
    }

    /// The detect-aimed recognizer.
    #[must_use]
    pub fn detect_recognizer(&self) -> &DetectRecognizer {
        &self.detect
    }

    /// Whether the detect recognizer has been trained.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.detect.is_trained()
    }

    /// Whether the non-gesture filter is active.
    #[must_use]
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Train the pipeline on a gesture corpus, and optionally the
    /// interference filter on a non-gesture corpus.
    ///
    /// The filter learns every gesture-corpus sample (non-gesture samples
    /// in it as non-gestures), then every non-gesture-corpus sample. Each
    /// gesture-corpus window feeds both forests from one
    /// [`WindowFeatures`]; non-gesture windows compute only the filter's
    /// nine kinds.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::InvalidTrainingData`] when the corpus
    /// holds no detect-aimed gestures, and propagates classifier errors.
    pub fn train_on_corpus(
        &mut self,
        gestures: &Corpus,
        nongestures: Option<&Corpus>,
    ) -> Result<(), AirFingerError> {
        self.config
            .validate()
            .map_err(AirFingerError::InvalidConfig)?;
        let filter = nongestures.map(|_| NonGestureFilter::new(&self.config));
        // A gesture sample (`Some(index)`) feeds both forests, a
        // non-gesture one (`None`) only the filter.
        let rows = map_windows(
            gestures,
            &self.config,
            |s| match s.label.gesture() {
                Some(g) => Some(Some(g.index())),
                None => filter.as_ref().map(|_| None),
            },
            |gesture, window| {
                let mut columns = WindowFeatures::new(window);
                let filter_row = filter.as_ref().map(|f| columns.row(f.extractor()));
                (
                    gesture.map(|_| columns.row(self.detect.extractor())),
                    filter_row,
                )
            },
        );
        let (mut x, mut y, mut filter_x, mut filter_y) = (vec![], vec![], vec![], vec![]);
        for (_, gesture, (detect_row, filter_row)) in rows {
            x.extend(detect_row);
            y.extend(gesture);
            if let Some(row) = filter_row {
                filter_x.push(row);
                filter_y.push(usize::from(gesture.is_some()));
            }
        }
        if x.is_empty() {
            return Err(AirFingerError::InvalidTrainingData(
                "corpus holds no gesture samples",
            ));
        }
        self.detect.train_features(&x, &y)?;
        if let (Some(mut filter), Some(non)) = (filter, nongestures) {
            if non.is_empty() {
                return Err(AirFingerError::InvalidTrainingData(
                    "non-gesture corpus is empty",
                ));
            }
            let non_set = feature_set(non, &self.config, filter.extractor(), |s| {
                Some(usize::from(s.label.is_gesture()))
            });
            filter_x.extend(non_set.x);
            filter_y.extend(non_set.y);
            // Every gesture row above is a filter positive.
            if !filter_y.contains(&LABEL_NON_GESTURE) {
                return Err(AirFingerError::InvalidTrainingData(
                    "filter training needs both gestures and non-gestures",
                ));
            }
            filter.train_features(&filter_x, &filter_y)?;
            self.filter = Some(filter);
        }
        Ok(())
    }

    /// (Re)train only the gesture recognizer from precomputed feature
    /// rows (labels are gesture indices), leaving the interference filter
    /// untouched. This is the retraining entry point used by
    /// [`crate::adapt::UserAdapter`] and by callers training from real
    /// recordings rather than a synthetic [`Corpus`].
    ///
    /// # Errors
    ///
    /// Propagates classifier errors (empty/ragged/non-finite data).
    pub fn train_detect_features(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
    ) -> Result<(), AirFingerError> {
        self.detect.train_features(x, y)
    }

    /// Recognize one already-segmented gesture window.
    ///
    /// Exactly [`AirFinger::prepare_window`] followed by one forest
    /// prediction and [`AirFinger::finish_window`] — the fleet serving
    /// layer runs the same three stages with the middle one batched
    /// across sessions, so batched and sequential results are identical
    /// by construction.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training.
    // lint: hot-path-root — hosts the rf_predict stage span
    pub fn recognize_window(&self, window: &GestureWindow) -> Result<Recognition, AirFingerError> {
        match self.prepare_window(window)? {
            PreparedWindow::Rejected(recognition) => Ok(recognition),
            PreparedWindow::Pending(features) => {
                let index = {
                    let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "rf_predict");
                    self.detect.predict_features(&features)?
                };
                self.finish_window(window, index)
            }
        }
    }

    /// Run the pre-classification stages of [`AirFinger::recognize_window`]:
    /// the interference filter, then feature extraction, both reading one
    /// [`WindowFeatures`] so the recognizer's row computes only the kinds
    /// the filter's row did not. A rejected window carries its final
    /// [`Recognition`]; a passing window carries the feature row awaiting
    /// a forest prediction, which callers may batch across many windows
    /// before handing each predicted index to [`AirFinger::finish_window`].
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training and
    /// propagates filter errors.
    // lint: hot-path-root — hosts the filter/features stage spans
    pub fn prepare_window(&self, window: &GestureWindow) -> Result<PreparedWindow, AirFingerError> {
        if !self.detect.is_trained() {
            return Err(AirFingerError::NotTrained);
        }
        let mut columns = WindowFeatures::new(window);
        if let Some(filter) = &self.filter {
            let is_gesture = {
                let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "filter");
                filter.is_gesture(&columns.row(filter.extractor()))?
            };
            if !is_gesture {
                airfinger_obs::counter!("pipeline_recognitions_total", kind = "rejected").inc();
                return Ok(PreparedWindow::Rejected(Recognition::Rejected {
                    segment: window.segment,
                }));
            }
        }
        let features = {
            let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "features");
            columns.row(self.detect.extractor())
        };
        Ok(PreparedWindow::Pending(features))
    }

    /// Turn a predicted gesture index into the final [`Recognition`] for a
    /// window that passed [`AirFinger::prepare_window`]: scrolls are routed
    /// through ZEBRA tracking, everything else becomes a detect event.
    ///
    /// # Errors
    ///
    /// Propagates an out-of-range predicted label as an ML error.
    // lint: hot-path-root — hosts the zebra stage span
    pub fn finish_window(
        &self,
        window: &GestureWindow,
        predicted_index: usize,
    ) -> Result<Recognition, AirFingerError> {
        let gesture = Gesture::from_index(predicted_index.min(Gesture::ALL.len() - 1)).ok_or(
            AirFingerError::Ml(airfinger_ml::MlError::InvalidData(
                "predicted label outside the gesture set",
            )),
        )?;
        match gesture {
            Gesture::ScrollUp | Gesture::ScrollDown => {
                let direction = if gesture == Gesture::ScrollUp {
                    ScrollDirection::Up
                } else {
                    ScrollDirection::Down
                };
                // ZEBRA supplies Δt / velocity / displacement; the
                // recognized class supplies the direction (the two agree
                // when the envelope lag is clean).
                let tracked = {
                    let _s = airfinger_obs::span!("pipeline_stage_seconds", stage = "zebra");
                    self.zebra.track(window)
                };
                let track = match tracked {
                    Some(t) => ScrollTrack { direction, ..t },
                    None => ScrollTrack {
                        direction,
                        velocity_mm_s: self.config.v_prime_mm_s,
                        velocity_source: VelocitySource::Experience,
                        delta_t_s: None,
                        duration_s: window.duration_s(),
                    },
                };
                airfinger_obs::counter!("pipeline_recognitions_total", kind = "track").inc();
                Ok(Recognition::Track {
                    track,
                    segment: window.segment,
                })
            }
            detect_aimed => {
                airfinger_obs::counter!("pipeline_recognitions_total", kind = "detect").inc();
                Ok(Recognition::Detect {
                    gesture: detect_aimed,
                    segment: window.segment,
                })
            }
        }
    }

    /// Segment and recognize a whole recording.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training.
    pub fn recognize_trace(&self, trace: &RssTrace) -> Result<Vec<Recognition>, AirFingerError> {
        self.processor
            .process(trace)
            .iter()
            .map(|w| self.recognize_window(w))
            .collect()
    }

    /// Recognize the primary (largest) gesture window of a single-gesture
    /// recording — the evaluation convention.
    ///
    /// # Errors
    ///
    /// Returns [`AirFingerError::NotTrained`] before training.
    pub fn recognize_primary(&self, trace: &RssTrace) -> Result<Recognition, AirFingerError> {
        let window = self.processor.primary_window(trace);
        self.recognize_window(&window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::tests::reference_features;
    use crate::filter::LABEL_GESTURE;
    use airfinger_features::FeatureExtractor;
    use airfinger_synth::dataset::{generate_corpus, generate_nongesture_corpus, CorpusSpec};
    use airfinger_synth::gesture::Gesture;

    fn trained_pipeline(spec: &CorpusSpec) -> (AirFinger, Corpus) {
        let corpus = generate_corpus(spec);
        let config = AirFingerConfig {
            forest_trees: 25,
            ..Default::default()
        };
        let mut af = AirFinger::new(config);
        af.train_on_corpus(&corpus, None).unwrap();
        (af, corpus)
    }

    #[test]
    fn trains_and_recognizes_in_sample() {
        let spec = CorpusSpec {
            users: 2,
            sessions: 2,
            reps: 3,
            ..Default::default()
        };
        let (af, corpus) = trained_pipeline(&spec);
        assert!(af.is_trained());
        let mut correct = 0;
        let mut total = 0;
        for s in corpus.samples() {
            let got = af.recognize_primary(&s.trace).unwrap();
            total += 1;
            if got.gesture() == s.label.gesture() {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "in-sample accuracy {acc}");
    }

    #[test]
    fn scrolls_are_tracked_not_detected() {
        let spec = CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 5,
            ..Default::default()
        };
        let (af, corpus) = trained_pipeline(&spec);
        let mut tracked = 0;
        let mut scrolls = 0;
        for s in corpus.samples() {
            if s.label.gesture().is_some_and(|g| g.is_track_aimed()) {
                scrolls += 1;
                if matches!(
                    af.recognize_primary(&s.trace).unwrap(),
                    Recognition::Track { .. }
                ) {
                    tracked += 1;
                }
            }
        }
        assert!(scrolls > 0);
        assert!(
            tracked as f64 / scrolls as f64 > 0.7,
            "tracked {tracked}/{scrolls} scrolls"
        );
    }

    #[test]
    fn untrained_pipeline_errors() {
        let af = AirFinger::new(AirFingerConfig::default());
        let corpus = generate_corpus(&CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 1,
            gestures: vec![Gesture::Click],
            ..Default::default()
        });
        assert!(matches!(
            af.recognize_primary(&corpus.samples()[0].trace),
            Err(AirFingerError::NotTrained)
        ));
    }

    #[test]
    fn empty_corpus_rejected() {
        let mut af = AirFinger::new(AirFingerConfig::default());
        let empty = Corpus::new(vec![]);
        assert!(matches!(
            af.train_on_corpus(&empty, None),
            Err(AirFingerError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn scroll_only_corpus_trains() {
        // The recognizer covers all eight classes, so a scroll-only corpus
        // is legitimate training data.
        let mut af = AirFinger::new(AirFingerConfig {
            forest_trees: 10,
            ..Default::default()
        });
        let corpus = generate_corpus(&CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 2,
            gestures: vec![Gesture::ScrollUp],
            ..Default::default()
        });
        af.train_on_corpus(&corpus, None).unwrap();
        assert!(af.is_trained());
    }

    #[test]
    fn filter_trains_and_rejects_nongestures() {
        // The paper's §V-J protocol: the same volunteers perform gestures
        // and non-gestures; evaluation is on held-out repetitions of the
        // same population (3-fold CV), not on unseen users.
        let spec = CorpusSpec {
            users: 2,
            sessions: 1,
            reps: 4,
            ..Default::default()
        };
        let corpus = generate_corpus(&spec);
        let non_all = generate_nongesture_corpus(&CorpusSpec {
            reps: 30,
            ..spec.clone()
        });
        let non_train = non_all.filter(|s| s.rep < 21);
        let non_test = non_all.filter(|s| s.rep >= 21);
        let config = AirFingerConfig {
            forest_trees: 25,
            ..Default::default()
        };
        let mut af = AirFinger::new(config);
        af.train_on_corpus(&corpus, Some(&non_train)).unwrap();
        assert!(af.has_filter());
        let rejected = non_test
            .samples()
            .iter()
            .filter(|s| {
                matches!(
                    af.recognize_primary(&s.trace).unwrap(),
                    Recognition::Rejected { .. }
                )
            })
            .count();
        assert!(
            rejected as f64 / non_test.len() as f64 > 0.6,
            "rejected {rejected}/{}",
            non_test.len()
        );
        // Held-out repetitions of true gestures pass the filter.
        let held_g = generate_corpus(&CorpusSpec {
            users: 2,
            sessions: 1,
            reps: 2,
            ..spec
        });
        let wrongly_rejected = held_g
            .samples()
            .iter()
            .filter(|s| {
                matches!(
                    af.recognize_primary(&s.trace).unwrap(),
                    Recognition::Rejected { .. }
                )
            })
            .count();
        assert!(
            (wrongly_rejected as f64) < 0.25 * held_g.len() as f64,
            "wrongly rejected {wrongly_rejected}/{}",
            held_g.len()
        );
    }

    #[test]
    fn one_pass_training_matches_forests_fit_on_separate_passes() {
        // The former protocol: a Table-I extraction of every gesture for
        // the recognizer, then a 9-kind extraction of every sample of the
        // merged corpora for the filter. Shared-column training must
        // serialize byte-identically, also when the gesture corpus holds
        // non-gestures (they train the filter only).
        let spec = CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 2,
            ..Default::default()
        };
        let gestures = generate_corpus(&spec).merged(generate_nongesture_corpus(&CorpusSpec {
            reps: 1,
            ..spec.clone()
        }));
        let non = generate_nongesture_corpus(&CorpusSpec { reps: 5, ..spec });
        let config = AirFingerConfig {
            forest_trees: 7,
            ..Default::default()
        };
        let mut af = AirFinger::new(config);
        af.train_on_corpus(&gestures, Some(&non)).unwrap();

        let processor = DataProcessor::new(config);
        let rows = |corpus: &Corpus, extractor: &FeatureExtractor, gestures_only: bool| {
            let (mut x, mut y) = (Vec::new(), Vec::new());
            for s in corpus.samples() {
                let label = match s.label.gesture() {
                    Some(g) if gestures_only => g.index(),
                    None if gestures_only => continue,
                    _ => usize::from(s.label.is_gesture()),
                };
                x.push(reference_features(
                    extractor,
                    &processor.primary_window(&s.trace),
                ));
                y.push(label);
            }
            (x, y)
        };
        let (detect_x, detect_y) = rows(&gestures, &FeatureExtractor::table1(), true);
        let mut detect = DetectRecognizer::new(&config);
        detect.train_features(&detect_x, &detect_y).unwrap();
        let merged = gestures.clone().merged(non.clone());
        let (filter_x, filter_y) = rows(&merged, &FeatureExtractor::nongesture9(), false);
        let labelled = |label| filter_y.iter().filter(|&&l| l == label).count();
        assert_eq!(labelled(LABEL_GESTURE), detect_y.len());
        assert_eq!(labelled(LABEL_NON_GESTURE), merged.len() - detect_y.len());
        assert!(detect_y.len() < gestures.len());
        let mut filter = NonGestureFilter::new(&config);
        filter.train_features(&filter_x, &filter_y).unwrap();
        let expected = SavedPipeline {
            config,
            detect,
            filter: Some(filter),
        };
        assert_eq!(
            serde_json::to_string(&SavedPipeline::from(af)).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
    }

    #[test]
    fn filter_training_needs_a_non_gesture() {
        let spec = CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 1,
            gestures: vec![Gesture::Click],
            ..Default::default()
        };
        let gestures = generate_corpus(&spec);
        let mut af = AirFinger::new(AirFingerConfig {
            forest_trees: 3,
            ..Default::default()
        });
        assert_eq!(
            af.train_on_corpus(&gestures, Some(&gestures)),
            Err(AirFingerError::InvalidTrainingData(
                "filter training needs both gestures and non-gestures"
            ))
        );
        assert!(!af.has_filter());
    }

    #[test]
    fn invalid_config_surfaces_at_training() {
        let config = AirFingerConfig {
            forest_trees: 0,
            ..Default::default()
        };
        let mut af = AirFinger::new(config);
        let corpus = generate_corpus(&CorpusSpec::small(3));
        assert!(matches!(
            af.train_on_corpus(&corpus, None),
            Err(AirFingerError::InvalidConfig(_))
        ));
    }
}
