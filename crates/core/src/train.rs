//! Training-set construction: corpus → processed windows → feature
//! matrices with user/session group labels for the paper's CV protocols.

use crate::config::AirFingerConfig;
use crate::processing::{DataProcessor, GestureWindow};
use airfinger_features::FeatureExtractor;
use airfinger_synth::dataset::{Corpus, GestureSample};

/// A feature matrix with labels and grouping metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabeledFeatures {
    /// Feature vectors, one row per sample.
    pub x: Vec<Vec<f64>>,
    /// Class labels.
    pub y: Vec<usize>,
    /// Volunteer id per sample (for leave-one-user-out).
    pub users: Vec<usize>,
    /// Session id per sample (for leave-one-session-out).
    pub sessions: Vec<usize>,
    /// Repetition id per sample (for enrollment-count sweeps).
    pub reps: Vec<usize>,
}

impl LabeledFeatures {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Extract features for every sample of `corpus` using `extractor`,
/// labelling each sample with `label_of(sample) -> Option<usize>` (samples
/// mapped to `None` are skipped).
#[must_use]
pub fn feature_set<F>(
    corpus: &Corpus,
    config: &AirFingerConfig,
    extractor: &FeatureExtractor,
    label_of: F,
) -> LabeledFeatures
where
    F: Fn(&GestureSample) -> Option<usize> + Sync,
{
    let rows = map_windows(corpus, config, label_of, |_, window| {
        crate::detect::prepare_features(extractor, window)
    });
    let mut out = LabeledFeatures::default();
    for (s, label, features) in rows {
        out.x.push(features);
        out.y.push(label);
        out.users.push(s.user);
        out.sessions.push(s.session);
        out.reps.push(s.rep);
    }
    out
}

/// `row_of(label, window)` on the primary window of every sample that
/// `label_of` labels, in corpus order.
///
/// Per-sample extraction (segmentation + Table-I features) dominates
/// corpus training time and every sample is independent, so the work is
/// fanned across [`AirFingerConfig::n_threads`] workers. The order-
/// preserving map keeps row order — and therefore every downstream split,
/// fold and trained model — identical to the sequential path.
pub(crate) fn map_windows<'c, L, T, F, R>(
    corpus: &'c Corpus,
    config: &AirFingerConfig,
    label_of: F,
    row_of: R,
) -> Vec<(&'c GestureSample, L, T)>
where
    L: Send,
    T: Send,
    F: Fn(&GestureSample) -> Option<L> + Sync,
    R: Fn(&L, &GestureWindow) -> T + Sync,
{
    let _span = airfinger_obs::span!("train_feature_extraction_seconds");
    let processor = DataProcessor::new(*config);
    let threads = airfinger_parallel::effective_threads(Some(config.n_threads));
    let samples = corpus.samples();
    let rows: Vec<_> = airfinger_parallel::par_map_indexed(samples, threads, |i, s| {
        let label = label_of(s)?;
        let row = row_of(&label, &processor.primary_window(&s.trace));
        Some((i, label, row))
    })
    .into_iter()
    .flatten()
    .map(|(i, label, row)| (&samples[i], label, row))
    .collect();
    airfinger_obs::counter!("train_feature_rows_total").add(rows.len() as u64);
    rows
}

/// Detect-aimed feature set: Table-I features, labels are detect indices
/// `0..6`; track-aimed and non-gesture samples are skipped.
#[must_use]
pub fn detect_feature_set(corpus: &Corpus, config: &AirFingerConfig) -> LabeledFeatures {
    feature_set(corpus, config, &FeatureExtractor::table1(), |s| {
        s.label.gesture().and_then(|g| g.detect_index())
    })
}

/// All-gesture feature set: Table-I features, labels are gesture indices
/// `0..8` (the Fig. 9 classifier-comparison protocol uses "all the
/// collected gesture samples").
#[must_use]
pub fn all_gesture_feature_set(corpus: &Corpus, config: &AirFingerConfig) -> LabeledFeatures {
    feature_set(corpus, config, &FeatureExtractor::table1(), |s| {
        s.label.gesture().map(|g| g.index())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfinger_synth::dataset::{generate_corpus, CorpusSpec};

    fn tiny_spec() -> CorpusSpec {
        CorpusSpec {
            users: 1,
            sessions: 1,
            reps: 1,
            ..Default::default()
        }
    }

    #[test]
    fn detect_set_skips_scrolls() {
        let corpus = generate_corpus(&tiny_spec());
        let set = detect_feature_set(&corpus, &AirFingerConfig::default());
        assert_eq!(set.len(), 6);
        assert!(set.y.iter().all(|&l| l < 6));
    }

    #[test]
    fn all_gesture_set_keeps_everything() {
        let corpus = generate_corpus(&tiny_spec());
        let set = all_gesture_feature_set(&corpus, &AirFingerConfig::default());
        assert_eq!(set.len(), 8);
        let mut labels = set.y.clone();
        labels.sort_unstable();
        assert_eq!(labels, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn rows_are_rectangular_and_finite() {
        let corpus = generate_corpus(&tiny_spec());
        let set = detect_feature_set(&corpus, &AirFingerConfig::default());
        let width = set.x[0].len();
        for row in &set.x {
            assert_eq!(row.len(), width);
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn groups_align_with_samples() {
        let spec = CorpusSpec {
            users: 2,
            sessions: 2,
            reps: 1,
            ..Default::default()
        };
        let corpus = generate_corpus(&spec);
        let set = all_gesture_feature_set(&corpus, &AirFingerConfig::default());
        assert_eq!(set.users.len(), set.len());
        assert_eq!(set.sessions.len(), set.len());
        assert!(set.users.contains(&0) && set.users.contains(&1));
    }
}
