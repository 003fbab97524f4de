//! The timed set-up shared by every workload.

use crate::calib::Calibration;
use crate::inputs::training_corpora;
use crate::stats::median;
use airfinger_core::config::AirFingerConfig;
use airfinger_core::error::AirFingerError;
use airfinger_core::pipeline::AirFinger;
use airfinger_synth::dataset::Corpus;
use std::sync::Arc;
use std::time::Instant;

/// Trees in the benchmark's forests (the perf recipe's size).
pub const FOREST_TREES: usize = 40;

/// The pipeline configuration of a run using `threads` workers.
#[must_use]
pub fn config(threads: usize) -> AirFingerConfig {
    AirFingerConfig {
        forest_trees: FOREST_TREES,
        n_threads: threads,
        ..AirFingerConfig::default()
    }
}

/// Training corpora of a run (rendered, so not part of set-up time).
#[derive(Debug)]
pub struct Corpora {
    gestures: Corpus,
    nongestures: Corpus,
}

impl Corpora {
    /// Render the training corpora.
    #[must_use]
    pub fn render() -> Self {
        let (gestures, nongestures) = training_corpora();
        Corpora {
            gestures,
            nongestures,
        }
    }

    /// Train a pipeline with the non-gesture filter live.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn train(&self, config: AirFingerConfig) -> Result<Arc<AirFinger>, AirFingerError> {
        let mut af = AirFinger::new(config);
        af.train_on_corpus(&self.gestures, Some(&self.nongestures))?;
        Ok(Arc::new(af))
    }
}

/// Reference-kernel calls before and after each set-up repetition.
const SETUP_CALLS: usize = 4;

/// Run `build` (training plus construction) `reps` times, timing each
/// and scaling it to the reference host speed by the reference-kernel
/// calls made just before and after it ([`crate::calib`]); returns the
/// last build and the median scaled time in seconds.
///
/// # Errors
///
/// Propagates the first build error.
pub fn timed<T, E>(reps: usize, mut build: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let mut cal = Calibration::new();
    for _ in 0..reps.max(1) {
        cal.clear();
        (0..SETUP_CALLS).for_each(|_| cal.sample());
        // lint: wall-clock — measured quantity
        let t0 = Instant::now();
        let built = build()?;
        let seconds = t0.elapsed().as_secs_f64();
        (0..SETUP_CALLS).for_each(|_| cal.sample());
        times.push(seconds / cal.factor());
        last = Some(built);
    }
    let built = last.expect("at least one set-up repetition ran");
    Ok((built, median(&times).unwrap_or(0.0)))
}
