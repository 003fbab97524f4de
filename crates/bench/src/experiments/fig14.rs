//! Fig. 14 / §V-J1: unintentional motions — six volunteers perform designed
//! gestures and non-gestures (scratching, extending, repositioning); a
//! three-fold CV of the gesture/non-gesture filter. Paper: accuracy
//! 94.83 %, recall 94.83 %, precision 94.88 %.

use crate::context::Context;
use crate::error::BenchError;
use crate::experiments::{merge_folds, pct};
use crate::report::Report;
use airfinger_core::train::feature_set;
use airfinger_features::FeatureExtractor;
use airfinger_ml::classifier::Classifier;
use airfinger_ml::forest::{RandomForest, RandomForestConfig};
use airfinger_ml::metrics::ConfusionMatrix;
use airfinger_ml::split::{gather, stratified_k_fold};
use airfinger_synth::dataset::{generate_corpus, generate_nongesture_corpus, CorpusSpec};

/// Run the experiment.
///
/// # Errors
///
/// Propagates classifier failures.
pub fn run(ctx: &Context) -> Result<Report, BenchError> {
    let mut report = Report::new(
        "fig14",
        "unintentional motions (gesture/non-gesture filter)",
    );
    // Paper: 6 volunteers × 2 sessions × (25 gestures + 25 non-gestures).
    let reps = ctx.scale.scaled(25);
    let gesture_spec = CorpusSpec {
        users: 6,
        sessions: 2,
        // 25 gestures per session split across the 8 kinds ≈ 3 each.
        reps: (reps / 8).max(1),
        seed: ctx.seed + 14,
        ..Default::default()
    };
    let non_spec = CorpusSpec {
        reps,
        ..gesture_spec.clone()
    };
    let corpus = generate_corpus(&gesture_spec).merged(generate_nongesture_corpus(&non_spec));
    // The filter's 9-kind columns, extracted directly: the same values the
    // pipeline projects out of its Table-I rows.
    let features = feature_set(
        &corpus,
        &ctx.config,
        &FeatureExtractor::nongesture9(),
        |s| Some(usize::from(s.label.is_gesture())),
    );
    let folds = stratified_k_fold(&features.y, 3, ctx.seed + 14);
    let merged = merge_folds(
        folds
            .iter()
            .enumerate()
            .map(|(k, split)| {
                let mut rf = RandomForest::new(RandomForestConfig {
                    n_trees: ctx.config.forest_trees,
                    seed: ctx.seed + k as u64,
                    ..Default::default()
                });
                let (xtr, ytr) = gather(&features.x, &features.y, &split.train);
                let (xte, yte) = gather(&features.x, &features.y, &split.test);
                rf.fit(&xtr, &ytr)?;
                let pred = rf.predict_batch(&xte)?;
                Ok(ConfusionMatrix::from_predictions(&yte, &pred, 2))
            })
            .collect::<Result<Vec<_>, airfinger_ml::MlError>>()?,
        2,
    );
    report.line(format!(
        "samples: {} gestures + {} non-gestures",
        features.y.iter().filter(|&&l| l == 1).count(),
        features.y.iter().filter(|&&l| l == 0).count()
    ));
    report.line(format!(
        "accuracy {:.2}%  recall(gesture) {:.2}%  precision(gesture) {:.2}%",
        pct(merged.accuracy()),
        pct(merged.recall(1).unwrap_or(0.0)),
        pct(merged.precision(1).unwrap_or(0.0)),
    ));
    report.metric("accuracy", pct(merged.accuracy()));
    report.metric("recall", pct(merged.recall(1).unwrap_or(0.0)));
    report.metric("precision", pct(merged.precision(1).unwrap_or(0.0)));
    report.paper_value("accuracy", 94.83);
    report.paper_value("recall", 94.83);
    report.paper_value("precision", 94.88);
    Ok(report)
}
