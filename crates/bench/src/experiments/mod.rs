//! One module per reproduced table/figure of the paper's §V, plus shared
//! evaluation helpers.

pub mod ablation;
pub mod adaptation;
pub mod baselines;
pub mod board;
pub mod events;
pub mod fig03;
pub mod fig05;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fleet;
pub mod importance;
pub mod interference;
pub mod outdoor;
pub mod perf;
pub mod selection;
pub mod soak;
pub mod table2;

use airfinger_core::train::LabeledFeatures;
use airfinger_ml::classifier::Classifier;
use airfinger_ml::error::MlError;
use airfinger_ml::forest::{RandomForest, RandomForestConfig};
use airfinger_ml::metrics::ConfusionMatrix;
use airfinger_ml::split::{gather, Split};

/// Train a fresh random forest on the train side of `split` and evaluate
/// on the test side; returns the fold's confusion matrix.
///
/// # Errors
///
/// Propagates classifier training/prediction failures.
pub fn eval_rf_fold(
    features: &LabeledFeatures,
    split: &Split,
    n_classes: usize,
    trees: usize,
    seed: u64,
) -> Result<ConfusionMatrix, MlError> {
    let mut rf = RandomForest::new(RandomForestConfig {
        n_trees: trees,
        seed,
        ..Default::default()
    });
    eval_classifier_fold(&mut rf, features, split, n_classes)
}

/// Train `clf` on the train side of `split` and evaluate on the test side.
///
/// # Errors
///
/// Propagates classifier training/prediction failures.
pub fn eval_classifier_fold(
    clf: &mut dyn Classifier,
    features: &LabeledFeatures,
    split: &Split,
    n_classes: usize,
) -> Result<ConfusionMatrix, MlError> {
    let (xtr, ytr) = gather(&features.x, &features.y, &split.train);
    let (xte, yte) = gather(&features.x, &features.y, &split.test);
    clf.fit(&xtr, &ytr)?;
    let pred = clf.predict_batch(&xte)?;
    Ok(ConfusionMatrix::from_predictions(&yte, &pred, n_classes))
}

/// Merge per-fold confusion matrices.
#[must_use]
pub fn merge_folds(
    folds: impl IntoIterator<Item = ConfusionMatrix>,
    n_classes: usize,
) -> ConfusionMatrix {
    let mut total = ConfusionMatrix::new(n_classes);
    for f in folds {
        total.merge(&f);
    }
    total
}

/// Percentage helper.
#[must_use]
pub fn pct(x: f64) -> f64 {
    100.0 * x
}

/// The six detect-aimed gesture names, table order.
pub const DETECT_NAMES: [&str; 6] = ["circle", "2xcircle", "rub", "2xrub", "click", "2xclick"];

/// All eight gesture names, table order.
pub const ALL_NAMES: [&str; 8] = [
    "circle", "2xcircle", "rub", "2xrub", "click", "2xclick", "scrollup", "scrolldn",
];
