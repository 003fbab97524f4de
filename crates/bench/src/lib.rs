//! Experiment harness reproducing every table and figure of the airFinger
//! evaluation (§V), plus Criterion benches for the performance claims.
//!
//! Run via the `repro` binary:
//!
//! ```text
//! cargo run --release -p airfinger-bench --bin repro -- all --scale standard
//! cargo run --release -p airfinger-bench --bin repro -- fig10 fig11 --scale full
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod diff;
pub mod error;
pub mod experiments;
pub mod profdiff;
pub mod report;

use context::Context;
use report::Report;

pub use error::BenchError;

/// Every experiment id, in paper order.
pub const EXPERIMENT_IDS: [&str; 26] = [
    "fig3",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table2",
    "interference",
    "outdoor",
    "ablation",
    "importance",
    "baselines",
    "board",
    "selection",
    "adaptation",
    "soak",
    "fleet",
    "events",
    "perf",
];

/// Run one experiment by id.
///
/// # Errors
///
/// Returns [`BenchError::UnknownExperiment`] for an id outside
/// [`EXPERIMENT_IDS`], or the experiment's own failure.
pub fn run_experiment(id: &str, ctx: &Context) -> Result<Report, BenchError> {
    match id {
        "fig3" => experiments::fig03::run(ctx),
        "fig5" => experiments::fig05::run(ctx),
        "fig7" => experiments::fig07::run(ctx),
        "fig8" => experiments::fig08::run(ctx),
        "fig9" => experiments::fig09::run(ctx),
        "fig10" => experiments::fig10::run(ctx),
        "fig11" => experiments::fig11::run(ctx),
        "fig12" => experiments::fig12::run(ctx),
        "fig13" => experiments::fig13::run(ctx),
        "fig14" => experiments::fig14::run(ctx),
        "fig15" => experiments::fig15::run(ctx),
        "fig16" => experiments::fig16::run(ctx),
        "fig17" => experiments::fig17::run(ctx),
        "table2" => experiments::table2::run(ctx),
        "interference" => experiments::interference::run(ctx),
        "outdoor" => experiments::outdoor::run(ctx),
        "ablation" => experiments::ablation::run(ctx),
        "importance" => experiments::importance::run(ctx),
        "baselines" => experiments::baselines::run(ctx),
        "board" => experiments::board::run(ctx),
        "selection" => experiments::selection::run(ctx),
        "adaptation" => experiments::adaptation::run(ctx),
        "soak" => experiments::soak::run(ctx),
        "fleet" => experiments::fleet::run(ctx),
        "events" => experiments::events::run(ctx),
        "perf" => experiments::perf::run(ctx),
        _ => Err(BenchError::UnknownExperiment(id.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use context::Scale;

    #[test]
    fn unknown_id_errors() {
        let ctx = Context::new(Scale::Quick, 1);
        assert!(matches!(
            run_experiment("fig99", &ctx),
            Err(BenchError::UnknownExperiment(id)) if id == "fig99"
        ));
    }

    #[test]
    fn ids_are_unique() {
        let mut ids = EXPERIMENT_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENT_IDS.len());
    }
}
