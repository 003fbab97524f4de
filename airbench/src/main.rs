//! `airbench`: the airFinger end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path airbench/Cargo.toml -- \
//!     --workload solo-gestures --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run metadata, human-readable detail lines, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end table
//! ([`END_TO_END`]); with `--trace 1` they are the per-layer table
//! ([`PER_LAYER`]) and a reconciliation line is printed. Exits nonzero
//! when any output check fails. See `airbench/README.md`.

mod calib;
mod fleet;
mod inputs;
mod layers;
mod matcher;
mod meta;
mod report;
mod setup;
mod solo;
mod stats;
mod trace;

use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// The end-to-end metrics, in print order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("push_p50_ns", "ns"),
    ("recognition_p50_us", "us"),
    ("recognition_p95_us", "us"),
    ("recognition_max_us", "us"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced mode, in print order, with units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("dsp.sbc_ns", "ns"),
    ("dsp.threshold_ns", "ns"),
    ("dsp.segmenter_ns", "ns"),
    ("engine.ingest_residual_ns", "ns"),
    ("engine.window_copy_us", "us"),
    ("engine.window_samples_p50", "count"),
    ("engine.window_samples_max", "count"),
    ("engine.windows_truncated", "count"),
    ("engine.windows_per_gesture", "ratio"),
    ("pipeline.prepare_us_p50", "us"),
    ("pipeline.prepare_us_p95", "us"),
    ("pipeline.accept_ratio", "ratio"),
    ("pipeline.finish_ns", "ns"),
    ("filter.features_us", "us"),
    ("features.table1_us", "us"),
    ("features.kind_ns.approximate_entropy", "ns"),
    ("features.kind_ns.sample_entropy", "ns"),
    ("features.kind_ns.cwt", "ns"),
    ("features.kind_ns.fft", "ns"),
    ("features.kind_ns.ar", "ns"),
    ("features.kind_ns.partial_autocorrelation", "ns"),
    ("features.kind_ns.augmented_dickey_fuller", "ns"),
    ("features.kind_ns.quantile", "ns"),
    ("features.kind_ns.other", "ns"),
    ("features.n2_per_window", "count"),
    ("ml.predict_ns", "ns"),
    ("fleet.rows_per_batch", "count"),
    ("fleet.round_us_p50", "us"),
    ("fleet.round_us_p95", "us"),
    ("fleet.enqueue_ns", "ns"),
    ("fleet.busy_ratio", "ratio"),
    ("fleet.tick_lag_p95_us", "us"),
    ("fleet.queue_depth_max", "count"),
    ("fleet.shed_sessions", "count"),
    ("obs.monitor_ns_per_push", "ns"),
    ("obs.recording_overhead", "ratio"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads.
pub const WORKLOADS: [&str; 4] = [
    "solo-gestures",
    "solo-quiet",
    "solo-motion",
    "fleet-realtime",
];

/// The workloads `BENCHMARK.json` lists. `solo-motion`'s second-long
/// worst-case push and `fleet-realtime`'s latency tail move with a
/// shared host's load by about the largest allowed bound, so they run
/// with the same command but are not gated. The `fleet.*` layer is
/// measured by the traced solo runs.
pub const GATED: [&str; 2] = ["solo-gestures", "solo-quiet"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Tiny inputs (the benchmark's own smoke tests).
    pub tiny: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tiny: false,
    })
}

/// Run one workload into `report`.
fn execute(args: &Args, report: &mut Report) -> Result<(), String> {
    let solo = match args.workload.as_str() {
        "solo-gestures" => Some(solo::Solo::Gestures),
        "solo-quiet" => Some(solo::Solo::Quiet),
        "solo-motion" => Some(solo::Solo::Motion),
        _ => None,
    };
    match solo {
        Some(kind) => solo::run(kind, args, report).map_err(|e| e.to_string()),
        None => fleet::run(args, report).map_err(|e| e.to_string()),
    }?;
    report.correct = report.mismatches.is_empty();
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("airbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = execute(&args, &mut report) {
        eprintln!("airbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let params: Vec<String> = report
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", meta::json_str(k), meta::json_str(v)))
        .collect();
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rustc\": {}, \"target\": {}, \"nproc\": {}, \"commit\": {}, \"params\": {{{}}}}}",
        meta::json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        meta::json_str(meta::RUSTC),
        meta::json_str(meta::TARGET),
        meta::nproc(),
        meta::json_str(&meta::git_commit(Path::new("."))),
        params.join(", ")
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!(
            "metric {} = {} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        );
    }
    for mismatch in &report.mismatches {
        println!("MISMATCH {mismatch}");
    }
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "solo-quiet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "solo-quiet");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "solo-quiet"]).is_err());
        assert!(args(&["--workload", "solo-quiet", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "solo-quiet", "--seed", "1", "--seconds", "0"]).is_err());
    }

    /// `BENCHMARK.json` names exactly the gated workloads and the metrics
    /// this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let field = |key: &str| -> Vec<String> {
            text.split(&format!("\"{key}\": \""))
                .skip(1)
                .map(|rest| rest.split('"').next().unwrap_or("").to_string())
                .collect()
        };
        let names = field("name");
        let units = field("unit");
        assert!(GATED.iter().all(|w| WORKLOADS.contains(w)));
        let expected_names: Vec<String> = GATED
            .iter()
            .map(|w| (*w).to_string())
            .chain(END_TO_END.iter().map(|(n, _)| (*n).to_string()))
            .chain(PER_LAYER.iter().map(|(n, _)| (*n).to_string()))
            .collect();
        assert_eq!(names, expected_names);
        let expected_units: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(_, u)| (*u).to_string())
            .collect();
        assert_eq!(units, expected_units);
    }
}
