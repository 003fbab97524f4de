//! `repro diff` — the bench-snapshot regression gate.
//!
//! Compares two `BENCH_<label>.json` run reports (the artifacts written
//! by `repro --label` / `--metrics`): per-experiment wall time, pipeline
//! histogram percentiles, and the quality section (per-experiment
//! accuracy). Prints a delta table and collects **violations** —
//! wall-time regressions beyond `--max-time-regress` and accuracies
//! below `--min-accuracy` — which drive the nonzero exit that fails CI.
//!
//! The comparison is deliberately tolerant of missing data: experiments,
//! histograms or quality entries present in only one snapshot are
//! reported but never count as violations, so a baseline produced by an
//! older binary still gates what it can.
//!
//! # Perf metric classes
//!
//! `perf_*` counters and gauges (written by the `perf` experiment) are
//! gated by **metric class**, the declarative name-suffix convention of
//! DESIGN.md §9:
//!
//! - **timing** — names ending in `_ns`, `_per_s`, `_seconds` or
//!   `_utilization` are wall-clock observations; they are held to a
//!   relative tolerance ([`DiffOptions::perf_tolerance_pct`]).
//!   Directionality follows the suffix too: `_per_s`/`_utilization` are
//!   higher-is-better, everything else lower-is-better. Improvements
//!   beyond the tolerance are surfaced as **ratchet candidates**
//!   (re-baseline with `repro diff --rebaseline`), never violations.
//! - **deterministic** — every other `perf_*` metric is a pure function
//!   of `(scale, seed)` and must match the baseline *exactly*.

use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Gate thresholds for [`diff_reports`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Maximum tolerated per-experiment (and total) wall-time growth, in
    /// percent of the baseline. `None` disables the time gate.
    pub max_time_regress_pct: Option<f64>,
    /// Minimum tolerated quality accuracy (percent) in the new snapshot.
    /// `None` disables the accuracy gate.
    pub min_accuracy_pct: Option<f64>,
    /// Relative tolerance (percent) for timing-class `perf_*` metrics;
    /// deterministic-class metrics are always gated exactly when both
    /// snapshots carry them. `None` disables the perf gate entirely
    /// (both classes).
    pub perf_tolerance_pct: Option<f64>,
}

impl Default for DiffOptions {
    /// Display-only: all gates off.
    fn default() -> Self {
        DiffOptions {
            max_time_regress_pct: None,
            min_accuracy_pct: None,
            perf_tolerance_pct: None,
        }
    }
}

/// The gate class of one metric, per the DESIGN.md §9 suffix convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Pure function of `(scale, seed)` — gated exactly.
    Deterministic,
    /// Wall-clock observation — gated with a relative tolerance.
    Timing,
}

/// Classify a metric identity (`name` or `name{labels}`) by the
/// declarative suffix convention of DESIGN.md §9: `_ns`, `_per_s`,
/// `_seconds` and `_utilization` name wall-clock observations, anything
/// else is deterministic.
#[must_use]
pub fn metric_class(identity: &str) -> MetricClass {
    let name = identity.split('{').next().unwrap_or(identity);
    if ["_ns", "_per_s", "_seconds", "_utilization"]
        .iter()
        .any(|s| name.ends_with(s))
    {
        MetricClass::Timing
    } else {
        MetricClass::Deterministic
    }
}

/// Whether a larger value of this timing metric is an improvement
/// (throughput/utilization) rather than a regression (latency).
fn higher_is_better(identity: &str) -> bool {
    let name = identity.split('{').next().unwrap_or(identity);
    name.ends_with("_per_s") || name.ends_with("_utilization")
}

/// Outcome of one snapshot comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The rendered delta table, line by line.
    pub lines: Vec<String>,
    /// Human-readable gate violations; empty means the gate passes.
    pub violations: Vec<String>,
    /// Timing-class `perf_*` metrics that *improved* beyond the
    /// tolerance — candidates for ratcheting the committed baseline
    /// forward (`repro diff --rebaseline`). Never violations.
    pub ratchet_candidates: Vec<String>,
}

impl DiffReport {
    /// Whether the gate passes (no violations).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What the differ extracts from one `BENCH_*.json` document.
#[derive(Debug, Default)]
struct BenchView {
    label: String,
    /// `rustc -V` and target triple from `meta`, when recorded.
    toolchain: Option<String>,
    experiments: Vec<(String, f64)>,
    total_seconds: Option<f64>,
    /// experiment → accuracy percent, from the quality section.
    accuracy: BTreeMap<String, f64>,
    /// histogram identity → (p50, p95, p99), where present and non-null.
    percentiles: BTreeMap<String, [Option<f64>; 3]>,
    /// `perf_*` counter/gauge identity → value (the perf-gate feed).
    perf: BTreeMap<String, f64>,
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.get(key)
}

fn metric_identity(entry: &serde::Map) -> String {
    let name = entry
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string();
    let labels: Vec<String> = entry
        .get("labels")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .map(|(k, v)| format!("{k}={:?}", v.as_str().unwrap_or("")))
                .collect()
        })
        .unwrap_or_default();
    if labels.is_empty() {
        name
    } else {
        format!("{name}{{{}}}", labels.join(","))
    }
}

fn parse_view(text: &str, which: &str) -> Result<BenchView, String> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| format!("{which}: not valid JSON: {e:?}"))?;
    let mut view = BenchView {
        label: get(&value, "label")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        ..BenchView::default()
    };
    let meta = |key: &str| {
        get(&value, "meta")
            .and_then(|m| get(m, key))
            .and_then(Value::as_str)
    };
    if let (Some(rustc), Some(target)) = (meta("rustc"), meta("target")) {
        view.toolchain = Some(format!("{rustc} ({target})"));
    }
    if let Some(exps) = get(&value, "experiments").and_then(Value::as_array) {
        for e in exps {
            let (Some(id), Some(seconds)) = (
                get(e, "id").and_then(Value::as_str),
                get(e, "seconds").and_then(Value::as_f64),
            ) else {
                continue;
            };
            view.experiments.push((id.to_string(), seconds));
        }
    }
    view.total_seconds = get(&value, "total_seconds").and_then(Value::as_f64);
    if let Some(quality_exps) = get(&value, "quality")
        .and_then(|q| get(q, "experiments"))
        .and_then(Value::as_object)
    {
        for (experiment, metrics) in quality_exps.iter() {
            if let Some(acc) = get(metrics, "accuracy").and_then(Value::as_f64) {
                view.accuracy.insert(experiment.to_string(), acc);
            }
        }
    }
    if let Some(hists) = get(&value, "metrics")
        .and_then(|m| get(m, "histograms"))
        .and_then(Value::as_array)
    {
        for h in hists {
            let Some(entry) = h.as_object() else { continue };
            let ps = ["p50", "p95", "p99"].map(|p| entry.get(p).and_then(Value::as_f64));
            if ps.iter().any(Option::is_some) {
                view.percentiles.insert(metric_identity(entry), ps);
            }
        }
    }
    for family in ["counters", "gauges"] {
        let Some(entries) = get(&value, "metrics")
            .and_then(|m| get(m, family))
            .and_then(Value::as_array)
        else {
            continue;
        };
        for e in entries {
            let Some(entry) = e.as_object() else { continue };
            let is_perf = entry
                .get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.starts_with("perf_"));
            let Some(v) = entry.get("value").and_then(Value::as_f64) else {
                continue;
            };
            if is_perf {
                view.perf.insert(metric_identity(entry), v);
            }
        }
    }
    Ok(view)
}

fn pct_delta(base: f64, new: f64) -> Option<f64> {
    if base > 0.0 {
        Some((new - base) / base * 100.0)
    } else {
        None
    }
}

fn fmt_delta(delta: Option<f64>) -> String {
    match delta {
        Some(d) => format!("{d:+.1}%"),
        None => "   n/a".to_string(),
    }
}

/// Compare two run-report JSON documents and evaluate the gate.
///
/// # Errors
///
/// Returns an error when either document is not valid JSON.
pub fn diff_reports(base: &str, new: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let base = parse_view(base, "baseline")?;
    let new = parse_view(new, "candidate")?;
    let mut lines = Vec::new();
    let mut violations = Vec::new();

    lines.push(format!(
        "bench diff: baseline `{}` vs candidate `{}`",
        base.label, new.label
    ));
    lines.push(String::new());

    // Per-experiment wall time.
    lines.push(format!(
        "{:<14} {:>10} {:>10} {:>8}",
        "experiment", "base s", "new s", "delta"
    ));
    let base_times: BTreeMap<&str, f64> = base
        .experiments
        .iter()
        .map(|(id, s)| (id.as_str(), *s))
        .collect();
    for (id, new_s) in &new.experiments {
        let row = match base_times.get(id.as_str()) {
            Some(&base_s) => {
                let delta = pct_delta(base_s, *new_s);
                if let (Some(limit), Some(d)) = (opts.max_time_regress_pct, delta) {
                    if d > limit {
                        violations.push(format!(
                            "experiment `{id}` wall time regressed {d:+.1}% \
                             (limit +{limit:.0}%): {base_s:.3}s -> {new_s:.3}s"
                        ));
                    }
                }
                format!(
                    "{id:<14} {base_s:>10.3} {new_s:>10.3} {:>8}",
                    fmt_delta(delta)
                )
            }
            None => format!("{id:<14} {:>10} {new_s:>10.3} {:>8}", "-", "new"),
        };
        lines.push(row);
    }
    for (id, base_s) in &base.experiments {
        if !new.experiments.iter().any(|(n, _)| n == id) {
            lines.push(format!("{id:<14} {base_s:>10.3} {:>10} {:>8}", "-", "gone"));
        }
    }
    if let (Some(b), Some(n)) = (base.total_seconds, new.total_seconds) {
        let delta = pct_delta(b, n);
        lines.push(format!(
            "{:<14} {b:>10.3} {n:>10.3} {:>8}",
            "total",
            fmt_delta(delta)
        ));
        if let (Some(limit), Some(d)) = (opts.max_time_regress_pct, delta) {
            if d > limit {
                violations.push(format!(
                    "total wall time regressed {d:+.1}% (limit +{limit:.0}%)"
                ));
            }
        }
    }

    // Quality accuracy.
    let quality_ids: std::collections::BTreeSet<&String> =
        base.accuracy.keys().chain(new.accuracy.keys()).collect();
    if !quality_ids.is_empty() {
        lines.push(String::new());
        lines.push(format!(
            "{:<14} {:>10} {:>10} {:>8}",
            "accuracy", "base %", "new %", "delta"
        ));
        for id in quality_ids {
            let (b, n) = (base.accuracy.get(id), new.accuracy.get(id));
            let mut row = format!("{id:<14} ");
            match b {
                Some(b) => {
                    let _ = write!(row, "{b:>10.2} ");
                }
                None => {
                    let _ = write!(row, "{:>10} ", "-");
                }
            }
            match n {
                Some(n) => {
                    let _ = write!(row, "{n:>10.2} ");
                }
                None => {
                    let _ = write!(row, "{:>10} ", "-");
                }
            }
            if let (Some(b), Some(n)) = (b, n) {
                let _ = write!(row, "{:>8}", fmt_delta(Some(n - b)));
            }
            lines.push(row);
            if let (Some(floor), Some(&n)) = (opts.min_accuracy_pct, n) {
                if n < floor {
                    violations.push(format!(
                        "quality accuracy of `{id}` is {n:.2}% (floor {floor:.2}%)"
                    ));
                }
            }
        }
    }

    // Histogram percentile drift (informational, never a violation: the
    // per-stage tails are scheduling observations).
    let shared: Vec<&String> = base
        .percentiles
        .keys()
        .filter(|k| new.percentiles.contains_key(*k))
        .collect();
    if !shared.is_empty() {
        lines.push(String::new());
        lines.push(format!(
            "{:<44} {:>11} {:>11} {:>11}",
            "histogram (p95)", "base", "new", "delta"
        ));
        for key in shared {
            let (b, n) = (&base.percentiles[key], &new.percentiles[key]);
            if let (Some(bp), Some(np)) = (b[1], n[1]) {
                lines.push(format!(
                    "{key:<44} {bp:>11.6} {np:>11.6} {:>11}",
                    fmt_delta(pct_delta(bp, np))
                ));
            }
        }
    }

    // Toolchains of both sides, above the perf table: allocation counts
    // and timings are only comparable on the same compiler and target.
    let toolchain = |v: &BenchView| v.toolchain.clone().unwrap_or_else(|| "unknown".into());
    let matched = match (&base.toolchain, &new.toolchain) {
        (Some(b), Some(n)) if b == n => "yes",
        (Some(_), Some(_)) => "no",
        _ => "unknown",
    };
    lines.push(String::new());
    lines.push(format!("toolchain base: {}", toolchain(&base)));
    lines.push(format!("toolchain new:  {}", toolchain(&new)));
    lines.push(format!("toolchain match: {matched}"));

    // Perf metric gate: deterministic class exact, timing class within
    // tolerance, improvements beyond tolerance become ratchet
    // candidates. Metrics present in only one snapshot are shown but
    // never gated (an old baseline still gates what it can).
    let mut ratchet_candidates = Vec::new();
    let shared_perf: Vec<&String> = base
        .perf
        .keys()
        .filter(|k| new.perf.contains_key(*k))
        .collect();
    if !shared_perf.is_empty() {
        lines.push(String::new());
        lines.push(format!(
            "{:<40} {:>14} {:>14} {:>8}  class",
            "perf metric", "base", "new", "delta"
        ));
        for key in &shared_perf {
            let (b, n) = (base.perf[*key], new.perf[*key]);
            let class = metric_class(key);
            let delta = pct_delta(b, n);
            lines.push(format!(
                "{key:<40} {b:>14.3} {n:>14.3} {:>8}  {}",
                fmt_delta(delta),
                match class {
                    MetricClass::Deterministic => "exact",
                    MetricClass::Timing => "timing",
                }
            ));
            let Some(tolerance) = opts.perf_tolerance_pct else {
                continue;
            };
            match class {
                MetricClass::Deterministic => {
                    if b != n {
                        violations.push(format!(
                            "deterministic perf metric `{key}` changed: {b} -> {n} \
                             (must match the baseline exactly)"
                        ));
                    }
                }
                MetricClass::Timing => {
                    let Some(d) = delta else { continue };
                    // Normalize direction: positive `worse` is always a
                    // regression, whichever way the metric improves.
                    let worse = if higher_is_better(key) { -d } else { d };
                    if worse > tolerance {
                        violations.push(format!(
                            "timing perf metric `{key}` regressed {d:+.1}% \
                             (tolerance {tolerance:.0}%): {b:.1} -> {n:.1}"
                        ));
                    } else if worse < -tolerance {
                        ratchet_candidates
                            .push(format!("`{key}` improved {d:+.1}% ({b:.1} -> {n:.1})"));
                    }
                }
            }
        }
        for (key, n) in &new.perf {
            if !base.perf.contains_key(key) {
                lines.push(format!(
                    "{key:<40} {:>14} {n:>14.3} {:>8}  new (not gated)",
                    "-", ""
                ));
            }
        }
        for (key, b) in &base.perf {
            if !new.perf.contains_key(key) {
                lines.push(format!(
                    "{key:<40} {b:>14.3} {:>14} {:>8}  gone (not gated)",
                    "-", ""
                ));
            }
        }
    }
    if !ratchet_candidates.is_empty() {
        lines.push(String::new());
        lines.push(
            "ratchet candidate(s) — baseline is beatable, consider `repro diff --rebaseline`:"
                .to_string(),
        );
        for c in &ratchet_candidates {
            lines.push(format!("  + {c}"));
        }
    }

    if violations.is_empty() {
        lines.push(String::new());
        lines.push("gate: PASS".to_string());
    } else {
        lines.push(String::new());
        lines.push(format!("gate: FAIL ({} violation(s))", violations.len()));
        for v in &violations {
            lines.push(format!("  - {v}"));
        }
    }
    Ok(DiffReport {
        lines,
        violations,
        ratchet_candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal but structurally faithful run report.
    fn report(label: &str, fig10_s: f64, accuracy: f64, p95: f64) -> String {
        format!(
            r#"{{
  "label": "{label}",
  "meta": {{"scale": "quick", "threads": "2"}},
  "experiments": [
    {{"id": "fig10", "seconds": {fig10_s}}},
    {{"id": "table2", "seconds": 0.5}}
  ],
  "total_seconds": {total},
  "quality": {{
    "experiments": {{"fig10": {{"accuracy": {accuracy}, "macro_f1": 90.0}}}},
    "segmentation": {{"segments_found": 10, "segments_merged": 2, "otsu_threshold": 0.01}},
    "distinguish": {{"detect": 8, "track": 2, "rejected": 0, "rejection_rate": 0}}
  }},
  "metrics": {{
    "counters": [],
    "gauges": [],
    "histograms": [
      {{"name": "pipeline_stage_seconds", "labels": {{"stage": "sbc"}},
        "count": 4, "sum": 0.04, "mean": 0.01,
        "p50": 0.01, "p95": {p95}, "p99": {p95},
        "buckets": [{{"le": 1.0, "count": 4}}, {{"le": "+Inf", "count": 4}}]}}
    ]
  }}
}}"#,
            total = fig10_s + 0.5,
        )
    }

    fn gate() -> DiffOptions {
        DiffOptions {
            max_time_regress_pct: Some(50.0),
            min_accuracy_pct: Some(90.0),
            perf_tolerance_pct: Some(10.0),
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = report("base", 1.0, 97.5, 0.012);
        let diff = diff_reports(&a, &a, &gate()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
        let text = diff.lines.join("\n");
        assert!(text.contains("gate: PASS"));
        assert!(text.contains("fig10"));
        assert!(text.contains("pipeline_stage_seconds"));
    }

    #[test]
    fn injected_accuracy_regression_fails() {
        let base = report("base", 1.0, 97.5, 0.012);
        let bad = report("bad", 1.0, 80.0, 0.012);
        let diff = diff_reports(&base, &bad, &gate()).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.violations.iter().any(|v| v.contains("accuracy")),
            "{:?}",
            diff.violations
        );
        assert!(diff.lines.join("\n").contains("gate: FAIL"));
    }

    #[test]
    fn injected_time_regression_fails() {
        let base = report("base", 1.0, 97.5, 0.012);
        let slow = report("slow", 2.0, 97.5, 0.012);
        let diff = diff_reports(&base, &slow, &gate()).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.violations.iter().any(|v| v.contains("wall time")),
            "{:?}",
            diff.violations
        );
    }

    #[test]
    fn regression_within_threshold_passes() {
        let base = report("base", 1.0, 97.5, 0.012);
        let slightly = report("new", 1.2, 95.0, 0.02);
        let diff = diff_reports(&base, &slightly, &gate()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
    }

    #[test]
    fn gates_off_never_fail() {
        let base = report("base", 1.0, 97.5, 0.012);
        let awful = report("awful", 50.0, 10.0, 0.5);
        let diff = diff_reports(&base, &awful, &DiffOptions::default()).unwrap();
        assert!(diff.passed());
    }

    #[test]
    fn missing_quality_in_baseline_is_tolerated() {
        // An old baseline without quality/percentiles still gates time.
        let old = r#"{
  "label": "old",
  "meta": {},
  "experiments": [{"id": "fig10", "seconds": 1.0}],
  "total_seconds": 1.5,
  "metrics": {"counters": [], "gauges": [], "histograms": []}
}"#;
        let new = report("new", 1.1, 97.5, 0.012);
        let diff = diff_reports(old, &new, &gate()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
        // But a *low* accuracy in the candidate is still caught: the
        // floor gate needs no baseline.
        let bad = report("bad", 1.1, 50.0, 0.012);
        let diff = diff_reports(old, &bad, &gate()).unwrap();
        assert!(!diff.passed());
    }

    /// A run report carrying only perf metrics (counters + gauges).
    fn perf_report(label: &str, pushes: u64, p99_ns: f64, samples_per_s: f64) -> String {
        format!(
            r#"{{
  "label": "{label}",
  "meta": {{}},
  "experiments": [{{"id": "perf", "seconds": 0.2}}],
  "total_seconds": 0.2,
  "metrics": {{
    "counters": [
      {{"name": "perf_pushes_total", "labels": {{}}, "value": {pushes}}}
    ],
    "gauges": [
      {{"name": "perf_push_p99_ns", "labels": {{}}, "value": {p99_ns}}},
      {{"name": "perf_samples_per_s", "labels": {{}}, "value": {samples_per_s}}},
      {{"name": "perf_stage_mean_ns", "labels": {{"stage": "features"}}, "value": 2000.0}}
    ],
    "histograms": []
  }}
}}"#
        )
    }

    fn perf_gate() -> DiffOptions {
        DiffOptions {
            perf_tolerance_pct: Some(10.0),
            ..DiffOptions::default()
        }
    }

    #[test]
    fn metric_classes_follow_the_suffix_convention() {
        assert_eq!(
            metric_class("perf_pushes_total"),
            MetricClass::Deterministic
        );
        assert_eq!(
            metric_class("perf_allocs_per_push"),
            MetricClass::Deterministic
        );
        assert_eq!(metric_class("perf_push_p99_ns"), MetricClass::Timing);
        assert_eq!(metric_class("perf_samples_per_s"), MetricClass::Timing);
        assert_eq!(metric_class("perf_stream_seconds"), MetricClass::Timing);
        // Labels never change the class — the suffix is on the name.
        assert_eq!(
            metric_class("perf_stage_mean_ns{stage=\"features\"}"),
            MetricClass::Timing
        );
        assert!(higher_is_better("perf_samples_per_s"));
        assert!(!higher_is_better("perf_push_p99_ns"));
    }

    #[test]
    fn identical_perf_snapshots_pass_the_perf_gate() {
        let a = perf_report("base", 12000, 8191.0, 250000.0);
        let diff = diff_reports(&a, &a, &perf_gate()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
        assert!(diff.ratchet_candidates.is_empty());
        let text = diff.lines.join("\n");
        assert!(text.contains("perf_pushes_total"), "{text}");
        assert!(text.contains("exact"), "{text}");
        assert!(text.contains("timing"), "{text}");
    }

    #[test]
    fn deterministic_perf_drift_fails_exactly() {
        let base = perf_report("base", 12000, 8191.0, 250000.0);
        // One push off — far below any relative tolerance, still a FAIL.
        let off = perf_report("off", 12001, 8191.0, 250000.0);
        let diff = diff_reports(&base, &off, &perf_gate()).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.violations
                .iter()
                .any(|v| v.contains("deterministic") && v.contains("perf_pushes_total")),
            "{:?}",
            diff.violations
        );
    }

    #[test]
    fn timing_drift_within_tolerance_passes() {
        let base = perf_report("base", 12000, 8191.0, 250000.0);
        let near = perf_report("near", 12000, 8600.0, 240000.0);
        let diff = diff_reports(&base, &near, &perf_gate()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
    }

    #[test]
    fn timing_regression_beyond_tolerance_fails() {
        let base = perf_report("base", 12000, 8191.0, 250000.0);
        // p99 +50% — a latency regression; throughput unchanged.
        let slow = perf_report("slow", 12000, 12286.0, 250000.0);
        let diff = diff_reports(&base, &slow, &perf_gate()).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.violations
                .iter()
                .any(|v| v.contains("perf_push_p99_ns") && v.contains("regressed")),
            "{:?}",
            diff.violations
        );
    }

    #[test]
    fn throughput_direction_is_higher_is_better() {
        let base = perf_report("base", 12000, 8191.0, 250000.0);
        // Throughput -40% is a regression even though the number "fell".
        let slow = perf_report("slow", 12000, 8191.0, 150000.0);
        let diff = diff_reports(&base, &slow, &perf_gate()).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.violations
                .iter()
                .any(|v| v.contains("perf_samples_per_s")),
            "{:?}",
            diff.violations
        );
        // Throughput +40% is an improvement: PASS, plus a ratchet hint.
        let fast = perf_report("fast", 12000, 8191.0, 350000.0);
        let diff = diff_reports(&base, &fast, &perf_gate()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
        assert!(
            diff.ratchet_candidates
                .iter()
                .any(|c| c.contains("perf_samples_per_s")),
            "{:?}",
            diff.ratchet_candidates
        );
        assert!(diff.lines.join("\n").contains("--rebaseline"));
    }

    #[test]
    fn perf_gate_off_never_fails_and_old_baselines_are_tolerated() {
        let base = perf_report("base", 12000, 8191.0, 250000.0);
        let wild = perf_report("wild", 9000, 90000.0, 10.0);
        let diff = diff_reports(&base, &wild, &DiffOptions::default()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
        // A baseline with no perf metrics at all gates nothing.
        let old = r#"{"label": "old", "meta": {}, "experiments": [],
                      "metrics": {"counters": [], "gauges": [], "histograms": []}}"#;
        let diff = diff_reports(old, &wild, &perf_gate()).unwrap();
        assert!(diff.passed(), "{:?}", diff.violations);
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(diff_reports("{", "{}", &DiffOptions::default()).is_err());
        assert!(diff_reports("{}", "not json", &DiffOptions::default()).is_err());
    }

    /// Both sides' toolchains, and whether they match, print above the
    /// perf table; the verdict does not depend on them.
    #[test]
    fn toolchains_print_above_the_perf_table() {
        let with_meta = |rustc: &str| {
            perf_report("x", 12000, 8191.0, 250000.0).replace(
                r#""meta": {}"#,
                &format!(r#""meta": {{"rustc": "{rustc}", "target": "x86_64-unknown-linux-gnu"}}"#),
            )
        };
        let lines_of = |base: &str, new: &str| {
            let diff = diff_reports(base, new, &perf_gate()).unwrap();
            assert!(diff.passed(), "{:?}", diff.violations);
            diff.lines
        };
        let a = with_meta("rustc 1.95.0");
        let lines = lines_of(&a, &with_meta("rustc 1.96.0"));
        let at = |prefix: &str| lines.iter().position(|l| l.starts_with(prefix)).unwrap();
        assert_eq!(
            lines[at("toolchain base:")],
            "toolchain base: rustc 1.95.0 (x86_64-unknown-linux-gnu)"
        );
        assert_eq!(
            lines[at("toolchain new:")],
            "toolchain new:  rustc 1.96.0 (x86_64-unknown-linux-gnu)"
        );
        assert_eq!(lines[at("toolchain match:")], "toolchain match: no");
        assert!(at("toolchain match:") < at("perf metric"));
        assert!(lines_of(&a, &a).contains(&"toolchain match: yes".to_string()));
        let old = perf_report("old", 12000, 8191.0, 250000.0);
        let lines = lines_of(&old, &a);
        assert!(lines.contains(&"toolchain base: unknown".to_string()));
        assert!(lines.contains(&"toolchain match: unknown".to_string()));
    }
}
