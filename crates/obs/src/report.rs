//! Machine-readable run reports: one JSON document per run, combining
//! run identity (label + metadata), per-experiment wall time, a distilled
//! **quality** section (per-gesture recall/precision, segmentation and
//! distinguish counters, rejection rate), and the full metrics snapshot
//! (per-stage latency histograms with p50/p95/p99/max, counters, gauges).
//! This is the payload behind `--metrics <path>` and the
//! `BENCH_<label>.json` perf-trajectory artifacts that `repro diff`
//! gates on.
//!
//! The quality section is assembled from the snapshot by the stable
//! naming convention declared in DESIGN.md §Observability: gauges named
//! `quality_*` (labelled `experiment`, optionally `gesture`) and the
//! `pipeline_segments_*`/`pipeline_family_total`/
//! `pipeline_recognitions_total` counter families.

use crate::export::{json_number, json_string};
use crate::registry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write;

/// A structured report of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    label: String,
    meta: Vec<(String, String)>,
    experiments: Vec<(String, f64)>,
    snapshot: Snapshot,
}

impl RunReport {
    /// Start a report for `label` around a metrics snapshot.
    #[must_use]
    pub fn new(label: &str, snapshot: Snapshot) -> Self {
        RunReport {
            label: label.to_string(),
            meta: Vec::new(),
            experiments: Vec::new(),
            snapshot,
        }
    }

    /// Attach a metadata pair (scale, seed, thread count, …).
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Record one experiment's wall time in seconds.
    pub fn experiment(&mut self, id: &str, seconds: f64) {
        self.experiments.push((id.to_string(), seconds));
    }

    /// The wrapped metrics snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Render the report as a JSON document:
    ///
    /// ```json
    /// {
    ///   "label": "pr2",
    ///   "meta": {"scale": "quick", "threads": "4"},
    ///   "experiments": [{"id": "fig10", "seconds": 4.05}],
    ///   "total_seconds": 4.05,
    ///   "quality": { "experiments": {...}, "segmentation": {...},
    ///                "distinguish": {...} },
    ///   "metrics": { "counters": [...], "gauges": [...], "histograms": [...] }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "\"label\": {},", json_string(&self.label));
        out.push_str("\"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_string(k), json_string(v));
        }
        out.push_str("},\n\"experiments\": [");
        for (i, (id, seconds)) in self.experiments.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\n  {{\"id\": {}, \"seconds\": {}}}",
                json_string(id),
                json_number(*seconds)
            );
        }
        let total: f64 = self.experiments.iter().map(|(_, s)| s).sum();
        let _ = write!(out, "],\n\"total_seconds\": {},\n", json_number(total));
        out.push_str("\"quality\": ");
        out.push_str(&quality_json(&self.snapshot));
        out.push_str(",\n");
        // Splice the snapshot object in as the "metrics" member.
        out.push_str("\"metrics\": ");
        out.push_str(self.snapshot.to_json().trim_end());
        out.push_str("\n}\n");
        out
    }
}

/// Distill the quality section from a snapshot by naming convention.
fn quality_json(snapshot: &Snapshot) -> String {
    // experiment → metric → value, and experiment → gesture → metric → value.
    let mut scalars: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut gestures: BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>> = BTreeMap::new();
    for g in &snapshot.gauges {
        let Some(metric) = g.id.name.strip_prefix("quality_") else {
            continue;
        };
        let label = |key: &str| {
            g.id.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let Some(experiment) = label("experiment") else {
            continue;
        };
        if let Some(gesture) = label("gesture") {
            gestures
                .entry(experiment)
                .or_default()
                .entry(gesture)
                .or_default()
                .insert(metric.to_string(), g.value);
        } else {
            scalars
                .entry(experiment)
                .or_default()
                .insert(metric.to_string(), g.value);
        }
    }

    let mut out = String::from("{\n  \"experiments\": {");
    let names: std::collections::BTreeSet<&String> =
        scalars.keys().chain(gestures.keys()).collect();
    for (i, experiment) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\n    {}: {{", json_string(experiment));
        let mut first = true;
        if let Some(metrics) = scalars.get(*experiment) {
            for (metric, value) in metrics {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "{}: {}", json_string(metric), json_number(*value));
            }
        }
        if let Some(per_gesture) = gestures.get(*experiment) {
            if !first {
                out.push_str(", ");
            }
            out.push_str("\"gestures\": {");
            for (j, (gesture, metrics)) in per_gesture.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {{", json_string(gesture));
                for (k, (metric, value)) in metrics.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}: {}", json_string(metric), json_number(*value));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n  },\n  \"segmentation\": {");
    let found = snapshot
        .counter_value("pipeline_segments_found_total", &[])
        .unwrap_or(0);
    let merged = snapshot
        .counter_value("pipeline_segments_merged_total", &[])
        .unwrap_or(0);
    let otsu = snapshot
        .gauge_value("pipeline_otsu_threshold", &[])
        .unwrap_or(0.0);
    let _ = write!(
        out,
        "\"segments_found\": {found}, \"segments_merged\": {merged}, \"otsu_threshold\": {}",
        json_number(otsu)
    );
    out.push_str("},\n  \"distinguish\": {");
    let kind = |k: &str| {
        snapshot
            .counter_value("pipeline_recognitions_total", &[("kind", k)])
            .unwrap_or(0)
    };
    let (detect, track, rejected) = (kind("detect"), kind("track"), kind("rejected"));
    let total = detect + track + rejected;
    let rejection_rate = if total == 0 {
        0.0
    } else {
        rejected as f64 / total as f64
    };
    let _ = write!(
        out,
        "\"detect\": {detect}, \"track\": {track}, \"rejected\": {rejected}, \
         \"rejection_rate\": {}",
        json_number(rejection_rate)
    );
    out.push_str("}\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn report_renders_valid_json() {
        let registry = Registry::new();
        registry.counter("runs_total", &[], "").inc();
        let h = registry.histogram("stage_seconds", &[("stage", "sbc")], "");
        h.record(20_000_000);
        let mut report = RunReport::new("test", registry.snapshot());
        report.meta("scale", "quick");
        report.meta("threads", 4);
        report.experiment("fig10", 1.25);
        report.experiment("table2", 0.75);
        let json = report.to_json();
        let value: serde::Value = serde_json::from_str(&json).expect("report is valid JSON");
        let obj = value.as_object().unwrap();
        assert_eq!(
            obj.get("label").and_then(serde::Value::as_str),
            Some("test")
        );
        let experiments = obj
            .get("experiments")
            .and_then(serde::Value::as_array)
            .unwrap();
        assert_eq!(experiments.len(), 2);
        assert!(obj.get("metrics").is_some());
        assert!(json.contains("\"total_seconds\": 2"));
    }

    #[test]
    fn empty_report_is_valid() {
        let report = RunReport::new("empty", Registry::new().snapshot());
        let json = report.to_json();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        // The quality section is present even when nothing fed it.
        let quality = value.as_object().unwrap().get("quality").unwrap();
        let seg = quality.as_object().unwrap().get("segmentation").unwrap();
        assert_eq!(
            seg.as_object()
                .unwrap()
                .get("segments_found")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn quality_section_assembles_from_conventions() {
        let registry = Registry::new();
        registry
            .gauge("quality_accuracy", &[("experiment", "fig10")], "")
            .set(97.5);
        registry
            .gauge("quality_macro_f1", &[("experiment", "fig10")], "")
            .set(96.0);
        registry
            .gauge(
                "quality_recall",
                &[("experiment", "fig10"), ("gesture", "tap")],
                "",
            )
            .set(98.0);
        registry
            .gauge(
                "quality_precision",
                &[("experiment", "fig10"), ("gesture", "tap")],
                "",
            )
            .set(95.0);
        registry
            .counter("pipeline_segments_found_total", &[], "")
            .add(40);
        registry
            .counter("pipeline_segments_merged_total", &[], "")
            .add(7);
        registry.gauge("pipeline_otsu_threshold", &[], "").set(0.02);
        registry
            .counter("pipeline_recognitions_total", &[("kind", "detect")], "")
            .add(30);
        registry
            .counter("pipeline_recognitions_total", &[("kind", "track")], "")
            .add(8);
        registry
            .counter("pipeline_recognitions_total", &[("kind", "rejected")], "")
            .add(2);
        let report = RunReport::new("q", registry.snapshot());
        let value: serde::Value = serde_json::from_str(&report.to_json()).unwrap();
        let quality = value.as_object().unwrap().get("quality").unwrap();
        let obj = quality.as_object().unwrap();
        let fig10 = obj
            .get("experiments")
            .unwrap()
            .as_object()
            .unwrap()
            .get("fig10")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(fig10.get("accuracy").unwrap().as_f64(), Some(97.5));
        let tap = fig10
            .get("gestures")
            .unwrap()
            .as_object()
            .unwrap()
            .get("tap")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(tap.get("recall").unwrap().as_f64(), Some(98.0));
        assert_eq!(tap.get("precision").unwrap().as_f64(), Some(95.0));
        let seg = obj.get("segmentation").unwrap().as_object().unwrap();
        assert_eq!(seg.get("segments_found").unwrap().as_u64(), Some(40));
        assert_eq!(seg.get("segments_merged").unwrap().as_u64(), Some(7));
        let dist = obj.get("distinguish").unwrap().as_object().unwrap();
        assert_eq!(dist.get("detect").unwrap().as_u64(), Some(30));
        let rate = dist.get("rejection_rate").unwrap().as_f64().unwrap();
        assert!((rate - 0.05).abs() < 1e-12);
    }
}
