//! Snapshot exporters: machine-readable JSON and Prometheus text format.
//!
//! Both are hand-rolled (this crate takes no dependencies, not even the
//! workspace's vendored `serde_json`) and deterministic: metrics render
//! sorted by identity, so two snapshots of identical state produce
//! identical bytes.

use crate::registry::{HistogramSnapshot, MetricId, Snapshot};
use std::fmt::Write;

impl Snapshot {
    /// Render as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": [{"name": "...", "labels": {...}, "value": 1}],
    ///   "gauges": [{"name": "...", "labels": {...}, "value": 1.5}],
    ///   "histograms": [{"name": "x_seconds", "labels": {...}, "count": 2,
    ///                   "sum": 0.0000015, "mean": 0.00000075,
    ///                   "p50": 0.000000511, "p95": 0.000001,
    ///                   "p99": 0.000001, "max": 0.000001,
    ///                   "buckets": [{"le": 0.000000511, "count": 1},
    ///                               {"le": 0.000001023, "count": 2},
    ///                               {"le": "+Inf", "count": 2}]}]
    /// }
    /// ```
    ///
    /// Histogram values are in export units (seconds for `_seconds`
    /// names, see [`HistogramSnapshot`]); percentiles follow
    /// [`HistogramSnapshot::quantile_raw`]; `buckets` lists the non-empty
    /// buckets with cumulative counts, closed by `+Inf`. Non-finite
    /// values never appear: an empty histogram exports `"mean": 0` and
    /// `null` percentiles and max.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            push_sep(&mut out, i);
            let _ = write!(
                out,
                "{{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                json_string(&c.id.name),
                json_labels(&c.id),
                c.value
            );
        }
        out.push_str("],\n  \"gauges\": [");
        for (i, g) in self.gauges.iter().enumerate() {
            push_sep(&mut out, i);
            let _ = write!(
                out,
                "{{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                json_string(&g.id.name),
                json_labels(&g.id),
                json_number(g.value)
            );
        }
        out.push_str("],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            push_sep(&mut out, i);
            out.push_str(&histogram_json(h));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Render in the Prometheus text exposition format (`# HELP`/`# TYPE`
    /// lines, `_bucket`/`_sum`/`_count` histogram series, escaped label
    /// values and help text).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            prom_header(&mut out, &c.id.name, &c.help, "counter");
            let _ = writeln!(out, "{} {}", prom_identity(&c.id, &[]), c.value);
        }
        for g in &self.gauges {
            prom_header(&mut out, &g.id.name, &g.help, "gauge");
            let _ = writeln!(
                out,
                "{} {}",
                prom_identity(&g.id, &[]),
                prom_number(g.value)
            );
        }
        for h in &self.histograms {
            prom_header(&mut out, &h.id.name, &h.help, "histogram");
            let base = sanitize_name(&h.id.name);
            for (edge, count) in h.cumulative() {
                let le = edge.map_or_else(|| "+Inf".to_string(), |e| prom_number(h.scaled(e)));
                let _ = writeln!(
                    out,
                    "{} {count}",
                    prom_identity_named(&format!("{base}_bucket"), &h.id, &[("le", &le)])
                );
            }
            let _ = writeln!(
                out,
                "{} {}",
                prom_identity_named(&format!("{base}_sum"), &h.id, &[]),
                prom_number(h.scaled(h.sum))
            );
            let _ = writeln!(
                out,
                "{} {}",
                prom_identity_named(&format!("{base}_count"), &h.id, &[]),
                h.count
            );
            // A histogram-typed metric cannot carry {quantile=} series, so
            // the bucket percentiles and the exact max (quantile 1)
            // export as a companion summary.
            if h.count > 0 {
                let qname = format!("{base}_quantiles");
                prom_header(&mut out, &qname, &h.help, "summary");
                for (quantile, raw) in QUANTILES
                    .iter()
                    .map(|&(_, label, q)| (label, h.quantile_raw(q)))
                    .chain(std::iter::once(("1", h.max)))
                {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        prom_identity_named(&qname, &h.id, &[("quantile", quantile)]),
                        prom_number(h.scaled(raw))
                    );
                }
                let _ = writeln!(
                    out,
                    "{} {}",
                    prom_identity_named(&format!("{qname}_sum"), &h.id, &[]),
                    prom_number(h.scaled(h.sum))
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    prom_identity_named(&format!("{qname}_count"), &h.id, &[]),
                    h.count
                );
            }
        }
        out
    }
}

/// The exported percentiles: JSON key, Prometheus `quantile` label, `q`.
const QUANTILES: [(&str, &str, f64); 3] = [
    ("p50", "0.5", 0.50),
    ("p95", "0.95", 0.95),
    ("p99", "0.99", 0.99),
];

fn push_sep(out: &mut String, i: usize) {
    if i > 0 {
        out.push_str(", ");
    }
    out.push_str("\n    ");
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"name\": {}, \"labels\": {}, \"count\": {}, \"sum\": {}, \"mean\": {}",
        json_string(&h.id.name),
        json_labels(&h.id),
        h.count,
        json_number(h.scaled(h.sum)),
        json_number(h.mean())
    );
    let null = || "null".to_string();
    for (label, _, q) in QUANTILES {
        let value = h.quantile(q).map_or_else(null, json_number);
        let _ = write!(out, ", \"{label}\": {value}");
    }
    let max = (h.count > 0).then(|| h.scaled(h.max));
    let _ = write!(out, ", \"max\": {}", max.map_or_else(null, json_number));
    out.push_str(", \"buckets\": [");
    for (i, (edge, count)) in h.cumulative().into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let le = edge.map_or_else(|| "\"+Inf\"".to_string(), |e| json_number(h.scaled(e)));
        let _ = write!(out, "{{\"le\": {le}, \"count\": {count}}}");
    }
    out.push_str("]}");
    out
}

/// Escape and quote a JSON string.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a finite f64 as a JSON number (non-finite values become null —
/// JSON has no Inf/NaN).
#[must_use]
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // `{}` on f64 is the shortest roundtrip-exact form, but bare integers
    // ("3") are still valid JSON numbers, so no fixup is needed.
    format!("{v}")
}

fn json_labels(id: &MetricId) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in id.labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_string(k), json_string(v));
    }
    out.push('}');
    out
}

/// Replace characters outside `[a-zA-Z0-9_:]` with `_` and prefix a
/// leading digit — Prometheus metric-name rules.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a Prometheus label **value**: backslash, double-quote and
/// newline must be escaped inside the quoted value.
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape Prometheus `# HELP` text: only backslash and newline.
#[must_use]
pub fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let name = sanitize_name(name);
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn prom_identity(id: &MetricId, extra: &[(&str, &str)]) -> String {
    prom_identity_named(&sanitize_name(&id.name), id, extra)
}

fn prom_identity_named(name: &str, id: &MetricId, extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(String, String)> = id
        .labels
        .iter()
        .map(|(k, v)| (sanitize_name(k), escape_label_value(v)))
        .collect();
    pairs.extend(
        extra
            .iter()
            .map(|(k, v)| (sanitize_name(k), escape_label_value(v))),
    );
    if pairs.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Render an f64 the way Prometheus expects (`+Inf`, `-Inf`, `NaN`
/// spelled out).
#[must_use]
pub fn prom_number(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("events_total", &[("kind", "ok")], "Number of events")
            .add(3);
        r.gauge("depth", &[], "Queue depth").set(1.5);
        // 50 ms, 500 ms and 5 s, recorded in nanoseconds like a span.
        let h = r.histogram("lat_seconds", &[], "Latency");
        h.record(50_000_000);
        h.record(500_000_000);
        h.record(5_000_000_000);
        r
    }

    #[cfg(feature = "obs")]
    #[test]
    fn json_export_parses_and_roundtrips_values() {
        let snap = sample_registry().snapshot();
        let json = snap.to_json();
        let value: serde::Value = serde_json::from_str(&json).expect("exporter emits valid JSON");
        let text = serde_json::to_string(&value).unwrap();
        assert!(text.contains("events_total"));
        assert!(text.contains("lat_seconds"));
        assert!(json.contains("\"mean\""));
        assert!(json.contains("\"+Inf\""));
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), r#""\u0001""#);
        let _: serde::Value = serde_json::from_str(&json_string("q\"\\\n\t\r\u{2}")).unwrap();
    }

    #[test]
    fn json_numbers_are_finite_or_null() {
        assert_eq!(json_number(2.5), "2.5");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn prometheus_format_shape() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# HELP events_total Number of events\n"));
        assert!(text.contains("# TYPE events_total counter\n"));
        assert!(text.contains("events_total{kind=\"ok\"} 3\n"));
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        // Log2 nanosecond edges, exported in seconds.
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.067108863\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_bucket{le=\"0.536870911\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"8.589934591\"} 3\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_sum 5.55\n"));
        assert!(text.contains("lat_seconds_count 3\n"));
        assert!(text.contains("depth 1.5\n"));
    }

    #[test]
    fn prometheus_escaping_rules() {
        // Label values: backslash, quote and newline escaped.
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // Help text: backslash and newline, but quotes pass through.
        assert_eq!(escape_help("x\ny"), "x\\ny");
        assert_eq!(escape_help(r#"say "hi""#), r#"say "hi""#);
        assert_eq!(escape_help("back\\slash"), "back\\\\slash");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn prometheus_escapes_hostile_labels_end_to_end() {
        let r = Registry::new();
        r.counter("weird total", &[("path", "C:\\dir\n\"x\"")], "multi\nline")
            .inc();
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# HELP weird_total multi\\nline\n"));
        assert!(
            text.contains(r#"weird_total{path="C:\\dir\n\"x\""} 1"#),
            "{text}"
        );
        // No raw newline may survive inside any sample line.
        for line in text.lines() {
            assert!(!line.contains('\r'));
        }
    }

    #[test]
    fn names_sanitize_to_prometheus_charset() {
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_name("has space-and.dots"), "has_space_and_dots");
        assert_eq!(sanitize_name("9starts_digit"), "_9starts_digit");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn prom_numbers_spell_infinities() {
        assert_eq!(prom_number(0.25), "0.25");
        assert_eq!(prom_number(f64::INFINITY), "+Inf");
        assert_eq!(prom_number(f64::NEG_INFINITY), "-Inf");
        assert_eq!(prom_number(f64::NAN), "NaN");
    }

    #[test]
    fn empty_snapshot_exports() {
        let snap = Registry::new().snapshot();
        let _: serde::Value = serde_json::from_str(&snap.to_json()).unwrap();
        assert!(snap.to_prometheus().is_empty());
    }

    /// An *empty histogram* (registered, zero observations) must export
    /// finite JSON: mean 0, percentiles null — never NaN/inf, which would
    /// make the document unparseable.
    #[test]
    fn empty_histogram_exports_finite_json_and_parses_back() {
        let r = Registry::new();
        let _ = r.histogram("idle_seconds", &[], "never observed");
        let json = r.snapshot().to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        let value: serde::Value = serde_json::from_str(&json).expect("empty snapshot parses back");
        let hists = value.as_object().unwrap().get("histograms").unwrap();
        let h = hists.as_array().unwrap()[0].as_object().unwrap();
        assert_eq!(h.get("mean").unwrap().as_f64(), Some(0.0));
        assert_eq!(h.get("count").unwrap().as_u64(), Some(0));
        for p in ["p50", "p95", "p99", "max"] {
            assert!(h.get(p).unwrap().is_null(), "{p} must be null when empty");
        }
        // Only the `+Inf` bucket, at zero.
        let buckets = h.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 1);
        // The Prometheus side emits no quantile summary for an empty
        // histogram (a NaN quantile sample would poison scrapes).
        assert!(!r.snapshot().to_prometheus().contains("_quantiles"));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn json_export_carries_percentiles() {
        let snap = sample_registry().snapshot();
        let value: serde::Value = serde_json::from_str(&snap.to_json()).unwrap();
        let hists = value.as_object().unwrap().get("histograms").unwrap();
        let h = hists.as_array().unwrap()[0].as_object().unwrap();
        let field = |k: &str| h.get(k).unwrap().as_f64().unwrap();
        // Rank walk over {50 ms, 500 ms, 5 s}: each rank reports its
        // bucket's upper edge, capped at the exact max, in seconds.
        assert_eq!(field("p50"), 0.536870911);
        assert_eq!(field("p99"), 5.0);
        assert_eq!(field("max"), 5.0);
        assert_eq!(field("sum"), 5.55);
        assert!(field("p50") <= field("p95") && field("p95") <= field("p99"));
        assert!((field("mean") - 1.85).abs() < 1e-12);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn json_export_elides_empty_buckets() {
        let r = Registry::new();
        let h = r.histogram("elide_seconds", &[("stage", "sbc")], "");
        h.record(100);
        h.record(100);
        h.record(5_000);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"stage\": \"sbc\""), "{json}");
        // Two non-empty buckets (edges 127 ns and 8191 ns), cumulative,
        // then +Inf; nothing for the empty buckets in between.
        assert!(
            json.contains(
                "\"buckets\": [{\"le\": 0.000000127, \"count\": 2}, \
                 {\"le\": 0.000008191, \"count\": 3}, {\"le\": \"+Inf\", \"count\": 3}]"
            ),
            "{json}"
        );
    }

    /// Every exported percentile ladder is ordered and capped by the
    /// max, whatever the distribution (overflow-bucket ranks report the
    /// exact max, so p99 ≤ max holds there too).
    #[cfg(feature = "obs")]
    #[test]
    fn percentiles_are_ordered_up_to_the_max() {
        let r = Registry::new();
        let h = r.histogram("ladder_seconds", &[], "");
        for (i, v) in [0u64, 1, 7, 900, 1_000, 65_000, 1 << 40, u64::MAX]
            .into_iter()
            .enumerate()
        {
            for _ in 0..=i {
                h.record(v);
            }
            let snap = r.snapshot();
            let s = snap.histogram("ladder_seconds", &[]).unwrap();
            let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| s.quantile_raw(q));
            assert!(p50 <= p95 && p95 <= p99 && p99 <= s.max, "{i}");
            assert!(s.quantile(0.5).is_some());
        }
    }

    /// `_seconds` histograms record nanoseconds and export seconds; every
    /// other histogram (the `parallel_worker_jobs` counts) exports the
    /// recorded values unscaled.
    #[cfg(feature = "obs")]
    #[test]
    fn seconds_names_export_in_seconds_and_counts_unscaled() {
        let r = Registry::new();
        r.histogram("push_seconds", &[], "").record(1_500);
        r.histogram("parallel_worker_jobs", &[("op", "map")], "")
            .record(12);
        let value: serde::Value = serde_json::from_str(&r.snapshot().to_json()).unwrap();
        let hists = value.as_object().unwrap().get("histograms").unwrap();
        let by_name = |name: &str| {
            hists
                .as_array()
                .unwrap()
                .iter()
                .map(|h| h.as_object().unwrap())
                .find(|h| h.get("name").unwrap().as_str() == Some(name))
                .unwrap()
        };
        let jobs = by_name("parallel_worker_jobs");
        assert_eq!(jobs.get("sum").unwrap().as_f64(), Some(12.0));
        assert_eq!(jobs.get("max").unwrap().as_f64(), Some(12.0));
        assert_eq!(jobs.get("p50").unwrap().as_f64(), Some(12.0));
        let push = by_name("push_seconds");
        assert_eq!(push.get("sum").unwrap().as_f64(), Some(1.5e-6));
        assert_eq!(push.get("max").unwrap().as_f64(), Some(1.5e-6));
        assert_eq!(push.get("p50").unwrap().as_f64(), Some(1.5e-6));
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("parallel_worker_jobs_bucket{op=\"map\",le=\"15\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("parallel_worker_jobs_sum{op=\"map\"} 12\n"),
            "{text}"
        );
        assert!(
            text.contains("push_seconds_bucket{le=\"0.000002047\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("push_seconds_sum 0.0000015\n"), "{text}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn prometheus_emits_quantile_summary() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE lat_seconds_quantiles summary\n"));
        assert!(text.contains("lat_seconds_quantiles{quantile=\"0.5\"} 0.536870911\n"));
        assert!(text.contains("lat_seconds_quantiles{quantile=\"0.95\"} 5\n"));
        assert!(text.contains("lat_seconds_quantiles{quantile=\"0.99\"} 5\n"));
        // Quantile 1 is the exact max.
        assert!(text.contains("lat_seconds_quantiles{quantile=\"1\"} 5\n"));
        assert!(text.contains("lat_seconds_quantiles_sum 5.55\n"));
        assert!(text.contains("lat_seconds_quantiles_count 3\n"));
    }

    /// Prometheus exposition conformance: every `# HELP`/`# TYPE` comment
    /// precedes the first series of its metric, and `_bucket` counts are
    /// cumulative in `le`.
    #[cfg(feature = "obs")]
    #[test]
    fn prometheus_headers_precede_series_and_buckets_are_cumulative() {
        let text = sample_registry().snapshot().to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        // For each metric family, the first mention must be a comment line.
        for family in ["events_total", "depth", "lat_seconds"] {
            let first = lines
                .iter()
                .position(|l| {
                    let name = l
                        .strip_prefix("# HELP ")
                        .or_else(|| l.strip_prefix("# TYPE "));
                    match name {
                        Some(rest) => rest.split_whitespace().next() == Some(family),
                        None => l.starts_with(family),
                    }
                })
                .expect("family present");
            assert!(
                lines[first].starts_with("# HELP"),
                "{family}: first line is {:?}",
                lines[first]
            );
            let type_line = first + 1;
            assert!(
                lines[type_line].starts_with("# TYPE"),
                "{family}: HELP not followed by TYPE"
            );
        }
        // Bucket counts never decrease as `le` grows, and +Inf == count.
        let buckets: Vec<u64> = lines
            .iter()
            .filter(|l| l.starts_with("lat_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets, vec![1, 2, 3, 3]);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert!(lines
            .iter()
            .rfind(|l| l.starts_with("lat_seconds_bucket"))
            .unwrap()
            .contains("le=\"+Inf\""));
        let count: u64 = lines
            .iter()
            .find(|l| l.starts_with("lat_seconds_count"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .unwrap();
        assert_eq!(*buckets.last().unwrap(), count);
    }

    /// A histogram that is not a `_seconds` family exports its log2 edges
    /// unscaled: cumulative `_bucket` lines up to `+Inf`, the `_count`,
    /// and the quantile summary.
    #[cfg(feature = "obs")]
    #[test]
    fn prometheus_histogram_buckets_are_cumulative_with_inf() {
        let r = Registry::new();
        let h = r.histogram("prom_cumulative_ns", &[], "");
        h.record(2);
        h.record(100);
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("# TYPE prom_cumulative_ns histogram\n"),
            "{text}"
        );
        assert!(
            text.contains("prom_cumulative_ns_bucket{le=\"3\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("prom_cumulative_ns_bucket{le=\"127\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("prom_cumulative_ns_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("prom_cumulative_ns_count 2\n"), "{text}");
        assert!(
            text.contains("prom_cumulative_ns_quantiles{quantile=\"0.99\"}"),
            "{text}"
        );
    }

    /// Round-trip: a hostile label value survives escaping and a simple
    /// unescape reproduces the original.
    #[test]
    fn label_escaping_round_trips() {
        let hostile = "a\\b\"c\nd";
        let escaped = escape_label_value(hostile);
        assert!(!escaped.contains('\n'));
        let mut unescaped = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => unescaped.push('\\'),
                    Some('"') => unescaped.push('"'),
                    Some('n') => unescaped.push('\n'),
                    other => panic!("unknown escape {other:?}"),
                }
            } else {
                unescaped.push(c);
            }
        }
        assert_eq!(unescaped, hostile);
        // Help-text escaping round-trips the same way minus the quote rule.
        let help = "line1\nline2\\end";
        let esc = escape_help(help);
        assert_eq!(esc, "line1\\nline2\\\\end");
    }
}
