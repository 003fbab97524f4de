//! The result of one run and its printed form.

use crate::meta::json_str;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase (samples offered).
    pub attempted: u64,
    /// Operations that failed: calls returning `Err` plus samples lost
    /// to shedding.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Workload parameters recorded in the run metadata.
    pub params: Vec<(&'static str, String)>,
    /// Output-check failures.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a human-readable line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Record a workload parameter.
    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Record an output-check failure.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    /// The final result line.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_number(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON (non-finite values, which no metric should
/// produce, print as 0).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        r.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
    }
}
