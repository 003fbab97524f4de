//! RAII spans: monotonic wall-clock timing over [`std::time::Instant`],
//! recorded once, in nanoseconds, into a histogram when the span drops.

use crate::metrics::Histogram;
use std::time::Instant;

/// A timed scope. Created by [`crate::span!`] or [`crate::span_with`];
/// when dropped, records the elapsed nanoseconds into its histogram (the
/// `_seconds` name exports them in seconds) and —
/// when [`crate::tracing`] is on or the span was marked [`Span::traced`]
/// — prints `[obs] <name>: <elapsed>` to stderr.
///
/// A disabled span (recording off) holds no clock reading and its drop is
/// a branch on two `None`s.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    start: Option<Instant>,
    histogram: Option<Histogram>,
    name: &'static str,
    /// Owned name for dynamically-labelled spans ([`crate::span_with`]).
    dyn_name: Option<String>,
    trace: bool,
    /// Whether this span's begin event made it into the bounded timeline
    /// log ([`crate::trace`]) — the end event is only emitted when it did,
    /// so the exported trace never contains an unmatched `E`.
    timeline: bool,
    /// Whether this span pushed a profiler frame ([`crate::profile`]) —
    /// the matching exit runs on drop only when it did, keeping the
    /// per-thread frame stack balanced across enable/disable toggles.
    profiled: bool,
}

impl Span {
    /// An inert span: no clock read, no recording, no print.
    pub fn disabled() -> Span {
        Span {
            start: None,
            histogram: None,
            name: "",
            dyn_name: None,
            trace: false,
            timeline: false,
            profiled: false,
        }
    }

    /// Start a span recording into `histogram` under a static name.
    pub fn from_histogram(histogram: Histogram, name: &'static str) -> Span {
        if !crate::recording() {
            return Span::disabled();
        }
        let timeline = crate::trace::capturing() && crate::trace::begin(name);
        let profiled = crate::profile::enter_static(name);
        Span {
            start: Some(Instant::now()),
            histogram: Some(histogram),
            name,
            dyn_name: None,
            trace: false,
            timeline,
            profiled,
        }
    }

    /// Start a span with an owned (runtime-built) display name.
    pub fn from_histogram_named(histogram: Histogram, name: String) -> Span {
        if !crate::recording() {
            return Span::disabled();
        }
        let timeline = crate::trace::capturing() && crate::trace::begin(&name);
        let profiled = crate::profile::enter_owned(&name);
        Span {
            start: Some(Instant::now()),
            histogram: Some(histogram),
            name: "",
            dyn_name: Some(name),
            trace: false,
            timeline,
            profiled,
        }
    }

    /// Force this span to print its elapsed time on completion even when
    /// global tracing is off — how the repro runner surfaces
    /// per-experiment wall time on stderr from the same measurement that
    /// feeds the JSON report.
    pub fn traced(mut self) -> Span {
        self.trace = true;
        self
    }

    /// Elapsed seconds so far (0 for a disabled span).
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.start.map_or(0.0, |t0| t0.elapsed().as_secs_f64())
    }

    fn display_name(&self) -> &str {
        self.dyn_name.as_deref().unwrap_or(self.name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let duration = start.elapsed();
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        if let Some(histogram) = &self.histogram {
            histogram.record(ns);
        }
        if self.timeline {
            crate::trace::end(self.display_name());
        }
        if self.trace || crate::tracing() {
            eprintln!(
                "[obs] {}: {}",
                self.display_name(),
                format_seconds(duration.as_secs_f64())
            );
        }
        if self.profiled {
            crate::profile::exit(ns);
        }
    }
}

/// Render a duration with a unit fitting its magnitude.
#[must_use]
pub fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "obs")]
    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let span = Span::from_histogram(h.clone(), "test_span");
            assert!(span.elapsed_s() >= 0.0);
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() > 0, "a live span takes nonzero nanoseconds");
        assert_eq!(h.sum(), h.max());
    }

    /// A labelled span from the global registry records its nanoseconds
    /// into the registered `_seconds` family, which exports them in
    /// seconds.
    #[cfg(feature = "obs")]
    #[test]
    fn registered_span_records_nanoseconds_on_drop() {
        let labels = [("stage", "ns")];
        {
            let _span = crate::span_with("span_ns_test_seconds", &labels);
        }
        let snap = crate::global().snapshot();
        let s = snap.histogram("span_ns_test_seconds", &labels).unwrap();
        assert_eq!(s.count, 1);
        assert!(s.max > 0, "a live span takes nonzero nanoseconds");
        assert_eq!(s.sum, s.max);
        assert_eq!(s.quantile(1.0), Some(s.max as f64 / 1e9));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn traced_span_still_records() {
        let h = Histogram::new();
        {
            let _span = Span::from_histogram_named(h.clone(), "dyn".to_string()).traced();
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        let span = Span::disabled();
        assert_eq!(span.elapsed_s(), 0.0);
        drop(span); // must not record or print
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(format_seconds(2.5), "2.50s");
        assert_eq!(format_seconds(0.0042), "4.20ms");
        assert_eq!(format_seconds(12e-6), "12.0µs");
    }
}
