//! Hand-rolled, zero-dependency observability for the airFinger workspace.
//!
//! The workspace vendors every dependency offline, so the usual suspects
//! (`tracing`, `metrics`, `prometheus`) are unavailable; this crate
//! provides the subset the pipeline actually needs:
//!
//! - **Counters** — monotone, saturating `u64` event counts
//!   ([`Counter`]).
//! - **Gauges** — instantaneous `f64` values ([`Gauge`]).
//! - **Histograms** — lock-free log2-bucketed `u64` distributions
//!   ([`Histogram`]); names ending `_seconds` record nanoseconds and
//!   export seconds.
//! - **Spans** — RAII timers over [`std::time::Instant`] that record
//!   elapsed nanoseconds into a histogram, once, and optionally print on
//!   completion ([`Span`]).
//! - **Exporters** — machine-readable JSON and Prometheus text format
//!   over a [`Snapshot`] of the global registry ([`export`]), plus a
//!   structured [`report::RunReport`] for whole-run artifacts.
//! - **Continuous monitoring** — sliding-window aggregation over a
//!   deterministic sample-count horizon ([`window`]), a declarative SLO
//!   health-state machine ([`health`]), and a flight recorder that dumps
//!   post-mortem JSON on breach ([`recorder`]), composed behind
//!   [`monitor::EngineMonitor`] for long-running streaming engines.
//! - **Continuous profiling** — deterministic per-stage cost attribution
//!   over the span hierarchy with collapsed-stack export ([`profile`]),
//!   opt-in allocation accounting via a counting global allocator
//!   ([`alloc`]), a bounded history ring with deterministic
//!   downsampling ([`timeseries`]), and a zero-dependency HTTP scrape
//!   server exposing `/metrics`, `/health`, `/profile`, and `/events`
//!   ([`serve`]).
//! - **Event journal & error budgets** — a bounded, deterministic,
//!   structured event timeline with correlation fields ([`events`]) and
//!   SRE-style multi-window burn-rate alerting over the SLO ladder
//!   ([`budget`]).
//!
//! # Cost model
//!
//! Metrics live in a global [`Registry`]. Registration (name → handle)
//! takes a mutex once; handles are `Arc`-backed and every record
//! operation afterwards is a handful of relaxed atomic ops — no lock,
//! no allocation, for counters, gauges and histograms alike. The
//! [`counter!`]/[`gauge!`]/[`histogram!`]/[`span!`] macros cache the
//! handle in a per-call-site `OnceLock`, so hot paths never re-enter the
//! registry lock.
//!
//! Everything is gated twice:
//!
//! - the `obs` **compile-time feature** (default on): with it disabled,
//!   [`recording()`] is statically `false` and the whole layer folds to
//!   no-ops;
//! - the **runtime switch** [`set_recording`]: a disabled registry
//!   short-circuits every record path before it reads the clock or an
//!   atomic.
//!
//! Instrumentation never influences pipeline results, and all counters
//! are deterministic across worker-thread counts (see the workspace's
//! `metrics_determinism` integration test).
//!
//! # Example
//!
//! ```
//! airfinger_obs::counter!("frames_total").inc();
//! {
//!     let _span = airfinger_obs::span!("stage_seconds", stage = "demo");
//!     // … timed work …
//! }
//! let snapshot = airfinger_obs::global().snapshot();
//! println!("{}", snapshot.to_json());
//! ```

// `deny`, not `forbid`: the [`alloc`] module opts back in — wrapping
// [`std::alloc::GlobalAlloc`] is inherently unsafe — and is the single
// audited exception (every site carries a `// SAFETY:` justification,
// enforced by `airfinger-lint` rule U).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod budget;
pub mod events;
pub mod export;
pub mod health;
pub mod metrics;
pub mod monitor;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod serve;
pub mod span;
pub mod timeseries;
pub mod trace;
pub mod window;

pub use alloc::{AllocStats, CountingAlloc};
pub use budget::{BudgetConfig, BurnAlert, BurnSpeed, ErrorBudget};
pub use events::{Event, EventKind, Journal};
pub use health::{HealthModel, HealthReason, HealthState, SloRules, Transition};
pub use metrics::{Counter, Gauge, Histogram};
pub use monitor::{EngineMonitor, MonitorConfig};
pub use profile::{PathStats, ProfileSnapshot};
pub use recorder::{Dump, FlightRecorder, RecorderConfig};
pub use registry::{global, HistogramSnapshot, MetricId, Registry, Snapshot};
pub use serve::ScrapeServer;
pub use span::Span;
pub use window::{Outcome, SlidingWindow, WindowConfig, WindowStats};

use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime recording switch (only consulted when the `obs` feature is on).
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Runtime trace switch: when on, *every* span prints its elapsed time to
/// stderr on completion.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is live. Statically `false` when the crate is
/// built without the `obs` feature, so every record path folds away.
#[inline(always)]
#[must_use]
pub fn recording() -> bool {
    cfg!(feature = "obs") && RECORDING.load(Ordering::Relaxed)
}

/// Turn runtime recording on or off. Off, every counter/gauge/histogram
/// record and every span becomes a no-op (spans do not read the clock).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether global span tracing is on (see [`set_trace`]).
#[inline]
#[must_use]
pub fn tracing() -> bool {
    cfg!(feature = "obs") && TRACING.load(Ordering::Relaxed)
}

/// Turn global span tracing on or off. On, every span prints
/// `[obs] <name>{labels}: <elapsed>` to stderr when it completes;
/// individual spans can also opt in via [`Span::traced`].
pub fn set_trace(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Register (or fetch) an unlabelled counter in the global registry.
#[must_use]
pub fn counter(name: &str) -> Counter {
    global().counter(name, &[], "")
}

/// Register (or fetch) a labelled counter in the global registry.
#[must_use]
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    global().counter(name, labels, "")
}

/// Register (or fetch) an unlabelled gauge in the global registry.
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name, &[], "")
}

/// Register (or fetch) a labelled gauge in the global registry (for
/// dynamic label values; prefer the [`gauge!`] macro when they are
/// static).
#[must_use]
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Gauge {
    global().gauge(name, labels, "")
}

/// Register (or fetch) an unlabelled histogram in the global registry.
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name, &[], "")
}

/// Register (or fetch) a labelled histogram in the global registry.
#[must_use]
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> Histogram {
    global().histogram(name, labels, "")
}

/// Start a span recording into a labelled histogram. Prefer the
/// [`span!`] macro when the labels are static — it caches the handle.
pub fn span_with(name: &str, labels: &[(&str, &str)]) -> Span {
    if !recording() {
        return Span::disabled();
    }
    Span::from_histogram_named(
        global().histogram(name, labels, ""),
        MetricId::new(name, labels).to_string(),
    )
}

/// Cache-and-fetch an unlabelled or statically-labelled [`Counter`].
///
/// Labels must be string literals (the handle is cached per call site).
#[macro_export]
macro_rules! counter {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::global().counter($name, &[$((stringify!($k), $v)),*], "")
        })
    }};
}

/// Cache-and-fetch an unlabelled or statically-labelled [`Gauge`].
///
/// Labels must be string literals (the handle is cached per call site).
#[macro_export]
macro_rules! gauge {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::global().gauge($name, &[$((stringify!($k), $v)),*], "")
        })
    }};
}

/// Cache-and-fetch a statically-labelled [`Histogram`].
///
/// Labels must be string literals (the handle is cached per call site).
#[macro_export]
macro_rules! histogram {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name, &[$((stringify!($k), $v)),*], ""))
    }};
}

/// Start a [`Span`] recording its elapsed nanoseconds into a
/// statically-labelled `_seconds` histogram. The histogram handle is
/// cached per call site, so this is safe on hot paths.
///
/// ```
/// let _span = airfinger_obs::span!("pipeline_stage_seconds", stage = "sbc");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        if $crate::recording() {
            static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            let histogram = HANDLE
                .get_or_init(|| $crate::global().histogram($name, &[$((stringify!($k), $v)),*], ""));
            $crate::Span::from_histogram(
                histogram.clone(),
                concat!($name $(, "{", stringify!($k), "=", $v, "}")*),
            )
        } else {
            $crate::Span::disabled()
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_defaults_on_with_feature() {
        // set_recording itself is exercised in the `runtime_switch`
        // integration test — toggling the global flag here would race the
        // other unit tests in this binary.
        assert_eq!(recording(), cfg!(feature = "obs"));
    }

    #[test]
    fn trace_toggle() {
        assert!(!tracing());
        set_trace(true);
        assert_eq!(tracing(), cfg!(feature = "obs"));
        set_trace(false);
        assert!(!tracing());
    }

    #[test]
    fn macros_cache_handles() {
        let a = counter!("lib_macro_counter") as *const Counter;
        let b = counter!("lib_macro_counter") as *const Counter;
        // Two *different* call sites hold different statics but resolve to
        // the same underlying metric.
        assert_ne!(a, b);
        counter!("lib_macro_counter").inc();
        let snap = global().snapshot();
        assert!(snap.counter_value("lib_macro_counter", &[]).is_some());
    }

    #[test]
    fn span_macro_records() {
        {
            let _span = span!("lib_span_seconds", stage = "test");
        }
        let snap = global().snapshot();
        let h = snap.histogram("lib_span_seconds", &[("stage", "test")]);
        if cfg!(feature = "obs") {
            assert!(h.expect("histogram registered").count >= 1);
        } else {
            // With the feature off the span macro never touches the
            // registry at all.
            assert!(h.is_none());
        }
    }

    /// A span records its duration once: one record in its `_seconds`
    /// histogram, and no twin family anywhere in the registry.
    #[cfg(feature = "obs")]
    #[test]
    fn one_span_drop_records_once() {
        {
            let _span = span!("lib_once_seconds", stage = "x");
        }
        let snap = global().snapshot();
        let records: Vec<(String, u64)> = snap
            .histograms
            .iter()
            .filter(|h| h.id.name.starts_with("lib_once"))
            .map(|h| (h.id.to_string(), h.count))
            .collect();
        assert_eq!(
            records,
            vec![(r#"lib_once_seconds{stage="x"}"#.to_string(), 1)]
        );
    }
}
