//! The metric registry: name+labels → handle, plus point-in-time
//! snapshots.
//!
//! Registration takes one mutex; the returned handles record through
//! relaxed atomics without ever re-entering the lock, which is what makes
//! the layer cheap enough for the 100 Hz streaming path. [`Registry::reset`]
//! zeroes values **in place**, so handles cached in `OnceLock` statics by
//! the [`crate::counter!`]-family macros stay valid across resets.

use crate::metrics::{bucket_upper, Counter, Gauge, Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A metric's identity: name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `pipeline_stage_seconds`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Build an id (labels are sorted by key).
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

impl fmt::Display for MetricId {
    /// `name{k="v",…}` — the Prometheus sample identity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if self.labels.is_empty() {
            return Ok(());
        }
        f.write_str("{")?;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        f.write_str("}")
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Registered {
    metric: Metric,
    help: String,
}

/// A collection of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricId, Registered>>,
}

/// The process-wide registry used by all instrumentation macros.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// Create a standalone registry (tests; instrumentation uses
    /// [`global`]).
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<MetricId, Registered>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one deliberate panic in the registry: registering a name+labels
    /// under a second metric kind is a programming error, not a runtime
    /// condition, and every accessor funnels through here so the panic
    /// ratchet stays at a single budgeted site.
    fn kind_conflict(id: &MetricId, other: &Metric) -> ! {
        panic!("{id} already registered as a {}", other.kind())
    }

    /// Register (or fetch) a counter.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels is already registered as a
    /// different metric kind — conflicting registrations are programming
    /// errors, not runtime conditions.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let id = MetricId::new(name, labels);
        let mut map = self.lock();
        let entry = map.entry(id.clone()).or_insert_with(|| Registered {
            metric: Metric::Counter(Counter::new()),
            help: help.to_string(),
        });
        match &entry.metric {
            Metric::Counter(c) => c.clone(),
            other => Self::kind_conflict(&id, other),
        }
    }

    /// Register (or fetch) a gauge.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind conflict (see [`Registry::counter`]).
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut map = self.lock();
        let entry = map.entry(id.clone()).or_insert_with(|| Registered {
            metric: Metric::Gauge(Gauge::new()),
            help: help.to_string(),
        });
        match &entry.metric {
            Metric::Gauge(g) => g.clone(),
            other => Self::kind_conflict(&id, other),
        }
    }

    /// Register (or fetch) a histogram.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind conflict (see [`Registry::counter`]).
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        let id = MetricId::new(name, labels);
        let mut map = self.lock();
        let entry = map.entry(id.clone()).or_insert_with(|| Registered {
            metric: Metric::Histogram(Histogram::new()),
            help: help.to_string(),
        });
        match &entry.metric {
            Metric::Histogram(h) => h.clone(),
            other => Self::kind_conflict(&id, other),
        }
    }

    /// Zero every registered metric **in place**. Registrations (and any
    /// handles held by call sites) stay valid.
    pub fn reset(&self) {
        for registered in self.lock().values() {
            match &registered.metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by identity.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        let mut snapshot = Snapshot::default();
        for (id, registered) in map.iter() {
            match &registered.metric {
                Metric::Counter(c) => snapshot.counters.push(CounterSnapshot {
                    id: id.clone(),
                    help: registered.help.clone(),
                    value: c.value(),
                }),
                Metric::Gauge(g) => snapshot.gauges.push(GaugeSnapshot {
                    id: id.clone(),
                    help: registered.help.clone(),
                    value: g.value(),
                }),
                Metric::Histogram(h) => snapshot
                    .histograms
                    .push(h.snapshot(id.clone(), registered.help.clone())),
            }
        }
        snapshot
    }
}

/// Frozen value of one counter.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Metric identity.
    pub id: MetricId,
    /// Help text (may be empty).
    pub help: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// Frozen value of one gauge.
#[derive(Debug, Clone)]
pub struct GaugeSnapshot {
    /// Metric identity.
    pub id: MetricId,
    /// Help text (may be empty).
    pub help: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// Frozen state of one histogram.
///
/// Fields hold the recorded units (nanoseconds for spans). The accessor
/// methods return *export units*: a metric whose name ends `_seconds`
/// (lint rule S reserves the suffix for span-fed histograms) is scaled
/// from nanoseconds to seconds, any other histogram is exported as
/// recorded.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric identity.
    pub id: MetricId,
    /// Help text (may be empty).
    pub help: String,
    /// Total recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts (non-cumulative), [`BUCKETS`] entries; bucket
    /// `i` ends at [`bucket_upper`]`(i)`.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// A recorded value in export units.
    #[must_use]
    pub fn scaled(&self, raw: u64) -> f64 {
        if self.id.name.ends_with("_seconds") {
            raw as f64 / 1e9
        } else {
            raw as f64
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) in recorded units: the inclusive
    /// upper edge of the bucket holding the rank-⌈q·count⌉ value, capped
    /// at the exact max — so a rank in the overflow bucket reports the
    /// max, and p50 ≤ p95 ≤ p99 ≤ max always holds. 0 when empty. The
    /// one percentile rule of every export.
    #[must_use]
    pub fn quantile_raw(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The `q`-quantile in export units; `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        (self.count > 0).then(|| self.scaled(self.quantile_raw(q)))
    }

    /// Mean value in export units, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.scaled(self.sum) / self.count as f64
        }
    }

    /// The non-empty buckets as `(upper edge, cumulative count)` in
    /// recorded units, always closed by the overflow bucket (`None`
    /// edge, i.e. `+Inf`) whose cumulative count equals [`Self::count`].
    #[must_use]
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::new();
        let mut running = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            running = running.saturating_add(c);
            if i == BUCKETS - 1 {
                out.push((None, running));
            } else if c > 0 {
                out.push((Some(bucket_upper(i)), running));
            }
        }
        out
    }
}

/// A point-in-time copy of a whole registry, ready for export.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, sorted by identity.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by identity.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by identity.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the counter with this name+labels, if registered.
    #[must_use]
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = MetricId::new(name, labels);
        self.counters.iter().find(|c| c.id == id).map(|c| c.value)
    }

    /// Value of the gauge with this name+labels, if registered.
    #[must_use]
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let id = MetricId::new(name, labels);
        self.gauges.iter().find(|g| g.id == id).map(|g| g.value)
    }

    /// The histogram with this name+labels, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let id = MetricId::new(name, labels);
        self.histograms.iter().find(|h| h.id == id)
    }

    /// All counters as a `identity → value` map (the shape the
    /// determinism tests compare across thread counts).
    #[must_use]
    pub fn counter_map(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|c| (c.id.to_string(), c.value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_sort_labels_and_render() {
        let id = MetricId::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(id.labels[0].0, "a");
        assert_eq!(id.to_string(), r#"m{a="1",b="2"}"#);
        assert_eq!(MetricId::new("m", &[]).to_string(), "m");
    }

    #[test]
    fn same_id_returns_same_metric() {
        let r = Registry::new();
        let a = r.counter("hits", &[("route", "/x")], "");
        let b = r.counter("hits", &[("route", "/x")], "first help wins");
        a.add(2);
        assert_eq!(a.value(), b.value());
        // A different label set is a different metric.
        let c = r.counter("hits", &[("route", "/y")], "");
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("m", &[], "");
        let _ = r.gauge("m", &[], "");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn snapshot_freezes_values_sorted() {
        let r = Registry::new();
        r.counter("z_last", &[], "").inc();
        r.counter("a_first", &[], "").add(3);
        r.gauge("depth", &[], "").set(2.0);
        let h = r.histogram("lat", &[], "");
        h.record(1);
        h.record(3);
        h.record(9);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].id.name, "a_first");
        assert_eq!(snap.counter_value("z_last", &[]), Some(1));
        assert_eq!(snap.gauge_value("depth", &[]), Some(2.0));
        let hs = snap.histogram("lat", &[]).unwrap();
        assert_eq!(
            hs.cumulative(),
            vec![(Some(1), 1), (Some(3), 2), (Some(15), 3), (None, 3)]
        );
        assert_eq!(hs.count, 3);
        // Not a `_seconds` name: exported as recorded.
        assert!((hs.mean() - 13.0 / 3.0).abs() < 1e-12);
        assert_eq!(hs.quantile(0.5), Some(3.0));
        assert_eq!(
            snap.counter_map(),
            BTreeMap::from([("a_first".to_string(), 3), ("z_last".to_string(), 1)])
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn clones_share_state_and_ids_separate() {
        let r = Registry::new();
        let a = r.histogram("share_seconds", &[], "");
        let b = r.histogram("share_seconds", &[], "");
        let other = r.histogram("share_seconds", &[("stage", "y")], "");
        a.record(5);
        assert_eq!(b.count(), 1);
        assert_eq!(other.count(), 0);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn quantiles_walk_bucket_edges() {
        let r = Registry::new();
        let h = r.histogram("walk_seconds", &[], "");
        for _ in 0..50 {
            h.record(100); // bucket 7, upper edge 127
        }
        for _ in 0..49 {
            h.record(1000); // bucket 10, upper edge 1023
        }
        h.record(1_000_000); // bucket 20, upper edge 1_048_575
        let snap = r.snapshot();
        let s = snap.histogram("walk_seconds", &[]).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.quantile_raw(0.50), 127);
        assert_eq!(s.quantile_raw(0.95), 1023);
        assert_eq!(s.quantile_raw(0.99), 1023);
        // The top rank's bucket edge is capped at the exact max.
        assert_eq!(s.quantile_raw(1.0), 1_000_000);
        assert_eq!(s.max, 1_000_000);
        // Exported in seconds.
        assert_eq!(s.quantile(0.50), Some(127e-9));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let r = Registry::new();
        let _ = r.histogram("idle_seconds", &[], "");
        let snap = r.snapshot();
        let s = snap.histogram("idle_seconds", &[]).unwrap();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile_raw(0.99), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.cumulative(), vec![(None, 0)]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn overflow_bucket_reports_the_exact_max() {
        let r = Registry::new();
        let h = r.histogram("huge", &[], "");
        h.record(1);
        h.record(u64::MAX - 7);
        let snap = r.snapshot();
        let s = snap.histogram("huge", &[]).unwrap();
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        // The rank walk lands in the overflow bucket, whose edge is
        // u64::MAX; the exact max keeps the estimate finite and tight.
        assert_eq!(s.quantile_raw(0.99), u64::MAX - 7);
        assert_eq!(s.quantile_raw(0.5), 1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn reset_zeroes_in_place() {
        let r = Registry::new();
        let c = r.counter("n", &[], "");
        let h = r.histogram("h", &[], "");
        c.add(7);
        h.record(5);
        r.reset();
        // The *same handles* read zero — registrations survive.
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(r.snapshot().counter_value("n", &[]), Some(0));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn reset_zeroes_histograms_and_handles_survive() {
        let r = Registry::new();
        let a = r.histogram("reset_seconds", &[("stage", "x")], "");
        a.record(42);
        assert_eq!(a.count(), 1);
        r.reset();
        assert_eq!((a.count(), a.sum(), a.max()), (0, 0, 0));
        assert!(a.bucket_counts().iter().all(|&c| c == 0));
        a.record(7);
        let b = r.histogram("reset_seconds", &[("stage", "x")], "");
        assert_eq!(b.count(), 1, "handles must share state after reset");
        let snap = r.snapshot();
        let s = snap.histogram("reset_seconds", &[("stage", "x")]).unwrap();
        assert_eq!((s.count, s.sum, s.max), (1, 7, 7));
    }
}
