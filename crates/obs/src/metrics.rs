//! Metric primitives: counters, gauges, and log2-bucketed histograms.
//!
//! Handles are cheap `Arc` clones around atomics; every record operation
//! is a few relaxed atomic instructions, safe to share across the
//! workspace's scoped worker threads. All record paths short-circuit when
//! [`crate::recording`] is off.

use crate::registry::{HistogramSnapshot, MetricId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone event counter.
///
/// Additions **saturate** at `u64::MAX` rather than wrapping: a counter
/// that has been running for months must never appear to jump backwards
/// to a small value, which is what a silent wrap would look like to a
/// rate() over scrapes.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Create a detached counter (registry code and tests; instrumentation
    /// should go through [`crate::counter!`] or the registry).
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::recording() || n == 0 {
            return;
        }
        let mut current = self.value.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(n);
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the counter (test/reset support; see [`crate::Registry::reset`]).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous `f64` value (queue depths, thread counts, ratios).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Create a detached gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if !crate::recording() {
            return;
        }
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: f64) {
        if !crate::recording() {
            return;
        }
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Zero the gauge.
    pub fn reset(&self) {
        self.bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Number of histogram buckets: one per possible bit length of a `u64`
/// (the zero bucket folded into index 0).
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: 0 for 0, otherwise the value's bit
/// length, clamped so bucket 63 absorbs everything ≥ 2^62.
#[must_use]
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let bits = (u64::BITS - v.leading_zeros()) as usize;
    bits.min(BUCKETS - 1)
}

/// The inclusive upper edge of a bucket: 0 for bucket 0, `2^i − 1` for
/// buckets 1..=62, and `u64::MAX` for the overflow bucket 63.
#[must_use]
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A lock-free histogram of `u64` values with power-of-two buckets.
///
/// Spans record elapsed nanoseconds; other histograms record plain counts
/// (`parallel_worker_jobs`). Bucket `0` holds exact zeros, bucket `i`
/// (1 ≤ i ≤ 62) holds `[2^(i−1), 2^i − 1]`, and bucket 63 holds
/// everything from `2^62` up. Recording is a handful of relaxed atomics:
/// no allocation, no lock, no syscall, so it is legal inside functions
/// audited by lint rule H. The exact count, sum and max ride alongside
/// the buckets; percentiles are derived at export time
/// ([`crate::registry::HistogramSnapshot::quantile_raw`]).
///
/// Cloning is a cheap `Arc` bump; all clones observe the same buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Create a detached histogram (local measurements and tests;
    /// instrumentation should go through [`crate::histogram!`] or the
    /// registry).
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::recording() {
            return;
        }
        let inner = &*self.inner;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: ~584 years of accumulated
        // nanoseconds should clamp, not jump backwards mid-scrape.
        let mut current = inner.sum.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(v);
            match inner.sum.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), exactly [`BUCKETS`] entries.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }

    /// A point-in-time copy for export. Bucket loads are individually
    /// atomic; a snapshot racing a record may miss the in-flight value,
    /// which is fine for telemetry.
    #[must_use]
    pub fn snapshot(&self, id: MetricId, help: String) -> HistogramSnapshot {
        HistogramSnapshot {
            id,
            help,
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: self.bucket_counts(),
        }
    }

    /// Zero every bucket and the count/sum/max in place, so cached
    /// handles keep working (see [`crate::Registry::reset`]).
    pub fn reset(&self) {
        for b in &self.inner.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.inner.count.store(0, Ordering::Relaxed);
        self.inner.sum.store(0, Ordering::Relaxed);
        self.inner.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        if cfg!(feature = "obs") {
            assert_eq!(c.value(), 5);
        } else {
            assert_eq!(c.value(), 0);
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 2);
        assert_eq!(c.value(), u64::MAX - 2);
        c.add(1);
        assert_eq!(c.value(), u64::MAX - 1);
        // Overflow clamps at the ceiling — a scrape never sees a wrap.
        c.add(10);
        assert_eq!(c.value(), u64::MAX);
        c.inc();
        assert_eq!(c.value(), u64::MAX);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.value(), 2.5);
        g.add(-1.0);
        assert_eq!(g.value(), 1.5);
        g.reset();
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        // Every power of two opens a new bucket; its predecessor closes
        // the previous one.
        for i in 1..62 {
            let edge = 1u64 << i;
            assert_eq!(bucket_index(edge), i + 1, "2^{i}");
            assert_eq!(bucket_index(edge - 1), i, "2^{i} - 1");
        }
        // The overflow bucket absorbs 2^62 .. u64::MAX.
        assert_eq!(bucket_index(1u64 << 62), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_upper_matches_index() {
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(62), (1u64 << 62) - 1);
        assert_eq!(bucket_upper(63), u64::MAX);
        // Every value's bucket upper edge is >= the value.
        for v in [0, 1, 2, 3, 4, 1000, 1 << 40, u64::MAX] {
            assert!(bucket_upper(bucket_index(v)) >= v, "{v}");
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn records_extremes_without_losing_counts() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[63], 1);
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn histogram_bucket_edges_are_le_inclusive() {
        let h = Histogram::new();
        // An upper edge lands in its own bucket (Prometheus `le`); the
        // next value up opens the next bucket.
        h.record(3);
        h.record(4);
        h.record(7);
        h.record(8);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[2..5], [1, 2, 1]);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(3), 7);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn histogram_sum_accumulates() {
        let h = Histogram::new();
        h.record(250);
        h.record(500);
        h.record(4_000);
        assert_eq!(h.sum(), 4_750);
        assert_eq!(h.max(), 4_000);
        h.reset();
        assert_eq!((h.count(), h.sum(), h.max()), (0, 0, 0));
        assert_eq!(h.bucket_counts(), [0; BUCKETS]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn histogram_percentiles_track_observations() {
        let h = Histogram::new();
        let snap = |h: &Histogram| h.snapshot(MetricId::new("t_seconds", &[]), String::new());
        assert_eq!(snap(&h).quantile(0.5), None);
        for v in 1..=100 {
            h.record(v * 10);
        }
        let s = snap(&h);
        // Rank 50 of 10..=1000 falls in the bucket ending at 511; ranks
        // 95 and 99 in the one ending at 1023, capped at the max.
        assert_eq!(s.quantile_raw(0.50), 511);
        assert_eq!(s.quantile_raw(0.95), 1000);
        assert_eq!(s.quantile_raw(0.99), 1000);
        assert_eq!(s.max, 1000);
        h.reset();
        assert_eq!(snap(&h).quantile(0.5), None);
    }

    #[test]
    fn default_edges_are_valid() {
        // The fixed layout: strictly increasing inclusive upper edges
        // that together cover every `u64`.
        let edges: Vec<u64> = (0..BUCKETS).map(bucket_upper).collect();
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(edges[BUCKETS - 1], u64::MAX);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn concurrent_increments_all_land() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = &c;
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i % 2);
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bucket_counts()[..3], [2000, 2000, 0]);
        assert_eq!(h.sum(), 2000);
    }
}
