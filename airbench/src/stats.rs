//! Exact order statistics over raw per-call durations.
//!
//! Every timing the benchmark reports is a nearest-rank percentile of the
//! recorded values themselves — never a histogram bucket edge — and
//! carries the number of values it was taken over.

/// Nearest-rank percentile `q` (0 < q ≤ 1) of an ascending-sorted slice:
/// the smallest value with at least `q · n` values at or below it.
/// `None` for an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of values strictly above the nearest-rank percentile `q`.
#[must_use]
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    match percentile_sorted(sorted, q) {
        Some(p) => sorted.len() - sorted.partition_point(|&v| v <= p),
        None => 0,
    }
}

/// Median of unsorted values: the nearest-rank 50th percentile, which is
/// the lower middle value for even counts. `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 0.5)
}

/// Arithmetic mean; `0.0` when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One value per key: the median of that key's repeated measurements.
///
/// A run replays the same input several times, so each recognition is
/// timed once per pass; its median across passes is its duration, and a
/// one-off preemption of a single pass does not stand in for it.
#[must_use]
pub fn medians_by_key<K: Ord + Copy>(entries: &[(K, f64)]) -> Samples {
    let mut by_key: std::collections::BTreeMap<K, Vec<f64>> = std::collections::BTreeMap::new();
    for &(k, v) in entries {
        by_key.entry(k).or_default().push(v);
    }
    let mut out = Samples::default();
    for v in by_key.values() {
        out.push(median(v).unwrap_or(0.0));
    }
    out
}

/// Nearest-rank percentile `q` of weighted values `(value, count)`
/// (`0.0` when the counts sum to zero). Sorts `values`.
pub fn weighted_pct(values: &mut [(f64, u64)], q: f64) -> f64 {
    values.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = values.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(v, c) in values.iter() {
        seen += c;
        if seen >= rank {
            return v;
        }
    }
    values.last().map_or(0.0, |&(v, _)| v)
}

/// A distribution of durations kept as raw values, summarized on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Record one value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Mean of the recorded values (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    /// The values in ascending order.
    pub fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    /// Nearest-rank percentile (`0.0` when empty).
    pub fn pct(&mut self, q: f64) -> f64 {
        percentile_sorted(self.sorted(), q).unwrap_or(0.0)
    }

    /// Largest value (`0.0` when empty).
    pub fn max(&mut self) -> f64 {
        self.sorted().last().copied().unwrap_or(0.0)
    }

    /// Record every value of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }
}

/// Exact distribution of integer nanosecond durations for the very
/// frequent quiet pushes: one counter per nanosecond up to a ceiling plus
/// raw storage above it, so percentiles stay exact in constant memory.
#[derive(Debug, Clone)]
pub struct NsCounts {
    counts: Vec<u32>,
    over: Vec<u64>,
    total: u64,
}

/// Durations at or above this many nanoseconds are stored raw.
const DIRECT_NS: usize = 65_536;

impl Default for NsCounts {
    fn default() -> Self {
        NsCounts {
            counts: vec![0; DIRECT_NS],
            over: Vec::new(),
            total: 0,
        }
    }
}

impl NsCounts {
    /// Record one duration.
    pub fn push(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c = c.saturating_add(1),
            None => self.over.push(ns),
        }
        self.total += 1;
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Move every recorded duration, multiplied by `scale`, into `out` as
    /// `(value, count)` pairs, leaving this distribution empty.
    pub fn drain_scaled(&mut self, scale: f64, out: &mut Vec<(f64, u64)>) {
        for (ns, c) in self.counts.iter_mut().enumerate() {
            if *c > 0 {
                out.push((ns as f64 * scale, u64::from(*c)));
                *c = 0;
            }
        }
        out.extend(self.over.drain(..).map(|ns| (ns as f64 * scale, 1)));
        self.total = 0;
    }

    /// Nearest-rank percentile in nanoseconds (`0.0` when empty).
    pub fn pct(&mut self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as f64;
            }
        }
        self.over.sort_unstable();
        let idx = (rank - seen - 1) as usize;
        self.over.get(idx).map_or(0.0, |&v| v as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(percentile_sorted(&v, 0.95), Some(95.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.001), Some(1.0));
        assert_eq!(percentile_sorted(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn ten_beyond_rule() {
        // 199 values: p95 is the 190th, 9 lie beyond it.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.95), 9);
        // 200 values: p95 is the 190th, 10 lie beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.95), 10);
        // Ties at the percentile do not count as beyond it.
        let mut v = vec![5.0; 195];
        v.extend([9.0; 5]);
        assert_eq!(beyond(&v, 0.95), 5);
    }

    #[test]
    fn ns_counts_match_sorting() {
        let raw: Vec<u64> = (0..5000u64)
            .map(|i| (i * 7919) % 3001 + (i % 3) * 70_000)
            .collect();
        let mut counts = NsCounts::default();
        let mut samples = Samples::default();
        for &r in &raw {
            counts.push(r);
            samples.push(r as f64);
        }
        for q in [0.01, 0.5, 0.66, 0.9, 0.95, 0.999, 1.0] {
            assert_eq!(counts.pct(q), samples.pct(q), "q={q}");
        }
        assert_eq!(counts.len(), 5000);
    }

    #[test]
    fn scaled_counts_keep_their_ranks() {
        let mut counts = NsCounts::default();
        let mut samples = Samples::default();
        for ns in [300u64, 300, 500, 900, 70_000] {
            counts.push(ns);
            samples.push(ns as f64 / 2.0);
        }
        let mut pooled = Vec::new();
        counts.drain_scaled(0.5, &mut pooled);
        assert_eq!(counts.len(), 0);
        for q in [0.2, 0.4, 0.5, 0.8, 1.0] {
            assert_eq!(weighted_pct(&mut pooled, q), samples.pct(q), "q={q}");
        }
        assert_eq!(weighted_pct(&mut [], 0.5), 0.0);
        assert_eq!(weighted_pct(&mut [(4.0, 3), (1.0, 1)], 0.5), 4.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn medians_by_key_take_one_value_per_key() {
        let entries = [(1, 5.0), (2, 9.0), (1, 100.0), (1, 6.0), (2, 1.0)];
        let mut m = medians_by_key(&entries);
        // Key 1: median of {5, 100, 6} = 6; key 2: lower middle of {9, 1}.
        assert_eq!(m.sorted(), &[1.0, 6.0]);
        assert_eq!(m.max(), 6.0);
    }
}
