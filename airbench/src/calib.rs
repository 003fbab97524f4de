//! Host-speed calibration.
//!
//! A shared host runs the same code at different speeds from one second
//! to the next (a neighbour's load), by far more than any regression
//! bound: quiet-push p50 moved between 0.61 and 1.07 µs from one pass
//! to the next of one run. The benchmark therefore times a fixed
//! reference kernel of its own between the measured calls and reports
//! every solo timing at the reference host speed: raw × [`REFERENCE_NS`]
//! ÷ (median kernel time of the chunk the call fell in). The kernel is
//! the benchmark's own code and calls nothing in the program, so a
//! change to the program moves the measured calls and not the kernel; a
//! slower or faster host phase moves both and cancels out.
//!
//! The kernel mixes the kinds of work the recognizer does: a decaying
//! histogram update over 3 × 256 bins (the streaming path's Otsu update),
//! a quadratic template-match count (sample entropy) and transcendental
//! functions (feature kernels).

use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time, in nanoseconds, at the reference host speed
/// (about the kernel's median in the fast phase of a shared 2-vCPU
/// x86-64 host). It only fixes the scale of reported timings; the
/// run-to-run comparison does not depend on it.
pub const REFERENCE_NS: f64 = 80_000.0;

/// Calls timed between two kernel calls in a timed loop.
pub const CALL_EVERY: u64 = 4096;

/// Kernel calls per chunk of a timed loop: the timings of a chunk are
/// scaled by the median of its own calls, so a phase change within a run
/// is tracked to within one chunk.
pub const CALLS_PER_CHUNK: usize = 32;

/// Calls at least this long (raw nanoseconds) are scaled by the kernel
/// calls around them ([`Calibration::around`]) instead of their chunk's:
/// a few milliseconds can fall in a slower or faster stretch than the
/// chunk's median says.
pub const LONG_NS: u64 = 1_000_000;

/// Kernel calls on each side of a long call.
const AROUND: usize = 4;

/// Histogram bins of the streaming part (3 channels × 256).
const BINS: usize = 768;
/// Histogram steps per kernel call.
const STEPS: usize = 160;
/// Series length: the quadratic part runs over its first [`QUADRATIC`]
/// values, the transcendental part over all of them, twice.
const SERIES: usize = 360;
/// Series prefix of the quadratic part.
const QUADRATIC: usize = 160;

/// The reference kernel and its timings.
#[derive(Debug, Clone)]
pub struct Calibration {
    bins: Vec<f64>,
    series: Vec<f64>,
    times: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    /// A kernel over fixed inputs (the same on every run and seed).
    #[must_use]
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let series = (0..SERIES)
            .map(|i| (i as f64 * 0.07).sin() + 0.3 * next())
            .collect();
        Calibration {
            bins: vec![0.0; BINS],
            series,
            times: Vec::new(),
        }
    }

    /// Streaming part: forget-multiply every bin, bump one per channel.
    fn streaming(&mut self) -> f64 {
        for step in 0..STEPS {
            for b in &mut self.bins {
                *b *= 0.995;
            }
            for ch in 0..3 {
                let x = self.series[(step * 3 + ch) % SERIES];
                let bin = ((x + 1.5) * 85.0) as usize % 256;
                self.bins[ch * 256 + bin] += 1.0;
            }
        }
        self.bins.iter().sum()
    }

    /// Quadratic part: pairs of length-2 templates within r.
    fn quadratic(&self) -> u64 {
        let x = &self.series;
        let r = 0.2;
        let mut matches = 0u64;
        for i in 0..QUADRATIC - 1 {
            for j in i + 1..QUADRATIC - 1 {
                if (x[i] - x[j]).abs() <= r && (x[i + 1] - x[j + 1]).abs() <= r {
                    matches += 1;
                }
            }
        }
        matches
    }

    /// Transcendental part.
    fn transcendental(&self) -> f64 {
        let x = &self.series;
        x.iter()
            .chain(x)
            .map(|&v| (v * 0.5).exp().ln_1p() + v.atan())
            .sum()
    }

    /// Time one kernel call, in nanoseconds.
    fn time_one(&mut self) -> f64 {
        // lint: wall-clock — calibration timing
        let t0 = Instant::now();
        black_box(self.streaming());
        black_box(self.quadratic());
        black_box(self.transcendental());
        t0.elapsed().as_nanos() as f64
    }

    /// Time one kernel call and keep the time.
    pub fn sample(&mut self) {
        let ns = self.time_one();
        self.times.push(ns);
    }

    /// Host slowdown around a long call that just returned: the median of
    /// the last [`AROUND`] kept kernel times and [`AROUND`] calls made
    /// now (not kept). A call this long spans host phases that the
    /// chunk's median can miss.
    pub fn around(&mut self) -> f64 {
        let mut local: Vec<f64> = self.times.iter().rev().take(AROUND).copied().collect();
        for _ in 0..AROUND {
            local.push(self.time_one());
        }
        crate::stats::median(&local).unwrap_or(REFERENCE_NS) / REFERENCE_NS
    }

    /// Forget the kept times (the kernel's state carries on).
    pub fn clear(&mut self) {
        self.times.clear();
    }

    /// Kernel calls timed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Median kernel time in nanoseconds (`REFERENCE_NS` when none).
    #[must_use]
    pub fn median_ns(&self) -> f64 {
        crate::stats::median(&self.times).unwrap_or(REFERENCE_NS)
    }

    /// Host slowdown relative to the reference speed: a raw duration
    /// divided by this is the duration at the reference speed.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.median_ns() / REFERENCE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut a = Calibration::new();
        let mut b = Calibration::new();
        for _ in 0..2 {
            assert_eq!(a.streaming().to_bits(), b.streaming().to_bits());
        }
        assert_eq!(a.quadratic(), b.quadratic());
        assert!(a.quadratic() > 0);
        assert_eq!(a.transcendental().to_bits(), b.transcendental().to_bits());
    }

    #[test]
    fn factor_is_the_median_over_the_reference() {
        let mut c = Calibration::new();
        assert_eq!(c.factor(), 1.0);
        c.times = vec![REFERENCE_NS * 3.0, REFERENCE_NS * 2.0, REFERENCE_NS];
        assert_eq!(c.factor(), 2.0);
        c.sample();
        assert_eq!(c.len(), 4);
        let local = c.around();
        assert!(local > 0.0);
        // The calls made for `around` are not kept.
        assert_eq!(c.len(), 4);
        c.clear();
        assert_eq!(c.factor(), 1.0);
    }
}
