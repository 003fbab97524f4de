//! Entropy features: sample entropy and approximate entropy.
//!
//! Both compare the regularity of `m`-length templates against
//! `(m+1)`-length templates with tolerance `r = f · σ(x)`. Regular,
//! repetitive gestures (double rub) score lower than erratic non-gestures —
//! why the paper keeps both in Table I.
//! Both count `m`- and `(m+1)`-template matches in one shared pass.

use airfinger_dsp::stats::std_dev;

/// Visit every pair `i < j` of `m`-templates matching within `r`, passing
/// whether their `(m+1)`-templates (which exist for `j < n − m`) match too.
fn for_each_match(x: &[f64], m: usize, r: f64, mut visit: impl FnMut(usize, usize, bool)) {
    let n = x.len();
    for i in 0..=n - m {
        for j in i + 1..=n - m {
            if (0..m).all(|k| (x[i + k] - x[j + k]).abs() <= r) {
                visit(i, j, j < n - m && (x[i + m] - x[j + m]).abs() <= r);
            }
        }
    }
}

/// Tolerance `r_factor · σ(x)`, or `None` where both entropies are 0:
/// short series, `m = 0`, zero variance or non-finite samples.
fn tolerance(x: &[f64], m: usize, r_factor: f64) -> Option<f64> {
    if x.len() < m + 2 || m == 0 {
        return None;
    }
    let r = r_factor * std_dev(x);
    (r > 0.0).then_some(r)
}

/// Sample entropy with embedding `m` and tolerance `r_factor · σ`.
///
/// Returns 0 for series shorter than `m + 2` or with zero variance, and a
/// large-but-finite value (`ln` of the template count) when no
/// `(m+1)`-matches exist.
#[must_use]
pub fn sample_entropy(x: &[f64], m: usize, r_factor: f64) -> f64 {
    let Some(r) = tolerance(x, m, r_factor) else {
        return 0.0;
    };
    let (mut a, mut b) = (0usize, 0usize);
    for_each_match(x, m, r, |_, _, longer| {
        b += 1;
        a += usize::from(longer);
    });
    if b == 0 {
        return 0.0; // no m-matches at all: entropy undefined, report 0
    }
    if a == 0 {
        // Conventional cap: the most irregular observable value.
        return (b as f64 * 2.0).ln();
    }
    -(a as f64 / b as f64).ln()
}

/// Approximate entropy with embedding `m` and tolerance `r_factor · σ`
/// (Pincus' ApEn; self-matches included, per the original definition).
#[must_use]
pub fn approximate_entropy(x: &[f64], m: usize, r_factor: f64) -> f64 {
    let Some(r) = tolerance(x, m, r_factor) else {
        return 0.0;
    };
    // Match counts of the n − m + 1 m-templates, then the n − m longer ones.
    let templates = x.len() - m + 1;
    let mut counts = vec![1usize; 2 * templates - 1];
    let (short, long) = counts.split_at_mut(templates);
    for_each_match(x, m, r, |i, j, longer| {
        short[i] += 1;
        short[j] += 1;
        if longer {
            long[i] += 1;
            long[j] += 1;
        }
    });
    let phi = |counts: &[usize]| -> f64 {
        let t = counts.len() as f64;
        counts.iter().fold(0.0, |acc, &c| acc + (c as f64 / t).ln()) / t
    };
    phi(short) - phi(long)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(i: usize) -> f64 {
        let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// The two-pass forms the shared kernel replaced, kept verbatim as the
    /// bit-exactness reference.
    fn sample_entropy_two_pass(x: &[f64], m: usize, r_factor: f64) -> f64 {
        let n = x.len();
        if n < m + 2 || m == 0 {
            return 0.0;
        }
        let r = r_factor * std_dev(x);
        if r <= 0.0 {
            return 0.0;
        }
        let count_matches = |len: usize| -> usize {
            let templates = n - len + 1;
            let mut matches = 0usize;
            for i in 0..templates {
                for j in i + 1..templates {
                    let close = (0..len).all(|k| (x[i + k] - x[j + k]).abs() <= r);
                    if close {
                        matches += 1;
                    }
                }
            }
            matches
        };
        let b = count_matches(m);
        let a = count_matches(m + 1);
        if b == 0 {
            return 0.0;
        }
        if a == 0 {
            return (b as f64 * 2.0).ln();
        }
        -(a as f64 / b as f64).ln()
    }

    fn approximate_entropy_two_pass(x: &[f64], m: usize, r_factor: f64) -> f64 {
        let n = x.len();
        if n < m + 2 || m == 0 {
            return 0.0;
        }
        let r = r_factor * std_dev(x);
        if r <= 0.0 {
            return 0.0;
        }
        let phi = |len: usize| -> f64 {
            let templates = n - len + 1;
            let mut acc = 0.0;
            for i in 0..templates {
                let mut count = 0usize;
                for j in 0..templates {
                    let close = (0..len).all(|k| (x[i + k] - x[j + k]).abs() <= r);
                    if close {
                        count += 1;
                    }
                }
                acc += (count as f64 / templates as f64).ln();
            }
            acc / templates as f64
        };
        phi(m) - phi(m + 1)
    }

    #[test]
    fn shared_kernel_is_bit_identical_to_two_pass_forms() {
        type Series = fn(usize) -> f64;
        let series: [(&str, Series); 5] = [
            ("random", noise),
            // Quantized to a few levels: many exact ties at distance r.
            ("tied", |i| (noise(i) * 4.0).round() * 0.25),
            ("periodic", |i| {
                (i as f64 * 0.7).sin() + 0.5 * (i as f64 * 0.13).cos()
            }),
            ("spiky", |i| if i % 17 == 3 { 40.0 } else { noise(i) * 0.1 }),
            // Balanced ±1 pairs: σ = 1 exactly, so r = 2 ties every unequal pair.
            ("pm1", |i| {
                if (noise(i / 2) > 0.0) == (i % 2 == 0) {
                    1.0
                } else {
                    -1.0
                }
            }),
        ];
        for m in 1..=3 {
            let lengths = (0..=m + 2).chain([7, 16, 33, 64, 150, 300]);
            for n in lengths {
                for (name, f) in series {
                    let x: Vec<f64> = (0..n).map(f).collect();
                    for r in [0.1, 0.2, 0.5, 2.0] {
                        let what = format!("{name} n={n} m={m} r={r}");
                        assert_eq!(
                            sample_entropy(&x, m, r).to_bits(),
                            sample_entropy_two_pass(&x, m, r).to_bits(),
                            "SampEn {what}"
                        );
                        assert_eq!(
                            approximate_entropy(&x, m, r).to_bits(),
                            approximate_entropy_two_pass(&x, m, r).to_bits(),
                            "ApEn {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_series_is_zero() {
        let mut x: Vec<f64> = (0..40).map(noise).collect();
        x[7] = f64::NAN;
        assert_eq!(sample_entropy(&x, 2, 0.2), 0.0);
        assert_eq!(approximate_entropy(&x, 2, 0.2), 0.0);
        x[7] = f64::INFINITY;
        assert_eq!(approximate_entropy(&x, 2, 0.2), 0.0);
    }

    #[test]
    fn regular_signal_has_low_sampen() {
        let sine: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).sin()).collect();
        let rand: Vec<f64> = (0..200).map(noise).collect();
        let s_sine = sample_entropy(&sine, 2, 0.2);
        let s_rand = sample_entropy(&rand, 2, 0.2);
        assert!(s_sine < s_rand, "sine {s_sine} vs random {s_rand}");
    }

    #[test]
    fn regular_signal_has_low_apen() {
        let sine: Vec<f64> = (0..150).map(|i| (i as f64 * 0.3).sin()).collect();
        let rand: Vec<f64> = (0..150).map(noise).collect();
        assert!(approximate_entropy(&sine, 2, 0.2) < approximate_entropy(&rand, 2, 0.2));
    }

    #[test]
    fn constant_series_is_zero() {
        assert_eq!(sample_entropy(&[3.0; 50], 2, 0.2), 0.0);
        assert_eq!(approximate_entropy(&[3.0; 50], 2, 0.2), 0.0);
    }

    #[test]
    fn short_series_is_zero() {
        assert_eq!(sample_entropy(&[1.0, 2.0], 2, 0.2), 0.0);
        assert_eq!(approximate_entropy(&[1.0, 2.0], 2, 0.2), 0.0);
    }

    #[test]
    fn outputs_are_finite() {
        let x: Vec<f64> = (0..100).map(|i| noise(i) * 10.0).collect();
        assert!(sample_entropy(&x, 2, 0.2).is_finite());
        assert!(approximate_entropy(&x, 2, 0.2).is_finite());
    }

    #[test]
    fn sampen_nonnegative_on_typical_data() {
        let x: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.2).sin() + 0.1 * noise(i))
            .collect();
        assert!(sample_entropy(&x, 2, 0.2) >= 0.0);
    }
}
