//! Time-series statistics: moments, quantiles, autocorrelation, trends.
//!
//! These are the scalar building blocks behind the Table-I feature bank in
//! `airfinger-features` and the threshold computations in [`crate::threshold`].

use crate::error::DspError;

/// Arithmetic mean of `x`. Returns 0.0 for an empty slice.
#[must_use]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (divides by `n`). Returns 0.0 for fewer than 2 samples.
#[must_use]
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
#[must_use]
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Third standardized moment (skewness). 0.0 when the variance vanishes.
#[must_use]
pub fn skewness(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 3 {
        return 0.0;
    }
    let m = mean(x);
    let s = std_dev(x);
    if s <= f64::EPSILON {
        return 0.0;
    }
    x.iter().map(|v| ((v - m) / s).powi(3)).sum::<f64>() / n as f64
}

/// Excess kurtosis (fourth standardized moment minus 3). 0.0 when the
/// variance vanishes.
#[must_use]
pub fn kurtosis(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 4 {
        return 0.0;
    }
    let m = mean(x);
    let s = std_dev(x);
    if s <= f64::EPSILON {
        return 0.0;
    }
    x.iter().map(|v| ((v - m) / s).powi(4)).sum::<f64>() / n as f64 - 3.0
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `x`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice and
/// [`DspError::InvalidParameter`] when `q` is outside `[0, 1]`.
pub fn quantile(x: &[f64], q: f64) -> Result<f64, DspError> {
    quantiles(x, [q]).map(|[v]| v)
}

/// [`quantile`] at every level of `qs`, sorting `x` once.
///
/// # Errors
///
/// As [`quantile`], for the first offending level.
pub fn quantiles<const N: usize>(x: &[f64], qs: [f64; N]) -> Result<[f64; N], DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if qs.iter().any(|q| !(0.0..=1.0).contains(q)) {
        return Err(DspError::InvalidParameter {
            name: "q",
            reason: "must lie in [0, 1]",
        });
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(qs.map(|q| {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }))
}

/// Median (the 0.5 quantile). Returns 0.0 for an empty slice.
#[must_use]
pub fn median(x: &[f64]) -> f64 {
    quantile(x, 0.5).unwrap_or(0.0)
}

/// Minimum value; `f64::INFINITY` for an empty slice.
#[must_use]
pub fn min(x: &[f64]) -> f64 {
    x.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum value; `f64::NEG_INFINITY` for an empty slice.
#[must_use]
pub fn max(x: &[f64]) -> f64 {
    x.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Autocovariance at `lag` (biased estimator, divides by `n`).
#[must_use]
pub fn autocovariance(x: &[f64], lag: usize) -> f64 {
    let n = x.len();
    if lag >= n {
        return 0.0;
    }
    let m = mean(x);
    (0..n - lag)
        .map(|i| (x[i] - m) * (x[i + lag] - m))
        .sum::<f64>()
        / n as f64
}

/// Autocorrelation at `lag`: autocovariance normalized by lag-0 variance.
///
/// Returns 0.0 for a constant series (undefined autocorrelation).
#[must_use]
pub fn autocorrelation(x: &[f64], lag: usize) -> f64 {
    let c0 = autocovariance(x, 0);
    if c0 <= f64::EPSILON {
        return 0.0;
    }
    autocovariance(x, lag) / c0
}

/// Result of an ordinary least-squares line fit `y = slope * t + intercept`
/// against sample index `t = 0..n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line per sample step.
    pub slope: f64,
    /// Intercept at `t = 0`.
    pub intercept: f64,
    /// Pearson correlation coefficient between the series and the index.
    pub r_value: f64,
    /// Standard error of the slope estimate.
    pub stderr: f64,
}

/// Fit a least-squares line through `x` against its sample index.
///
/// # Errors
///
/// Returns [`DspError::TooShort`] when `x` has fewer than two samples.
pub fn linear_fit(x: &[f64]) -> Result<LinearFit, DspError> {
    let n = x.len();
    if n < 2 {
        return Err(DspError::TooShort { got: n, need: 2 });
    }
    let nf = n as f64;
    let t_mean = (nf - 1.0) / 2.0;
    let x_mean = mean(x);
    let mut s_tt = 0.0;
    let mut s_tx = 0.0;
    let mut s_xx = 0.0;
    for (i, &v) in x.iter().enumerate() {
        let dt = i as f64 - t_mean;
        let dx = v - x_mean;
        s_tt += dt * dt;
        s_tx += dt * dx;
        s_xx += dx * dx;
    }
    let slope = s_tx / s_tt;
    let intercept = x_mean - slope * t_mean;
    let r_value = if s_xx <= f64::EPSILON {
        0.0
    } else {
        s_tx / (s_tt * s_xx).sqrt()
    };
    let stderr = if n > 2 {
        let resid: f64 = x
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let e = v - (slope * i as f64 + intercept);
                e * e
            })
            .sum();
        (resid / ((nf - 2.0) * s_tt)).sqrt()
    } else {
        0.0
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_value,
        stderr,
    })
}

/// Z-score normalize `x` in place; a constant series is left at zero mean.
pub fn zscore_in_place(x: &mut [f64]) {
    let m = mean(x);
    let s = std_dev(x);
    if s <= f64::EPSILON {
        for v in x.iter_mut() {
            *v -= m;
        }
    } else {
        for v in x.iter_mut() {
            *v = (*v - m) / s;
        }
    }
}

/// Sum of squared values (the "absolute energy" of tsfresh).
#[must_use]
pub fn abs_energy(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Mean of absolute first differences.
#[must_use]
pub fn mean_abs_change(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    x.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (x.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b}");
    }

    #[test]
    fn mean_basic() {
        assert_close(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5, 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_and_std() {
        // Population variance of [2,4,4,4,5,5,7,9] is 4.
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(variance(&x), 4.0, 1e-12);
        assert_close(std_dev(&x), 2.0, 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[3.0; 10]), 0.0);
    }

    #[test]
    fn skewness_symmetric_is_zero() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_close(skewness(&x), 0.0, 1e-12);
    }

    #[test]
    fn skewness_right_tail_positive() {
        let x = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&x) > 0.0);
    }

    #[test]
    fn kurtosis_of_constant_is_zero() {
        assert_eq!(kurtosis(&[5.0; 8]), 0.0);
    }

    #[test]
    fn kurtosis_heavy_tail_positive() {
        let mut x = vec![0.0; 50];
        x[0] = 30.0;
        x[49] = -30.0;
        assert!(kurtosis(&x) > 0.0);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let x = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_close(quantile(&x, 0.0).unwrap(), 1.0, 1e-12);
        assert_close(quantile(&x, 1.0).unwrap(), 5.0, 1e-12);
        assert_close(median(&x), 3.0, 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let x = [0.0, 10.0];
        assert_close(quantile(&x, 0.25).unwrap(), 2.5, 1e-12);
    }

    #[test]
    fn quantiles_match_a_sort_per_level() {
        let x = [0.3, -1.0, 2.5, 2.5, 0.0, 7.25, 1.0 / 3.0];
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9];
        let all = quantiles(&x, qs).unwrap();
        for (q, v) in qs.iter().zip(all) {
            let mut sorted = x.to_vec();
            sorted.sort_by(f64::total_cmp);
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            let frac = pos - lo as f64;
            let expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            assert_eq!(v.to_bits(), expected.to_bits(), "q={q}");
        }
        assert_eq!(quantiles(&[], [0.5, 2.0]), Err(DspError::EmptyInput));
        assert!(matches!(
            quantiles(&x, [0.5, 2.0]),
            Err(DspError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn quantile_rejects_bad_inputs() {
        assert_eq!(quantile(&[], 0.5), Err(DspError::EmptyInput));
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(DspError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn autocorr_lag0_is_one() {
        let x = [1.0, 3.0, 2.0, 5.0, 4.0];
        assert_close(autocorrelation(&x, 0), 1.0, 1e-12);
    }

    #[test]
    fn autocorr_alternating_negative_lag1() {
        let x = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(autocorrelation(&x, 1) < -0.5);
    }

    #[test]
    fn autocorr_constant_is_zero() {
        assert_eq!(autocorrelation(&[2.0; 16], 1), 0.0);
    }

    #[test]
    fn autocov_lag_beyond_len_is_zero() {
        assert_eq!(autocovariance(&[1.0, 2.0], 5), 0.0);
    }

    #[test]
    fn linear_fit_exact_line() {
        let x: Vec<f64> = (0..10).map(|i| 3.0 * i as f64 + 2.0).collect();
        let fit = linear_fit(&x).unwrap();
        assert_close(fit.slope, 3.0, 1e-12);
        assert_close(fit.intercept, 2.0, 1e-12);
        assert_close(fit.r_value, 1.0, 1e-12);
        assert_close(fit.stderr, 0.0, 1e-9);
    }

    #[test]
    fn linear_fit_flat_line() {
        let fit = linear_fit(&[4.0; 8]).unwrap();
        assert_close(fit.slope, 0.0, 1e-12);
        assert_close(fit.intercept, 4.0, 1e-12);
        assert_eq!(fit.r_value, 0.0);
    }

    #[test]
    fn linear_fit_too_short() {
        assert_eq!(
            linear_fit(&[1.0]),
            Err(DspError::TooShort { got: 1, need: 2 })
        );
    }

    #[test]
    fn zscore_normalizes() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        zscore_in_place(&mut x);
        assert_close(mean(&x), 0.0, 1e-12);
        assert_close(std_dev(&x), 1.0, 1e-12);
    }

    #[test]
    fn zscore_constant_series_centers() {
        let mut x = vec![7.0; 4];
        zscore_in_place(&mut x);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn abs_energy_and_mean_abs_change() {
        assert_close(abs_energy(&[1.0, 2.0, 2.0]), 9.0, 1e-12);
        assert_close(mean_abs_change(&[1.0, 3.0, 0.0]), 2.5, 1e-12);
        assert_eq!(mean_abs_change(&[1.0]), 0.0);
    }

    #[test]
    fn min_max_basic() {
        let x = [3.0, -1.0, 7.0];
        assert_eq!(min(&x), -1.0);
        assert_eq!(max(&x), 7.0);
    }
}
