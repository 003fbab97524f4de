//! tsfresh-style time-series feature bank for airFinger.
//!
//! The paper extracts "a large number of candidate features" with the
//! tsfresh toolbox, ranks them by random-forest importance feedback, and
//! keeps the **25 feature kinds of Table I**. This crate implements those
//! 25 kinds from scratch on top of `airfinger-dsp`, plus the bold
//! **9-kind subset** Table I marks for the gesture/non-gesture filter of
//! §IV-F.
//!
//! A *kind* can emit several scalars (e.g. `AR` emits four coefficients);
//! [`FeatureExtractor`] concatenates every scalar of every configured kind,
//! and [`FeatureExtractor::extract_multi`] concatenates across photodiode
//! channels, producing the final feature vector fed to the classifiers.
//!
//! # Example
//!
//! ```
//! use airfinger_features::FeatureExtractor;
//!
//! let extractor = FeatureExtractor::table1();
//! let segment: Vec<f64> = (0..120).map(|i| (i as f64 * 0.2).sin().abs()).collect();
//! let vector = extractor.extract(&segment);
//! assert_eq!(vector.len(), extractor.len());
//! assert!(vector.iter().all(|v| v.is_finite()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complexity;
pub mod entropy;
pub mod freq;
pub mod location;

use airfinger_dsp::ar::{adf_stat, ar_coefficients, partial_autocorrelation};
use airfinger_dsp::stats;
use serde::{Deserialize, Serialize};

/// Fixed feature parameters (kept in one place so names and values agree).
mod params {
    /// Autocorrelation lags.
    pub(crate) const ACF_LAGS: [usize; 5] = [1, 2, 3, 5, 8];
    /// Partial-autocorrelation lags.
    pub(crate) const PACF_LAGS: usize = 3;
    /// AR model order.
    pub(crate) const AR_ORDER: usize = 4;
    /// Quantile levels.
    pub(crate) const QUANTILES: [f64; 4] = [0.1, 0.25, 0.75, 0.9];
    /// Peak support.
    pub(crate) const PEAK_SUPPORT: usize = 3;
    /// Entropy embedding dimension.
    pub(crate) const ENTROPY_M: usize = 2;
    /// Entropy tolerance factor (× σ).
    pub(crate) const ENTROPY_R: f64 = 0.2;
    /// Energy-ratio chunk count.
    pub(crate) const ENERGY_CHUNKS: usize = 4;
    /// Number of FFT coefficients.
    pub(crate) const FFT_K: usize = 8;
    /// CWT Ricker widths.
    pub(crate) const CWT_WIDTHS: [f64; 3] = [2.0, 5.0, 10.0];
    /// ADF lag order.
    pub(crate) const ADF_LAGS: usize = 1;
    /// Time-reversal-asymmetry / c3 lag.
    pub(crate) const NONLIN_LAG: usize = 1;
}

/// The 25 feature kinds of Table I.
///
/// Kinds that the table lists as a pair ("Count below/above mean",
/// "First location of minimum/maximum", "Longest strike above/below mean")
/// are one kind emitting two scalars, matching the paper's count of 25.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FeatureKind {
    /// Standard deviation.
    StandardDeviation,
    /// Variance.
    Variance,
    /// Fraction of samples below / above the mean (2 scalars).
    CountBelowAboveMean,
    /// Relative position of the last maximum.
    LastLocationOfMaximum,
    /// Partial autocorrelation at lags 1..=3 (3 scalars).
    PartialAutocorrelation,
    /// Relative positions of the first minimum and first maximum (2).
    FirstLocationOfMinMax,
    /// Sample entropy (m = 2, r = 0.2 σ).
    SampleEntropy,
    /// Longest strike above / below the mean (2 scalars).
    LongestStrikeAboveBelowMean,
    /// Excess kurtosis.
    Kurtosis,
    /// Yule–Walker AR(4) coefficients (4 scalars).
    Ar,
    /// Autocorrelation at lags {1, 2, 3, 5, 8} (5 scalars).
    Autocorrelation,
    /// Number of peaks with support 3.
    NumberOfPeaks,
    /// Quantiles at {0.1, 0.25, 0.75, 0.9} (4 scalars).
    Quantile,
    /// Complexity-invariant distance (normalized `cid_ce`).
    ComplexityInvariantDistance,
    /// Mean absolute change.
    MeanAbsoluteChange,
    /// Time-reversal asymmetry statistic at lag 1.
    TimeReversalAsymmetry,
    /// Absolute energy (sum of squares).
    AbsoluteEnergy,
    /// Energy ratio by 4 chunks (4 scalars).
    EnergyRatioByChunks,
    /// Approximate entropy (m = 2, r = 0.2 σ).
    ApproximateEntropy,
    /// Series length in samples.
    Length,
    /// Linear trend: slope and Pearson r (2 scalars).
    LinearTrend,
    /// Augmented Dickey–Fuller t-statistic.
    AugmentedDickeyFuller,
    /// The c3 nonlinearity measure at lag 1.
    C3,
    /// First 8 normalized FFT magnitude coefficients (8 scalars).
    Fft,
    /// CWT energy + peak position at Ricker widths {2, 5, 10} (6 scalars).
    Cwt,
    // ---- candidate kinds beyond Table I (used by the §IV-C1 selection
    // workflow; *not* part of the selected 25) ----
    /// Arithmetic mean.
    Mean,
    /// Third standardized moment.
    Skewness,
    /// Median.
    Median,
    /// Root mean square.
    RootMeanSquare,
    /// Maximum absolute value.
    MaximumAbsolute,
    /// Mean of the second differences (curvature proxy).
    MeanSecondDerivative,
}

impl FeatureKind {
    /// All 25 Table-I kinds, in table order.
    #[must_use]
    pub fn table1() -> Vec<FeatureKind> {
        use FeatureKind::*;
        vec![
            StandardDeviation,
            Variance,
            CountBelowAboveMean,
            LastLocationOfMaximum,
            PartialAutocorrelation,
            FirstLocationOfMinMax,
            SampleEntropy,
            LongestStrikeAboveBelowMean,
            Kurtosis,
            Ar,
            Autocorrelation,
            NumberOfPeaks,
            Quantile,
            ComplexityInvariantDistance,
            MeanAbsoluteChange,
            TimeReversalAsymmetry,
            AbsoluteEnergy,
            EnergyRatioByChunks,
            ApproximateEntropy,
            Length,
            LinearTrend,
            AugmentedDickeyFuller,
            C3,
            Fft,
            Cwt,
        ]
    }

    /// The candidate pool the §IV-C1 selection starts from: every Table-I
    /// kind plus the extra kinds a toolbox like tsfresh would also offer.
    /// The paper "extract\[s\] a large number of candidate features" and
    /// keeps the 25 most important; `repro selection` reruns that
    /// workflow over this pool.
    #[must_use]
    pub fn candidates() -> Vec<FeatureKind> {
        let mut all = FeatureKind::table1();
        all.extend([
            FeatureKind::Mean,
            FeatureKind::Skewness,
            FeatureKind::Median,
            FeatureKind::RootMeanSquare,
            FeatureKind::MaximumAbsolute,
            FeatureKind::MeanSecondDerivative,
        ]);
        all
    }

    /// The 9 bold kinds used by the §IV-F gesture/non-gesture filter.
    ///
    /// Table I bolds a subset but the paper never enumerates it; we pick
    /// the nine whose importance ranks highest on the synthetic corpus —
    /// shape and energy statistics that respond to "is this a deliberate,
    /// structured motion" rather than to which gesture it is.
    #[must_use]
    pub fn nongesture9() -> Vec<FeatureKind> {
        use FeatureKind::*;
        vec![
            StandardDeviation,
            Variance,
            NumberOfPeaks,
            AbsoluteEnergy,
            Length,
            MeanAbsoluteChange,
            LinearTrend,
            EnergyRatioByChunks,
            SampleEntropy,
        ]
    }

    /// Number of scalars this kind emits.
    #[must_use]
    pub fn arity(&self) -> usize {
        use FeatureKind::*;
        match self {
            StandardDeviation
            | Variance
            | LastLocationOfMaximum
            | SampleEntropy
            | Kurtosis
            | NumberOfPeaks
            | ComplexityInvariantDistance
            | MeanAbsoluteChange
            | TimeReversalAsymmetry
            | AbsoluteEnergy
            | ApproximateEntropy
            | Length
            | AugmentedDickeyFuller
            | C3
            | Mean
            | Skewness
            | Median
            | RootMeanSquare
            | MaximumAbsolute
            | MeanSecondDerivative => 1,
            CountBelowAboveMean
            | FirstLocationOfMinMax
            | LongestStrikeAboveBelowMean
            | LinearTrend => 2,
            PartialAutocorrelation => params::PACF_LAGS,
            Ar => params::AR_ORDER,
            Autocorrelation => params::ACF_LAGS.len(),
            Quantile => params::QUANTILES.len(),
            EnergyRatioByChunks => params::ENERGY_CHUNKS,
            Fft => params::FFT_K,
            Cwt => 2 * params::CWT_WIDTHS.len(),
        }
    }

    /// Compute this kind's scalars for `x`. Always returns exactly
    /// [`FeatureKind::arity`] finite values; degenerate inputs (short,
    /// constant) produce zeros rather than errors.
    #[must_use]
    pub fn values(&self, x: &[f64]) -> Vec<f64> {
        use FeatureKind::*;
        let v = match self {
            StandardDeviation => vec![stats::std_dev(x)],
            Variance => vec![stats::variance(x)],
            CountBelowAboveMean => {
                vec![location::count_below_mean(x), location::count_above_mean(x)]
            }
            LastLocationOfMaximum => vec![location::last_location_of_maximum(x)],
            PartialAutocorrelation => match partial_autocorrelation(x, params::PACF_LAGS) {
                Ok(p) => p[1..].to_vec(),
                Err(_) => vec![0.0; params::PACF_LAGS],
            },
            FirstLocationOfMinMax => vec![
                location::first_location_of_minimum(x),
                location::first_location_of_maximum(x),
            ],
            SampleEntropy => {
                vec![entropy::sample_entropy(
                    x,
                    params::ENTROPY_M,
                    params::ENTROPY_R,
                )]
            }
            LongestStrikeAboveBelowMean => vec![
                location::longest_strike_above_mean(x),
                location::longest_strike_below_mean(x),
            ],
            Kurtosis => vec![stats::kurtosis(x)],
            Ar => match ar_coefficients(x, params::AR_ORDER) {
                Ok(c) => c,
                Err(_) => vec![0.0; params::AR_ORDER],
            },
            Autocorrelation => params::ACF_LAGS
                .iter()
                .map(|&l| stats::autocorrelation(x, l))
                .collect(),
            NumberOfPeaks => vec![location::number_of_peaks(x, params::PEAK_SUPPORT)],
            Quantile => stats::quantiles(x, params::QUANTILES)
                .unwrap_or([0.0; params::QUANTILES.len()])
                .to_vec(),
            ComplexityInvariantDistance => vec![complexity::cid_ce(x, true)],
            MeanAbsoluteChange => vec![stats::mean_abs_change(x)],
            TimeReversalAsymmetry => {
                vec![complexity::time_reversal_asymmetry(x, params::NONLIN_LAG)]
            }
            AbsoluteEnergy => vec![stats::abs_energy(x)],
            EnergyRatioByChunks => complexity::energy_ratio_by_chunks(x, params::ENERGY_CHUNKS),
            ApproximateEntropy => {
                vec![entropy::approximate_entropy(
                    x,
                    params::ENTROPY_M,
                    params::ENTROPY_R,
                )]
            }
            Length => vec![x.len() as f64],
            LinearTrend => match stats::linear_fit(x) {
                Ok(f) => vec![f.slope, f.r_value],
                Err(_) => vec![0.0, 0.0],
            },
            AugmentedDickeyFuller => vec![adf_stat(x, params::ADF_LAGS).unwrap_or(0.0)],
            C3 => vec![complexity::c3(x, params::NONLIN_LAG)],
            Fft => freq::fft_coefficients(x, params::FFT_K),
            Cwt => freq::cwt_coefficients(x, &params::CWT_WIDTHS),
            Mean => vec![stats::mean(x)],
            Skewness => vec![stats::skewness(x)],
            Median => vec![stats::median(x)],
            RootMeanSquare => {
                vec![if x.is_empty() {
                    0.0
                } else {
                    (stats::abs_energy(x) / x.len() as f64).sqrt()
                }]
            }
            MaximumAbsolute => {
                vec![x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))]
            }
            MeanSecondDerivative => {
                if x.len() < 3 {
                    vec![0.0]
                } else {
                    vec![
                        x.windows(3).map(|w| w[2] - 2.0 * w[1] + w[0]).sum::<f64>()
                            / (x.len() - 2) as f64,
                    ]
                }
            }
        };
        debug_assert_eq!(v.len(), self.arity(), "{self:?} arity mismatch");
        // Guarantee finiteness regardless of input pathology.
        v.into_iter()
            .map(|f| if f.is_finite() { f } else { 0.0 })
            .collect()
    }

    /// Scalar names emitted by this kind (for importance reports).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        use FeatureKind::*;
        match self {
            CountBelowAboveMean => vec!["count_below_mean".into(), "count_above_mean".into()],
            FirstLocationOfMinMax => {
                vec![
                    "first_location_of_minimum".into(),
                    "first_location_of_maximum".into(),
                ]
            }
            LongestStrikeAboveBelowMean => {
                vec![
                    "longest_strike_above_mean".into(),
                    "longest_strike_below_mean".into(),
                ]
            }
            PartialAutocorrelation => (1..=params::PACF_LAGS)
                .map(|l| format!("pacf_lag{l}"))
                .collect(),
            Ar => (1..=params::AR_ORDER)
                .map(|k| format!("ar_coeff{k}"))
                .collect(),
            Autocorrelation => params::ACF_LAGS
                .iter()
                .map(|l| format!("acf_lag{l}"))
                .collect(),
            Quantile => params::QUANTILES
                .iter()
                .map(|q| format!("quantile_{q}"))
                .collect(),
            EnergyRatioByChunks => (0..params::ENERGY_CHUNKS)
                .map(|c| format!("energy_ratio_chunk{c}"))
                .collect(),
            LinearTrend => vec!["linear_trend_slope".into(), "linear_trend_r".into()],
            Fft => (1..=params::FFT_K)
                .map(|b| format!("fft_coeff{b}"))
                .collect(),
            Cwt => params::CWT_WIDTHS
                .iter()
                .flat_map(|w| vec![format!("cwt_energy_w{w}"), format!("cwt_peakpos_w{w}")])
                .collect(),
            other => vec![format!("{other:?}")
                .chars()
                .flat_map(|c| {
                    if c.is_uppercase() {
                        vec!['_', c.to_ascii_lowercase()]
                    } else {
                        vec![c]
                    }
                })
                .collect::<String>()
                .trim_start_matches('_')
                .to_string()],
        }
    }
}

/// Extracts a flat feature vector from one or more series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    kinds: Vec<FeatureKind>,
}

impl FeatureExtractor {
    /// Extractor over an explicit list of kinds.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    #[must_use]
    pub fn new(kinds: Vec<FeatureKind>) -> Self {
        assert!(!kinds.is_empty(), "need at least one feature kind");
        FeatureExtractor { kinds }
    }

    /// The full 25-kind Table-I extractor.
    #[must_use]
    pub fn table1() -> Self {
        FeatureExtractor::new(FeatureKind::table1())
    }

    /// The 9-kind non-gesture-filter extractor.
    #[must_use]
    pub fn nongesture9() -> Self {
        FeatureExtractor::new(FeatureKind::nongesture9())
    }

    /// Configured kinds.
    #[must_use]
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Number of scalars produced per channel.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.iter().map(FeatureKind::arity).sum()
    }

    /// Whether the extractor produces no features (never true — the
    /// constructor requires at least one kind).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extract the feature vector of a single series.
    #[must_use]
    pub fn extract(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for k in &self.kinds {
            out.extend(k.values(x));
        }
        out
    }

    /// Extract and concatenate features of several channels (per-channel
    /// vectors in channel order). Length = `len() * channels.len()`.
    #[must_use]
    pub fn extract_multi(&self, channels: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len() * channels.len());
        for c in channels {
            out.extend(self.extract(c));
        }
        out
    }

    /// Scalar names per channel, in extraction order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.kinds.iter().flat_map(FeatureKind::names).collect()
    }

    /// For every scalar of one channel's extraction, the index (into
    /// [`FeatureExtractor::kinds`]) of the kind that produced it — the
    /// mapping the §IV-C1 selection uses to aggregate scalar importances
    /// back to feature *kinds*.
    #[must_use]
    pub fn scalar_owners(&self) -> Vec<usize> {
        self.kinds
            .iter()
            .enumerate()
            .flat_map(|(i, k)| std::iter::repeat_n(i, k.arity()))
            .collect()
    }

    /// Scalar names for a multi-channel extraction, prefixed `p{ch}_`.
    #[must_use]
    pub fn names_multi(&self, channel_count: usize) -> Vec<String> {
        (0..channel_count)
            .flat_map(|ch| self.names().into_iter().map(move |n| format!("p{ch}_{n}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gesture_like(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin().abs() * (1.0 - (2.0 * t - 1.0).abs())
            })
            .collect()
    }

    #[test]
    fn table1_has_25_kinds() {
        assert_eq!(FeatureKind::table1().len(), 25);
    }

    #[test]
    fn candidates_extend_table1() {
        let c = FeatureKind::candidates();
        assert_eq!(c.len(), 31);
        for k in FeatureKind::table1() {
            assert!(c.contains(&k));
        }
        assert!(c.contains(&FeatureKind::Skewness));
    }

    #[test]
    fn candidate_kinds_compute_and_name() {
        let x = gesture_like(100);
        for k in FeatureKind::candidates() {
            assert_eq!(k.values(&x).len(), k.arity(), "{k:?}");
            assert_eq!(k.names().len(), k.arity(), "{k:?}");
            assert!(k.values(&x).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn scalar_owners_align_with_layout() {
        let e = FeatureExtractor::new(FeatureKind::candidates());
        let owners = e.scalar_owners();
        assert_eq!(owners.len(), e.len());
        // Owners are non-decreasing and cover every kind.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*owners.last().unwrap(), e.kinds().len() - 1);
    }

    #[test]
    fn nongesture_has_9_kinds_all_in_table1() {
        let nine = FeatureKind::nongesture9();
        assert_eq!(nine.len(), 9);
        let all = FeatureKind::table1();
        assert!(nine.iter().all(|k| all.contains(k)));
    }

    #[test]
    fn arity_matches_values_len() {
        let x = gesture_like(150);
        for k in FeatureKind::table1() {
            assert_eq!(k.values(&x).len(), k.arity(), "{k:?}");
        }
    }

    #[test]
    fn names_match_arity() {
        for k in FeatureKind::table1() {
            assert_eq!(k.names().len(), k.arity(), "{k:?}");
        }
    }

    #[test]
    fn extractor_len_consistent() {
        let e = FeatureExtractor::table1();
        let x = gesture_like(120);
        assert_eq!(e.extract(&x).len(), e.len());
        assert_eq!(e.names().len(), e.len());
    }

    #[test]
    fn all_values_finite_on_degenerate_inputs() {
        let e = FeatureExtractor::table1();
        for input in [
            vec![],
            vec![1.0],
            vec![5.0; 3],
            vec![5.0; 200],
            gesture_like(7),
        ] {
            let v = e.extract(&input);
            assert_eq!(v.len(), e.len());
            assert!(v.iter().all(|f| f.is_finite()), "input len {}", input.len());
        }
    }

    #[test]
    fn multi_channel_concatenates() {
        let e = FeatureExtractor::nongesture9();
        let c1 = gesture_like(100);
        let c2: Vec<f64> = c1.iter().map(|v| v * 2.0).collect();
        let v = e.extract_multi(&[c1.clone(), c2]);
        assert_eq!(v.len(), 2 * e.len());
        assert_eq!(&v[..e.len()], &e.extract(&c1)[..]);
    }

    #[test]
    fn names_multi_prefixes_channels() {
        let e = FeatureExtractor::nongesture9();
        let names = e.names_multi(3);
        assert_eq!(names.len(), 3 * e.len());
        assert!(names[0].starts_with("p0_"));
        assert!(names[names.len() - 1].starts_with("p2_"));
    }

    #[test]
    fn features_discriminate_single_vs_double() {
        // A single bump vs two bumps must differ in peak count and energy
        // distribution — the circle vs double-circle cue.
        let single = gesture_like(160);
        let mut double: Vec<f64> = gesture_like(80);
        double.extend(gesture_like(80));
        let e = FeatureExtractor::table1();
        let vs = e.extract(&single);
        let vd = e.extract(&double);
        let diff: f64 = vs
            .iter()
            .zip(&vd)
            .map(|(a, b)| (a - b).abs() / (a.abs() + b.abs() + 1e-9))
            .sum();
        assert!(diff > 1.0, "feature vectors too similar: {diff}");
    }

    #[test]
    fn duration_invariant_kinds_are_stable_across_speed() {
        // Relative-location features barely move when the gesture is
        // resampled to a different duration. Use a shape with a unique
        // global maximum so the argmax is well-defined at any sampling.
        let bump = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    (-(t - 0.3) * (t - 0.3) / 0.02).exp()
                })
                .collect()
        };
        let slow = bump(200);
        let fast = bump(100);
        for k in [
            FeatureKind::LastLocationOfMaximum,
            FeatureKind::CountBelowAboveMean,
        ] {
            let a = k.values(&slow);
            let b = k.values(&fast);
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 0.08, "{k:?}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let e = FeatureExtractor::table1();
        let json = serde_json::to_string(&e).unwrap();
        let back: FeatureExtractor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    #[should_panic(expected = "at least one feature kind")]
    fn empty_kinds_panic() {
        let _ = FeatureExtractor::new(vec![]);
    }
}
