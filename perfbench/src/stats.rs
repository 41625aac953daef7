//! Quantiles over raw samples, computed here rather than through a
//! histogram so that every reported percentile is an observed value.
//!
//! The percentile is always a *fraction* (`0.5`, `0.9`), never a percent;
//! a value above 1 is refused instead of being clamped, which is the
//! mistake that made the repository's histogram report its maximum for
//! every percentile. A percentile is also refused unless at least
//! [`MIN_BEYOND`] samples lie above it, so a tail figure is never read off
//! a handful of points.

use std::fmt;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a quantile was not reported.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantileError {
    /// The fraction was outside `(0, 1]` — most likely a percent.
    NotAFraction(f64),
    /// Too few samples lie beyond the requested rank.
    TooFewSamples {
        /// The fraction asked for.
        q: f64,
        /// Samples available.
        n: usize,
        /// Samples the fraction needs for [`MIN_BEYOND`] to lie beyond it.
        needed: usize,
    },
}

impl fmt::Display for QuantileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantileError::NotAFraction(q) => {
                write!(f, "quantile {q} is not a fraction in (0, 1]")
            }
            QuantileError::TooFewSamples { q, n, needed } => write!(
                f,
                "p{} needs {needed} samples ({MIN_BEYOND} beyond it), have {n}",
                q * 100.0
            ),
        }
    }
}

impl std::error::Error for QuantileError {}

/// The 1-based nearest rank of fraction `q` among `n` samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of `sorted` (ascending) at fraction `q`.
///
/// # Errors
///
/// [`QuantileError::NotAFraction`] unless `0 < q <= 1`;
/// [`QuantileError::TooFewSamples`] unless [`MIN_BEYOND`] samples lie
/// beyond the rank.
pub fn quantile(sorted: &[f64], q: f64) -> Result<f64, QuantileError> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(QuantileError::NotAFraction(q));
    }
    let n = sorted.len();
    let rank = nearest_rank(q, n);
    if n < rank + MIN_BEYOND || n == 0 {
        // No sample count puts anything beyond the maximum.
        let needed = if q < 1.0 {
            (MIN_BEYOND..)
                .find(|&m| m >= nearest_rank(q, m) + MIN_BEYOND)
                .expect("a fraction below 1 leaves room beyond it at some count")
        } else {
            usize::MAX
        };
        return Err(QuantileError::TooFewSamples { q, n, needed });
    }
    Ok(sorted[rank - 1])
}

/// Raw latency samples of one operation kind.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Samples held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The quantile at fraction `q` (see [`quantile`]).
    pub fn quantile(&self, q: f64) -> Result<f64, QuantileError> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, q)
    }

    /// The median, or `None` with no samples — for per-layer figures read
    /// off a few repetitions, where the refusal rule does not apply.
    pub fn median(&self) -> Option<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        (!sorted.is_empty()).then(|| sorted[nearest_rank(0.5, sorted.len()) - 1])
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_takes_a_fraction_and_returns_an_observed_value() {
        let xs = ramp(100);
        assert_eq!(quantile(&xs, 0.5), Ok(50.0));
        assert_eq!(quantile(&xs, 0.9), Ok(90.0));
        assert_eq!(quantile(&xs, 0.25), Ok(25.0));
        // 0.505 × 100 rounds up to rank 51, not an interpolated 50.5.
        assert_eq!(quantile(&xs, 0.505), Ok(51.0));
    }

    #[test]
    fn a_percent_is_refused_not_clamped_to_the_maximum() {
        let xs = ramp(1000);
        for q in [50.0, 90.0, 99.0, 0.0, -0.5, f64::NAN] {
            assert!(
                matches!(quantile(&xs, q), Err(QuantileError::NotAFraction(_))),
                "{q} must be refused"
            );
        }
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p50 of 20: rank 10, ten beyond — reported. Of 19: refused.
        assert_eq!(quantile(&ramp(20), 0.5), Ok(10.0));
        assert_eq!(
            quantile(&ramp(19), 0.5),
            Err(QuantileError::TooFewSamples {
                q: 0.5,
                n: 19,
                needed: 20
            })
        );
        // p90 needs 100; p99 needs 1000.
        assert!(quantile(&ramp(99), 0.9).is_err());
        assert_eq!(quantile(&ramp(100), 0.9), Ok(90.0));
        assert!(quantile(&ramp(999), 0.99).is_err());
        assert_eq!(quantile(&ramp(1000), 0.99), Ok(990.0));
        // The maximum never has samples beyond it.
        assert!(quantile(&ramp(10_000), 1.0).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::new();
        for v in (1..=40).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), Ok(20.0));
        assert_eq!(s.median(), Some(20.0));
        assert_eq!(Samples::new().median(), None);
    }
}
