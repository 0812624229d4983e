//! Summary statistics used across the evaluation harness.
//!
//! The paper reports geometric-mean speedups, arithmetic-mean traffic, and
//! occupancy *distributions over banks* (min / 25% / avg / 75% / max in
//! Fig 14). This module provides exactly those reductions.

use serde::{Deserialize, Serialize};

/// Geometric mean of strictly positive values.
///
/// Returns `None` for an empty slice or if any value is not finite and
/// positive — the caller should treat that as a harness bug, not clamp it.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for &v in values {
        if !(v.is_finite() && v > 0.0) {
            return None;
        }
        log_sum += v.ln();
    }
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The five-point distribution the paper plots per bank in Fig 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FivePoint {
    /// Least-occupied bank.
    pub min: f64,
    /// 25th percentile (75% of banks have *higher* occupancy, per the paper's
    /// convention of ordering banks from least to most occupied).
    pub p25: f64,
    /// Arithmetic mean over banks.
    pub avg: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Most-occupied bank.
    pub max: f64,
}

impl FivePoint {
    /// Summarize one sample-per-bank snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `per_bank` is empty.
    pub fn from_samples(per_bank: &[f64]) -> Self {
        assert!(!per_bank.is_empty(), "FivePoint of empty sample set");
        let mut sorted = per_bank.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN occupancy sample"));
        let q = |p: f64| -> f64 {
            // Nearest-rank on the sorted ladder; adequate for plotting.
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        Self {
            min: sorted[0],
            p25: q(0.25),
            avg: mean(&sorted).expect("nonempty"),
            p75: q(0.75),
            max: *sorted.last().expect("nonempty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[4.0]), Some(4.0));
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn five_point_of_uniform() {
        let fp = FivePoint::from_samples(&[3.0; 8]);
        assert_eq!(fp.min, 3.0);
        assert_eq!(fp.max, 3.0);
        assert_eq!(fp.avg, 3.0);
    }

    #[test]
    fn five_point_of_ramp() {
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        let fp = FivePoint::from_samples(&xs);
        assert_eq!(fp.min, 0.0);
        assert_eq!(fp.max, 100.0);
        assert!((fp.avg - 50.0).abs() < 1e-12);
        assert_eq!(fp.p25, 25.0);
        assert_eq!(fp.p75, 75.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn five_point_empty_panics() {
        FivePoint::from_samples(&[]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Geomean lies between min and max and is scale-equivariant.
        #[test]
        fn geomean_bounds_and_scaling(
            xs in proptest::collection::vec(0.001f64..1000.0, 1..50),
            k in 0.01f64..100.0,
        ) {
            let g = geomean(&xs).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(g >= lo * 0.999 && g <= hi * 1.001);
            let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
            let gs = geomean(&scaled).unwrap();
            prop_assert!((gs / g - k).abs() < k * 1e-9);
        }

        /// FivePoint quantiles are ordered and bounded by the data.
        #[test]
        fn five_point_ordering(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let fp = FivePoint::from_samples(&xs);
            prop_assert!(fp.min <= fp.p25 + 1e-9);
            prop_assert!(fp.p25 <= fp.p75 + 1e-9);
            prop_assert!(fp.p75 <= fp.max + 1e-9);
            prop_assert!(fp.min <= fp.avg && fp.avg <= fp.max);
        }
    }
}
