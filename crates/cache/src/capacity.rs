//! Analytic L3 capacity / miss-rate model.
//!
//! The paper's L3 uses bimodal RRIP (Table 2), a thrash-resistant policy:
//! when a cyclically-reused working set exceeds capacity, RRIP protects a
//! capacity-sized subset instead of LRU's pathological 100% miss. The
//! steady-state hit fraction for such a policy is approximately
//! `capacity / footprint`, giving
//!
//! ```text
//! miss_rate ≈ max(0, 1 − capacity/footprint)
//! ```
//!
//! which matches the paper's reported behaviour: ≈0% when the input fits,
//! >75% at 8× the fitting input (Fig 15), and graceful degradation between.

/// Steady-state miss rate of a working set of `footprint_bytes` cyclically
/// reused in a cache of `capacity_bytes` under a thrash-resistant policy.
///
/// Returns a value in `[0, 1]`. A zero-capacity cache misses always;
/// a zero footprint never.
pub fn miss_rate(footprint_bytes: u64, capacity_bytes: u64) -> f64 {
    if footprint_bytes == 0 {
        return 0.0;
    }
    if capacity_bytes == 0 {
        return 1.0;
    }
    (1.0 - capacity_bytes as f64 / footprint_bytes as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_means_no_misses() {
        assert_eq!(miss_rate(1 << 20, 64 << 20), 0.0);
        assert_eq!(miss_rate(64 << 20, 64 << 20), 0.0);
    }

    #[test]
    fn eight_x_exceeds_75_percent() {
        // Fig 15: at 8x the fitting input the paper reports >75% L3 miss.
        let m = miss_rate(8 * (64 << 20), 64 << 20);
        assert!(m > 0.75, "got {m}");
    }

    #[test]
    fn degrades_monotonically() {
        let cap = 64u64 << 20;
        let mut last = -1.0;
        for mult in [1u64, 2, 4, 8, 16] {
            let m = miss_rate(mult * cap, cap);
            assert!(m >= last);
            last = m;
        }
    }

    #[test]
    fn edge_cases() {
        assert_eq!(miss_rate(0, 1024), 0.0);
        assert_eq!(miss_rate(1024, 0), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Miss rate is in [0,1], monotone in footprint, antitone in capacity.
        #[test]
        fn miss_rate_shape(fp in 0u64..1u64 << 40, cap in 0u64..1u64 << 40, d in 1u64..1u64 << 30) {
            let m = miss_rate(fp, cap);
            prop_assert!((0.0..=1.0).contains(&m));
            prop_assert!(miss_rate(fp.saturating_add(d), cap) >= m);
            prop_assert!(miss_rate(fp, cap.saturating_add(d)) <= m);
        }
    }
}
