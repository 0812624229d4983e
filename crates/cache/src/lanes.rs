//! Chunked branch-free reductions for the per-bank counter scans.
//!
//! [`BankCounters`](crate::bank::BankCounters) and the occupancy timeline
//! scan per-bank `u64` vectors on every metrics read — totals and
//! busiest-bank maxima. Iterator `sum` over a `u64` slice already vectorizes
//! sometimes, but the `Option`-carrying `max` does not. These helpers
//! restate the scans as eight-lane chunked loops with scalar tails.
//!
//! **Determinism contract**: only *exact* operations are reassociated —
//! integer adds and integer max — so every figure byte is identical to the
//! scalar scans.

/// Lane width shared by the chunked scans.
pub const LANES: usize = 8;

/// Sum of a `u64` slice, eight partial accumulators wide. Integer addition
/// is associative, so any lane order gives the scalar `iter().sum()` answer
/// (and panics on overflow in debug builds exactly like it).
///
/// `inline(never)`: compiled once per binary as a standalone loop the
/// vectorizer always fires on — inlined into large callers, thin-LTO has
/// been observed to scalarize lane kernels in some binaries.
#[inline(never)]
#[must_use]
pub fn sum_u64(xs: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let chunks = xs.len() / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            acc[l] += xs[base + l];
        }
    }
    let mut total: u64 = acc.iter().sum();
    for &x in &xs[chunks * LANES..] {
        total += x;
    }
    total
}

/// Maximum of a `u64` slice (`0` when empty), eight lanes wide with a
/// branch-free per-lane select. `inline(never)` for the same per-binary
/// codegen pinning as [`sum_u64`].
#[inline(never)]
#[must_use]
pub fn max_u64(xs: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let chunks = xs.len() / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            let x = xs[base + l];
            acc[l] = if x > acc[l] { x } else { acc[l] };
        }
    }
    let mut m = acc.iter().copied().max().unwrap_or(0);
    for &x in &xs[chunks * LANES..] {
        m = m.max(x);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_match_scalar_at_every_tail_length() {
        for n in 0..40usize {
            let xs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37) % 1000).collect();
            assert_eq!(sum_u64(&xs), xs.iter().sum::<u64>(), "sum at n={n}");
            assert_eq!(
                max_u64(&xs),
                xs.iter().copied().max().unwrap_or(0),
                "max at n={n}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The chunked scans equal the scalar iterator reductions for every
        /// slice, including empty slices and lengths that land mid-chunk.
        #[test]
        fn chunked_scans_match_scalar_reductions(
            xs in proptest::collection::vec(0u64..1u64 << 50, 0..200)
        ) {
            prop_assert_eq!(sum_u64(&xs), xs.iter().sum::<u64>());
            prop_assert_eq!(max_u64(&xs), xs.iter().copied().max().unwrap_or(0));
        }

        /// Duplicated maxima (ties across lanes) still reduce to the same
        /// value as the scalar scan.
        #[test]
        fn tied_maxima_are_stable(
            mut xs in proptest::collection::vec(0u64..1000, 1..64),
            dup in 0usize..64,
        ) {
            let m = xs.iter().copied().max().unwrap();
            let at = dup % xs.len();
            xs[at] = m; // force at least one repeated maximum
            prop_assert_eq!(max_u64(&xs), m);
        }
    }
}
