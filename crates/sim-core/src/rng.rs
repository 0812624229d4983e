//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the reproduction (graph generation, random bank
//! selection, random page mapping) flows through [`SimRng`] seeded from an
//! experiment-level seed, so reruns are bit-for-bit reproducible without
//! pulling `rand` into every crate's public API.
//!
//! The generator is SplitMix64 followed by xorshift mixing — tiny, fast, and
//! of ample quality for workload synthesis (we are not doing cryptography or
//! Monte Carlo integration).
//!
//! # Example
//!
//! ```
//! use aff_sim_core::rng::SimRng;
//! let mut a = SimRng::new(42);
//! let mut b = SimRng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// A small deterministic PRNG (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

/// The SplitMix64 output finalizer: a bijective avalanche mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derive an independent child generator, e.g. one per worker or per
    /// workload phase, without correlating their streams.
    pub fn fork(&mut self, label: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Derive an independent stream purely from `(seed, stream)`, without
    /// consuming any generator state.
    ///
    /// Unlike [`fork`](Self::fork) — which advances the parent and therefore
    /// depends on how many draws happened before the fork — `split` is a pure
    /// function: equal `(seed, stream)` give byte-equal generators no matter
    /// how many other streams were split before, after, or concurrently. This
    /// is what makes parallel sweep cells scheduling-order independent: cell
    /// `i` draws from `split(experiment_seed, i)` and its stream cannot be
    /// perturbed by any other cell.
    ///
    /// Distinct `stream` values are guaranteed to yield distinct generators
    /// for a fixed seed: the derivation composes bijections (odd-constant
    /// multiply, xor with a constant, the SplitMix64 finalizer), so no two
    /// stream ids collapse onto the same state.
    pub fn split(seed: u64, stream: u64) -> SimRng {
        // Finalize each input separately before combining so that low-entropy
        // inputs (seed = 0, stream = 0, 1, 2, …) still land in uncorrelated
        // regions of the state space.
        let s = mix64(seed ^ 0x6A09_E667_F3BC_C909);
        let t = mix64(stream.wrapping_mul(0xA24B_AED4_963E_E407));
        SimRng {
            state: mix64(s ^ t.rotate_left(32)),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire-style rejection-free mapping is fine at our quality bar;
        // use widening multiply to avoid modulo bias for large bounds.
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_range_roughly_uniformly() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} too skewed");
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = SimRng::new(1234);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn split_is_deterministic() {
        let mut a = SimRng::split(2023, 17);
        let mut b = SimRng::split(2023, 17);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_pairwise_distinct() {
        // Adjacent stream ids (the common case: cell indices 0, 1, 2, …)
        // must not correlate even for a low-entropy seed.
        for seed in [0u64, 1, 2023] {
            for i in 0..16u64 {
                for j in (i + 1)..16 {
                    let mut a = SimRng::split(seed, i);
                    let mut b = SimRng::split(seed, j);
                    let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
                    assert_eq!(same, 0, "streams {i} and {j} correlate (seed {seed})");
                }
            }
        }
    }

    #[test]
    fn split_is_insensitive_to_split_order_and_fork_interleaving() {
        // Derivation is a pure function of (seed, stream): interleaving other
        // splits or draining a forked generator in between changes nothing.
        let direct: Vec<u64> = {
            let mut r = SimRng::split(99, 7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let _noise_a = SimRng::split(99, 1);
        let mut root = SimRng::new(99);
        let mut forked = root.fork(3);
        let _ = forked.next_u64();
        let _noise_b = SimRng::split(99, 12);
        let interleaved: Vec<u64> = {
            let mut r = SimRng::split(99, 7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(direct, interleaved);
    }

    #[test]
    fn split_differs_from_plain_seeding() {
        // A split stream must not collide with the root experiment stream.
        let mut root = SimRng::new(5);
        let mut child = SimRng::split(5, 0);
        let same = (0..32)
            .filter(|_| root.next_u64() == child.next_u64())
            .count();
        assert_eq!(same, 0);
    }
}
