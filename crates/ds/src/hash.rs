//! Chained hash table for the `hash_join` workload (Table 3: 8 B keys,
//! 256k build ⋈ 512k probe, hit rate 1/8, buckets ≤ 8 entries).
//!
//! The bucket-head array is partitioned across banks; chain nodes are
//! allocated with affinity to their bucket head, so probing a bucket stays
//! on one bank under an affinity policy.

use crate::layout::{AllocMode, VertexArray};
use aff_sim_core::config::CACHE_LINE;
use affinity_alloc::{AffinityAllocator, AllocError};

/// One chain node: key plus placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashNode {
    /// Stored key.
    pub key: u64,
    /// Owning bank.
    pub bank: u32,
}

/// A chained hash table with placement resolved at build time.
#[derive(Debug, Clone)]
pub struct HashChainTable {
    heads: VertexArray,
    chains: Vec<Vec<HashNode>>,
}

impl HashChainTable {
    /// Build a table of `num_buckets` buckets holding `keys`, allocating
    /// chain nodes per `mode`. Bucket heads are partitioned across banks
    /// under `Affinity` and heap-resident under `Baseline`.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero.
    pub fn build(
        alloc: &mut AffinityAllocator,
        num_buckets: u64,
        keys: &[u64],
        mode: AllocMode,
    ) -> Result<Self, AllocError> {
        assert!(num_buckets > 0, "need at least one bucket");
        let heads = VertexArray::new(alloc, num_buckets, 8, mode)?;
        let mut chains: Vec<Vec<HashNode>> = vec![Vec::new(); num_buckets as usize];
        for &k in keys {
            let b = Self::bucket_of_key(k, num_buckets);
            let va = match mode {
                AllocMode::Baseline => alloc.heap_alloc_scattered(CACHE_LINE),
                // Unhinted: through the runtime, but with the head affinity
                // withheld — the annotation-free configuration.
                AllocMode::Unhinted => alloc.malloc_aff(CACHE_LINE, &[])?,
                AllocMode::Affinity => {
                    // Affinity to the bucket head: probes start there.
                    alloc.malloc_aff(CACHE_LINE, &[heads.addr_of(b)])?
                }
            };
            let bank = alloc.bank_of(va);
            chains[b as usize].push(HashNode { key: k, bank });
        }
        Ok(Self { heads, chains })
    }

    /// The bucket a key hashes to (Fibonacci hashing).
    pub fn bucket_of_key(key: u64, num_buckets: u64) -> u64 {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % num_buckets
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u64 {
        self.heads.len()
    }

    /// Bank of bucket `b`'s head.
    pub fn head_bank(&self, b: u64) -> u32 {
        self.heads.bank_of(b)
    }

    /// Probe for `key`: returns the head bank and the banks of the chain
    /// nodes visited (all of them on a miss, up to and including the match
    /// on a hit), plus whether it hit.
    pub fn probe(&self, key: u64) -> (u32, Vec<u32>, bool) {
        let mut visited = Vec::new();
        let (head, hit) = self.probe_into(key, &mut visited);
        (head, visited, hit)
    }

    /// Allocation-free [`Self::probe`]: clears `visited`, appends the banks
    /// of the chain nodes walked, and returns `(head_bank, hit)`. Lets the
    /// hash-join inner loop reuse one buffer across half a million probes.
    pub fn probe_into(&self, key: u64, visited: &mut Vec<u32>) -> (u32, bool) {
        visited.clear();
        let b = Self::bucket_of_key(key, self.num_buckets());
        for node in &self.chains[b as usize] {
            visited.push(node.bank);
            if node.key == key {
                return (self.head_bank(b), true);
            }
        }
        (self.head_bank(b), false)
    }

    /// Longest chain (Table 3 expects ≤ 8 with the right bucket count).
    pub fn max_chain_len(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total stored keys.
    pub fn len(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Whether the table stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of chain nodes colocated with their bucket head.
    pub fn colocated_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut colocated = 0usize;
        for (b, chain) in self.chains.iter().enumerate() {
            let hb = self.head_bank(b as u64);
            for n in chain {
                total += 1;
                if n.bank == hb {
                    colocated += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            colocated as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::config::MachineConfig;
    use aff_sim_core::rng::SimRng;
    use affinity_alloc::BankSelectPolicy;

    fn keys(n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(99);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn probe_hits_stored_keys() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let ks = keys(1000);
        let t = HashChainTable::build(&mut a, 512, &ks, AllocMode::Affinity).unwrap();
        for &k in ks.iter().step_by(37) {
            let (_, visited, hit) = t.probe(k);
            assert!(hit, "stored key must be found");
            assert!(!visited.is_empty());
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn probe_misses_unknown_keys() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let t = HashChainTable::build(&mut a, 512, &keys(100), AllocMode::Affinity).unwrap();
        let (_, _, hit) = t.probe(0xDEAD_BEEF_0BAD_F00D);
        assert!(!hit);
    }

    #[test]
    fn affinity_chains_colocate_with_heads() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let t = HashChainTable::build(&mut a, 4096, &keys(8000), AllocMode::Affinity).unwrap();
        assert!(
            t.colocated_fraction() > 0.95,
            "min-hop must colocate chains, got {}",
            t.colocated_fraction()
        );
    }

    #[test]
    fn baseline_chains_scatter() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let t = HashChainTable::build(&mut a, 4096, &keys(8000), AllocMode::Baseline).unwrap();
        assert!(
            t.colocated_fraction() < 0.30,
            "heap layout should not accidentally colocate, got {}",
            t.colocated_fraction()
        );
    }

    #[test]
    fn chains_stay_short_with_enough_buckets() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        // 2x buckets over keys keeps the tail small (≤ 8, Table 3's regime).
        let t = HashChainTable::build(&mut a, 8192, &keys(4096), AllocMode::Affinity).unwrap();
        assert!(t.max_chain_len() <= 8, "got {}", t.max_chain_len());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let _ = HashChainTable::build(&mut a, 0, &[], AllocMode::Affinity);
    }
}
