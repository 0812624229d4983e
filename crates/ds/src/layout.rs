//! Shared layout plumbing: allocation modes and placed vertex arrays.

use aff_mem::addr::VAddr;
use affinity_alloc::{AffineArrayReq, AffinityAllocator, AffinityHint, AllocError};

/// How a structure is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocMode {
    /// Baseline heap placement (default 1 KiB static-NUCA interleave) —
    /// what `In-Core` and `Near-L3` run on.
    Baseline,
    /// Placement through the affinity-alloc runtime.
    Affinity,
    /// Placement through the affinity-alloc runtime with **no affinity
    /// structure** — the annotation-free configuration profiling runs and
    /// the `none` arm of the inference comparison execute on. Placement is
    /// the baseline heap's; what differs from [`AllocMode::Baseline`] is
    /// intent: the system under test is AffAlloc, minus its hints.
    Unhinted,
}

/// A property array (`Parent[]`, `Dist[]`, `Rank[]`, …) with its per-element
/// bank resolved at build time, so executors never pay a lookup per access.
#[derive(Debug, Clone)]
pub struct VertexArray {
    va: VAddr,
    elem_size: u64,
    banks: Vec<u32>,
    mode: AllocMode,
}

impl VertexArray {
    /// Allocate a property array for `n` elements of `elem_size` bytes.
    ///
    /// Under [`AllocMode::Affinity`] the array is allocated with the
    /// `partition` flag (Fig 9): each bank owns one contiguous shard of
    /// vertices. Under [`AllocMode::Baseline`] and [`AllocMode::Unhinted`]
    /// it lives on the heap.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn new(
        alloc: &mut AffinityAllocator,
        n: u64,
        elem_size: u64,
        mode: AllocMode,
    ) -> Result<Self, AllocError> {
        match mode {
            AllocMode::Baseline | AllocMode::Unhinted => {
                let va = alloc.heap_alloc(n * elem_size);
                Ok(Self::resolve(alloc, va, n, elem_size, mode))
            }
            AllocMode::Affinity => Self::with_hint(alloc, n, elem_size, &AffinityHint::Partition),
        }
    }

    /// Allocate with any [`AffinityHint`] through the affine runtime — the
    /// entry the inferred-profile replay path uses. `None` is the plain
    /// affine layout (an un-partnered array at the default interleave).
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn with_hint(
        alloc: &mut AffinityAllocator,
        n: u64,
        elem_size: u64,
        hint: &AffinityHint,
    ) -> Result<Self, AllocError> {
        let va = alloc.malloc_aff_affine(&AffineArrayReq::with_hint(elem_size, n, hint))?;
        Ok(Self::resolve(alloc, va, n, elem_size, AllocMode::Affinity))
    }

    /// Allocate aligned element-for-element with `partner` (Fig 8(b)); falls
    /// back per the runtime's rules.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn aligned_with(
        alloc: &mut AffinityAllocator,
        partner: &VertexArray,
        n: u64,
        elem_size: u64,
    ) -> Result<Self, AllocError> {
        Self::with_hint(
            alloc,
            n,
            elem_size,
            &AffinityHint::AlignTo {
                partner: partner.va,
                p: 1,
                q: 1,
                x: 0,
            },
        )
    }

    /// Resolve per-element banks once, at build time.
    fn resolve(
        alloc: &mut AffinityAllocator,
        va: VAddr,
        n: u64,
        elem_size: u64,
        mode: AllocMode,
    ) -> Self {
        let banks = (0..n).map(|i| alloc.bank_of(va + i * elem_size)).collect();
        Self {
            va,
            elem_size,
            banks,
            mode,
        }
    }

    /// Base virtual address.
    pub fn va(&self) -> VAddr {
        self.va
    }

    /// Address of element `i`.
    pub fn addr_of(&self, i: u64) -> VAddr {
        self.va + i * self.elem_size
    }

    /// Bank owning element `i`.
    pub fn bank_of(&self, i: u64) -> u32 {
        self.banks[i as usize]
    }

    /// Element size in bytes.
    pub fn elem_size(&self) -> u64 {
        self.elem_size
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.banks.len() as u64
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// Total bytes.
    pub fn bytes(&self) -> u64 {
        self.len() * self.elem_size
    }

    /// The mode it was allocated under.
    pub fn mode(&self) -> AllocMode {
        self.mode
    }

    /// Per-element banks (bulk access for executors).
    pub fn banks(&self) -> &[u32] {
        &self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::config::MachineConfig;
    use affinity_alloc::BankSelectPolicy;

    fn alloc() -> AffinityAllocator {
        AffinityAllocator::new(
            MachineConfig::paper_default(),
            BankSelectPolicy::paper_default(),
        )
    }

    #[test]
    fn partitioned_array_shards_contiguously() {
        let mut a = alloc();
        let v = VertexArray::new(&mut a, 64 * 1024, 4, AllocMode::Affinity).unwrap();
        // 64k elements over 64 banks: 1k elements per bank, in order.
        assert_eq!(v.bank_of(0), 0);
        assert_eq!(v.bank_of(1023), 0);
        assert_eq!(v.bank_of(1024), 1);
        assert_eq!(v.bank_of(64 * 1024 - 1), 63);
    }

    #[test]
    fn baseline_array_follows_default_interleave() {
        let mut a = alloc();
        let v = VertexArray::new(&mut a, 4096, 4, AllocMode::Baseline).unwrap();
        assert_eq!(v.mode(), AllocMode::Baseline);
        // 1 KiB default interleave = 256 4-byte elements per bank chunk.
        assert_eq!(v.bank_of(0), v.bank_of(255));
        assert_ne!(v.bank_of(0), v.bank_of(256));
    }

    #[test]
    fn unhinted_array_places_like_baseline() {
        let mut a = alloc();
        let u = VertexArray::new(&mut a, 4096, 4, AllocMode::Unhinted).unwrap();
        let mut b = alloc();
        let base = VertexArray::new(&mut b, 4096, 4, AllocMode::Baseline).unwrap();
        assert_eq!(u.mode(), AllocMode::Unhinted);
        assert_eq!(u.banks(), base.banks(), "unhinted = baseline placement");
    }

    #[test]
    fn hinted_partition_matches_affinity_mode() {
        let mut a = alloc();
        let v = VertexArray::new(&mut a, 64 * 1024, 4, AllocMode::Affinity).unwrap();
        let mut b = alloc();
        let h = VertexArray::with_hint(&mut b, 64 * 1024, 4, &AffinityHint::Partition).unwrap();
        assert_eq!(v.banks(), h.banks(), "hint path = legacy path");
    }

    #[test]
    fn aligned_arrays_share_banks() {
        let mut a = alloc();
        let v = VertexArray::new(&mut a, 16 * 1024, 4, AllocMode::Affinity).unwrap();
        let q = VertexArray::aligned_with(&mut a, &v, 16 * 1024, 4).unwrap();
        for i in [0u64, 100, 8191, 16 * 1024 - 1] {
            assert_eq!(v.bank_of(i), q.bank_of(i), "element {i}");
        }
    }

    #[test]
    fn addressing() {
        let mut a = alloc();
        let v = VertexArray::new(&mut a, 100, 8, AllocMode::Baseline).unwrap();
        assert_eq!(v.addr_of(3), v.va() + 24);
        assert_eq!(v.elem_size(), 8);
        assert_eq!(v.len(), 100);
        assert_eq!(v.bytes(), 800);
        assert!(!v.is_empty());
    }
}
