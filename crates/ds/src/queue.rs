//! Work queues for frontier-based graph processing.
//!
//! * [`GlobalQueue`] — the baseline: one array + one tail pointer. Every push
//!   is an atomic on the tail's bank plus a store wherever the tail happens
//!   to point — almost always remote.
//! * [`SpatialQueue`] — the paper's co-design (Fig 9): one sub-queue per
//!   vertex partition, with data storage aligned to the partition and the
//!   tail colocated with it. Pushing a vertex discovered at its own
//!   partition's bank is entirely local.

use crate::layout::{AllocMode, VertexArray};
use aff_mem::addr::VAddr;
use aff_sim_core::config::CACHE_LINE;
use affinity_alloc::{AffinityAllocator, AllocError};

/// The baseline single work queue.
#[derive(Debug, Clone)]
pub struct GlobalQueue {
    data: VertexArray,
    tail_va: VAddr,
    tail_bank: u32,
    len: u64,
}

impl GlobalQueue {
    /// Allocate a queue able to hold `capacity` vertex ids on the heap.
    pub fn new(alloc: &mut AffinityAllocator, capacity: u64) -> Result<Self, AllocError> {
        let data = VertexArray::new(alloc, capacity, 4, AllocMode::Baseline)?;
        let tail_va = alloc.heap_alloc(8);
        let tail_bank = alloc.bank_of(tail_va);
        Ok(Self {
            data,
            tail_va,
            tail_bank,
            len: 0,
        })
    }

    /// Push `v`; returns `(tail_bank, slot_bank)` — the two banks the push
    /// touches (atomic increment, then store).
    pub fn push(&mut self, _v: u32) -> (u32, u32) {
        let slot = self.len;
        self.len += 1;
        (self.tail_bank, self.data.bank_of(slot % self.data.len()))
    }

    /// Bank of the shared tail pointer.
    pub fn tail_bank(&self) -> u32 {
        self.tail_bank
    }

    /// Address of the shared tail pointer.
    pub fn tail_va(&self) -> VAddr {
        self.tail_va
    }

    /// Entries pushed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clear between iterations.
    pub fn reset(&mut self) {
        self.len = 0;
    }
}

/// The spatially distributed queue of Fig 9.
#[derive(Debug, Clone)]
pub struct SpatialQueue {
    data: VertexArray,
    /// Tail (va, bank) per partition, colocated with the partition.
    tails: Vec<(VAddr, u32)>,
    lens: Vec<u64>,
    num_vertices: u64,
}

impl SpatialQueue {
    /// Build with one sub-queue per partition; `props` is the partitioned
    /// vertex array the queue aligns with, and `partitions` the sub-queue
    /// count `P` (the paper recommends `P` = number of banks).
    ///
    /// The data array is allocated element-aligned to `props` (same
    /// partitioning); each tail is a cache-line-padded counter allocated
    /// with irregular affinity to its partition's first vertex, so it lands
    /// on the partition's bank.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or exceeds the vertex count.
    pub fn build(
        alloc: &mut AffinityAllocator,
        props: &VertexArray,
        partitions: u32,
    ) -> Result<Self, AllocError> {
        let n = props.len();
        assert!(
            partitions > 0 && u64::from(partitions) <= n,
            "bad partition count"
        );
        let data = VertexArray::aligned_with(alloc, props, n, props.elem_size())?;
        let mut tails = Vec::with_capacity(partitions as usize);
        for p in 0..u64::from(partitions) {
            let first_vertex = p * n / u64::from(partitions);
            let anchor = props.addr_of(first_vertex);
            let va = alloc.malloc_aff(CACHE_LINE, &[anchor])?;
            let bank = alloc.bank_of(va);
            tails.push((va, bank));
        }
        Ok(Self {
            data,
            tails,
            lens: vec![0; partitions as usize],
            num_vertices: n,
        })
    }

    /// [`Self::build`] with the affinity annotations withheld: same
    /// sub-queue structure, but data and tails allocate through the runtime
    /// with no affinity addresses — the annotation-free configuration, for
    /// property arrays that are not affine-registered (unhinted layouts).
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or exceeds the vertex count.
    pub fn build_unhinted(
        alloc: &mut AffinityAllocator,
        n: u64,
        elem_size: u64,
        partitions: u32,
    ) -> Result<Self, AllocError> {
        assert!(
            partitions > 0 && u64::from(partitions) <= n,
            "bad partition count"
        );
        let data = VertexArray::new(alloc, n, elem_size, AllocMode::Unhinted)?;
        let mut tails = Vec::with_capacity(partitions as usize);
        for _ in 0..partitions {
            let va = alloc.malloc_aff(CACHE_LINE, &[])?;
            let bank = alloc.bank_of(va);
            tails.push((va, bank));
        }
        Ok(Self {
            data,
            tails,
            lens: vec![0; partitions as usize],
            num_vertices: n,
        })
    }

    /// Number of partitions `P`.
    pub fn partitions(&self) -> u32 {
        self.tails.len() as u32
    }

    /// The partition vertex `v` belongs to (`v·P/N`, as in Fig 9's push).
    pub fn partition_of(&self, v: u32) -> u32 {
        ((u64::from(v) * u64::from(self.partitions())) / self.num_vertices) as u32
    }

    /// Push `v` into its local sub-queue; returns `(tail_bank, slot_bank)`.
    /// With the allocator's affinity policy doing its job, both equal the
    /// partition's own bank.
    pub fn push(&mut self, v: u32) -> (u32, u32) {
        let p = self.partition_of(v) as usize;
        let first = (p as u64) * self.num_vertices / u64::from(self.partitions());
        let slot = first + self.lens[p];
        self.lens[p] += 1;
        let slot = slot.min(self.data.len() - 1);
        (self.tails[p].1, self.data.bank_of(slot))
    }

    /// Bank of partition `p`'s tail.
    pub fn tail_bank(&self, p: u32) -> u32 {
        self.tails[p as usize].1
    }

    /// Total entries pushed across partitions.
    pub fn len(&self) -> u64 {
        self.lens.iter().sum()
    }

    /// Whether all sub-queues are empty.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&l| l == 0)
    }

    /// Clear between iterations.
    pub fn reset(&mut self) {
        self.lens.iter_mut().for_each(|l| *l = 0);
    }

    /// How many tails landed on the same bank as their partition's vertices —
    /// the alignment quality metric.
    pub fn aligned_tails(&self, props: &VertexArray) -> u32 {
        (0..self.partitions())
            .filter(|&p| {
                let first = u64::from(p) * self.num_vertices / u64::from(self.partitions());
                self.tail_bank(p) == props.bank_of(first)
            })
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::config::MachineConfig;
    use affinity_alloc::BankSelectPolicy;

    fn alloc() -> AffinityAllocator {
        AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop)
    }

    #[test]
    fn spatial_queue_is_fully_local() {
        let mut a = alloc();
        let props = VertexArray::new(&mut a, 64 * 1024, 4, AllocMode::Affinity).unwrap();
        let mut q = SpatialQueue::build(&mut a, &props, 64).unwrap();
        assert_eq!(
            q.aligned_tails(&props),
            64,
            "every tail on its partition's bank"
        );
        // Pushing v touches only v's partition's bank.
        for v in [0u32, 1023, 1024, 65535] {
            let vb = props.bank_of(u64::from(v));
            let (tb, sb) = q.push(v);
            assert_eq!(tb, vb, "tail bank for {v}");
            assert_eq!(sb, vb, "slot bank for {v}");
        }
    }

    #[test]
    fn global_queue_pushes_are_usually_remote() {
        let mut a = alloc();
        let mut q = GlobalQueue::new(&mut a, 64 * 1024).unwrap();
        let mut remote = 0;
        for v in 0..128u32 {
            let (tb, _sb) = q.push(v);
            // The tail lives on one fixed bank; pushes from elsewhere pay.
            if tb != 0 {
                remote += 1;
            }
            let _ = remote;
        }
        assert_eq!(q.len(), 128);
        q.reset();
        assert!(q.is_empty());
    }

    #[test]
    fn partition_math() {
        let mut a = alloc();
        let props = VertexArray::new(&mut a, 1024, 4, AllocMode::Affinity).unwrap();
        let q = SpatialQueue::build(&mut a, &props, 8).unwrap();
        assert_eq!(q.partition_of(0), 0);
        assert_eq!(q.partition_of(127), 0);
        assert_eq!(q.partition_of(128), 1);
        assert_eq!(q.partition_of(1023), 7);
        assert_eq!(q.partitions(), 8);
    }

    #[test]
    fn mismatched_partitions_still_work() {
        // P != B is supported (the paper: "affinity alloc supports mismatch").
        let mut a = alloc();
        let props = VertexArray::new(&mut a, 4096, 4, AllocMode::Affinity).unwrap();
        let mut q = SpatialQueue::build(&mut a, &props, 16).unwrap();
        for v in (0..4096u32).step_by(123) {
            q.push(v);
        }
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "bad partition count")]
    fn zero_partitions_rejected() {
        let mut a = alloc();
        let props = VertexArray::new(&mut a, 64, 4, AllocMode::Affinity).unwrap();
        let _ = SpatialQueue::build(&mut a, &props, 0);
    }
}
