//! Spatially distributed relaxed priority queue — §4.2: "Priority queues,
//! e.g. MultiQueues \[79\], can also be implemented as one queue per bank.
//! Heap rearrangement involves pointer-chasing, which is supported by NSC."
//!
//! One binary heap per partition, storage aligned to the vertex partition
//! like the FIFO [`crate::queue::SpatialQueue`]. Pushes are bank-local;
//! pops use the MultiQueues discipline — peek `c` random sub-heaps, pop the
//! best — giving relaxed (not strict) priority order with no global
//! synchronization point.

use crate::layout::VertexArray;
use aff_mem::addr::VAddr;
use aff_sim_core::config::CACHE_LINE;
use aff_sim_core::rng::SimRng;
use affinity_alloc::{AffinityAllocator, AllocError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The per-partition relaxed min-priority queue.
#[derive(Debug)]
pub struct SpatialPriorityQueue {
    heaps: Vec<BinaryHeap<Reverse<(u64, u32)>>>,
    /// (va, bank) of each sub-heap's storage anchor.
    anchors: Vec<(VAddr, u32)>,
    num_vertices: u64,
    rng: SimRng,
    /// Sub-heaps sampled per pop (MultiQueues' `c`; 2 is the classic value).
    choices: u32,
}

impl SpatialPriorityQueue {
    /// Build with one sub-heap per partition, anchored to `props`'s
    /// partition shards (heap storage colocates with the vertices whose
    /// priorities it orders).
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
        seed: u64,
    ) -> Result<Self, AllocError> {
        let n = props.len();
        assert!(
            partitions > 0 && u64::from(partitions) <= n,
            "bad partition count"
        );
        let mut anchors = Vec::with_capacity(partitions as usize);
        for p in 0..u64::from(partitions) {
            let first_vertex = p * n / u64::from(partitions);
            let va = alloc.malloc_aff(CACHE_LINE, &[props.addr_of(first_vertex)])?;
            anchors.push((va, alloc.bank_of(va)));
        }
        Ok(Self {
            heaps: (0..partitions).map(|_| BinaryHeap::new()).collect(),
            anchors,
            num_vertices: n,
            rng: SimRng::new(seed),
            choices: 2,
        })
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.heaps.len() as u32
    }

    /// The partition vertex `v` belongs to.
    pub fn partition_of(&self, v: u32) -> u32 {
        ((u64::from(v) * u64::from(self.partitions())) / self.num_vertices) as u32
    }

    /// Bank of partition `p`'s heap storage.
    pub fn bank_of_partition(&self, p: u32) -> u32 {
        self.anchors[p as usize].1
    }

    /// Push `(priority, v)` into `v`'s local sub-heap; returns the bank the
    /// push touched.
    pub fn push(&mut self, v: u32, priority: u64) -> u32 {
        let p = self.partition_of(v);
        self.heaps[p as usize].push(Reverse((priority, v)));
        self.bank_of_partition(p)
    }

    /// Relaxed pop: sample `choices` sub-heaps, pop the smaller
    /// minimum. Returns `(priority, vertex, bank)` or `None` when every
    /// sub-heap is empty.
    pub fn pop(&mut self) -> Option<(u64, u32, u32)> {
        let parts = self.heaps.len();
        let mut best: Option<usize> = None;
        for _ in 0..self.choices {
            let cand = self.rng.index(parts);
            if self.heaps[cand].peek().is_none() {
                continue;
            }
            best = Some(match best {
                None => cand,
                Some(cur) => {
                    if self.heaps[cand].peek() < self.heaps[cur].peek() {
                        cand
                    } else {
                        cur
                    }
                }
            });
        }
        // Fall back to a scan when sampling missed every nonempty heap.
        let pick = best.or_else(|| (0..parts).find(|&p| !self.heaps[p].is_empty()))?;
        let Reverse((priority, v)) = self.heaps[pick].pop().expect("picked nonempty heap");
        Some((priority, v, self.bank_of_partition(pick as u32)))
    }

    /// Total entries across sub-heaps.
    pub fn len(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum()
    }

    /// Whether every sub-heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heaps.iter().all(BinaryHeap::is_empty)
    }

    /// How many pushes would be bank-local for a vertex (its partition bank
    /// equals its property bank) — alignment quality, like the FIFO queue's.
    pub fn aligned_partitions(&self, props: &VertexArray) -> u32 {
        (0..self.partitions())
            .filter(|&p| {
                let first = u64::from(p) * self.num_vertices / u64::from(self.partitions());
                self.bank_of_partition(p) == props.bank_of(first)
            })
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AllocMode;
    use aff_sim_core::config::MachineConfig;
    use affinity_alloc::BankSelectPolicy;

    fn setup() -> (AffinityAllocator, VertexArray) {
        let mut alloc =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let props = VertexArray::new(&mut alloc, 64 * 1024, 8, AllocMode::Affinity).unwrap();
        (alloc, props)
    }

    #[test]
    fn pushes_are_bank_local() {
        let (mut alloc, props) = setup();
        let mut q = SpatialPriorityQueue::build(&mut alloc, &props, 64, 1).unwrap();
        assert_eq!(q.aligned_partitions(&props), 64);
        for v in (0..64 * 1024u32).step_by(777) {
            let bank = q.push(v, u64::from(v));
            assert_eq!(bank, props.bank_of(u64::from(v)));
        }
    }

    #[test]
    fn drains_everything_roughly_in_order() {
        let (mut alloc, props) = setup();
        let mut q = SpatialPriorityQueue::build(&mut alloc, &props, 16, 2).unwrap();
        let n = 2000u32;
        for v in 0..n {
            q.push(v % 1000, (u64::from(v) * 2654435761) % 10_000);
        }
        assert_eq!(q.len(), n as usize);
        let mut popped = Vec::new();
        while let Some((pri, _, _)) = q.pop() {
            popped.push(pri);
        }
        assert_eq!(popped.len(), n as usize, "nothing lost");
        assert!(q.is_empty());
        // Relaxed order: count inversions; MultiQueues guarantees the pop
        // sequence is *near*-sorted, not sorted.
        let inversions = popped.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(
            inversions < popped.len() / 2,
            "pop order should be near-sorted: {inversions} inversions over {}",
            popped.len()
        );
        // And it is definitely not destroying priority entirely: the first
        // decile pops should average far below the last decile.
        let d = popped.len() / 10;
        let head: u64 = popped[..d].iter().sum();
        let tail: u64 = popped[popped.len() - d..].iter().sum();
        assert!(head < tail / 2);
    }

    #[test]
    fn empty_pop_is_none() {
        let (mut alloc, props) = setup();
        let mut q = SpatialPriorityQueue::build(&mut alloc, &props, 8, 3).unwrap();
        assert!(q.pop().is_none());
        q.push(5, 42);
        assert_eq!(q.pop().map(|(p, v, _)| (p, v)), Some((42, 5)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn sampling_misses_fall_back_to_scan() {
        let (mut alloc, props) = setup();
        // Many partitions, one occupied: random 2-sampling will often miss,
        // but pop must still find the element.
        let mut q = SpatialPriorityQueue::build(&mut alloc, &props, 64, 4).unwrap();
        q.push(0, 7);
        let mut found = false;
        for _ in 0..1 {
            if let Some((p, v, _)) = q.pop() {
                assert_eq!((p, v), (7, 0));
                found = true;
            }
        }
        assert!(found);
    }
}
