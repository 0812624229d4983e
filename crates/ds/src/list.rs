//! Linked lists for the `link_list` workload (Table 3: 8 B keys, 512 nodes
//! per list, 1k lists, one search per list).
//!
//! Under affinity alloc, `linked_list_append` passes the previous node as
//! the affinity address (Fig 10), so traversal mostly stays within a bank;
//! the baseline heap scatters nodes across banks at the default interleave.

use crate::layout::AllocMode;
use aff_mem::addr::VAddr;
use aff_sim_core::config::CACHE_LINE;
use affinity_alloc::{AffinityAllocator, AllocError};

/// One placed list node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListNode {
    /// Node address.
    pub va: VAddr,
    /// Owning bank.
    pub bank: u32,
}

/// A singly linked list with placement resolved at build time.
#[derive(Debug, Clone, Default)]
pub struct AffLinkedList {
    nodes: Vec<ListNode>,
}

impl AffLinkedList {
    /// Build a list of `len` nodes. Under [`AllocMode::Affinity`] each node
    /// is allocated near its predecessor (the Fig 10 `linked_list_append`);
    /// under [`AllocMode::Baseline`] nodes are consecutive heap lines.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn build(
        alloc: &mut AffinityAllocator,
        len: usize,
        mode: AllocMode,
    ) -> Result<Self, AllocError> {
        let mut nodes = Vec::with_capacity(len);
        let mut prev: Option<VAddr> = None;
        for _ in 0..len {
            let va = match (mode, prev) {
                (AllocMode::Baseline, _) => alloc.heap_alloc_scattered(CACHE_LINE),
                // Unhinted: through the runtime, but with the predecessor
                // affinity withheld — the annotation-free configuration.
                (AllocMode::Affinity, None) | (AllocMode::Unhinted, _) => {
                    alloc.malloc_aff(CACHE_LINE, &[])?
                }
                (AllocMode::Affinity, Some(p)) => alloc.malloc_aff(CACHE_LINE, &[p])?,
            };
            let bank = alloc.bank_of(va);
            nodes.push(ListNode { va, bank });
            prev = Some(va);
        }
        Ok(Self { nodes })
    }

    /// Nodes in traversal order.
    pub fn nodes(&self) -> &[ListNode] {
        &self.nodes
    }

    /// List length.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of bank changes along the traversal (migration count).
    pub fn migrations(&self) -> u64 {
        self.nodes
            .windows(2)
            .filter(|w| w[0].bank != w[1].bank)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::config::MachineConfig;
    use affinity_alloc::BankSelectPolicy;

    impl AffLinkedList {
        /// Total migration hops a full traversal pays under the given topology.
        fn traversal_hops(&self, topo: aff_noc::topology::Topology) -> u64 {
            self.nodes
                .windows(2)
                .map(|w| u64::from(topo.manhattan(w[0].bank, w[1].bank)))
                .sum()
        }
    }

    #[test]
    fn min_hop_list_stays_put() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let l = AffLinkedList::build(&mut a, 512, AllocMode::Affinity).unwrap();
        assert_eq!(
            l.migrations(),
            0,
            "min-hop keeps the whole list in one bank"
        );
        assert_eq!(l.traversal_hops(a.topo()), 0);
    }

    #[test]
    fn hybrid_list_spills_but_stays_close() {
        let mut a = AffinityAllocator::new(
            MachineConfig::paper_default(),
            BankSelectPolicy::paper_default(),
        );
        let l = AffLinkedList::build(&mut a, 512, AllocMode::Affinity).unwrap();
        let topo = a.topo();
        // Spills happen, but each migration is short.
        let hops = l.traversal_hops(topo);
        assert!(l.migrations() > 0, "hybrid must spill a 512-node list");
        assert!(
            hops <= l.migrations() * 3,
            "hybrid migrations should be short: {hops} hops / {} migrations",
            l.migrations()
        );
    }

    #[test]
    fn baseline_list_wanders() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let l = AffLinkedList::build(&mut a, 512, AllocMode::Baseline).unwrap();
        // Scattered heap placement: nearly every hop changes bank.
        assert!(l.migrations() >= 256);
        assert_eq!(l.len(), 512);
        assert!(!l.is_empty());
    }

    #[test]
    fn empty_list() {
        let mut a =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let l = AffLinkedList::build(&mut a, 0, AllocMode::Affinity).unwrap();
        assert!(l.is_empty());
        assert_eq!(l.traversal_hops(a.topo()), 0);
    }
}
