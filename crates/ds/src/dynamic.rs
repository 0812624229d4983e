//! Dynamic linked CSR — the §8 "Dynamic Data Structures" direction.
//!
//! The static [`crate::linked_csr::LinkedCsr`] is built once from a frozen
//! graph. Evolving-graph systems (RisGraph, Terrace, GraphTinker — §8)
//! instead insert and delete edges continuously, and the paper argues
//! pointer-based formats like linked CSR "can naturally benefit from the
//! improved spatial locality from affinity alloc without extra
//! preprocessing". This module provides that structure:
//!
//! * [`DynamicLinkedCsr::insert_edge`] appends into the vertex's tail node,
//!   allocating a fresh cache-line node (with affinity to the chain tail
//!   and the pointed-to vertex) when full;
//! * [`DynamicLinkedCsr::remove_edge`] deletes an edge, freeing nodes that
//!   empty;
//! * [`DynamicLinkedCsr::rebalance_vertex`] re-places a vertex's nodes via
//!   `realloc_aff` after its edge set has drifted (§8: "if the runtime is
//!   aware of the data structure modification … the layout could also be
//!   dynamically adjusted").

use crate::layout::VertexArray;
use aff_mem::addr::VAddr;
use aff_sim_core::config::CACHE_LINE;
use affinity_alloc::{AffinityAllocator, AllocError, MAX_AFFINITY_ADDRS};

/// One mutable edge node.
#[derive(Debug, Clone)]
struct DynNode {
    targets: Vec<u32>,
    va: VAddr,
    bank: u32,
}

/// A mutable linked-CSR graph with affinity-maintained placement.
#[derive(Debug)]
pub struct DynamicLinkedCsr {
    chains: Vec<Vec<DynNode>>,
    capacity: usize,
    num_edges: usize,
}

impl DynamicLinkedCsr {
    /// An empty graph over `num_vertices` vertices with `capacity` edges per
    /// node (use [`crate::linked_csr::node_capacity`] for the 64 B default).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(num_vertices: u32, capacity: usize) -> Self {
        assert!(capacity > 0, "nodes must hold at least one edge");
        Self {
            chains: vec![Vec::new(); num_vertices as usize],
            capacity,
            num_edges: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.chains.len() as u32
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of live edge nodes.
    pub fn num_nodes(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Out-neighbors of `u` (unordered).
    pub fn neighbors(&self, u: u32) -> Vec<u32> {
        self.chains[u as usize]
            .iter()
            .flat_map(|n| n.targets.iter().copied())
            .collect()
    }

    /// Banks of `u`'s chain nodes, in traversal order.
    pub fn chain_banks(&self, u: u32) -> Vec<u32> {
        self.chains[u as usize].iter().map(|n| n.bank).collect()
    }

    /// Insert edge `(u, v)`. Appends into the tail node when it has room;
    /// otherwise allocates a new node with affinity to the chain tail and
    /// to `v`'s property address.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn insert_edge(
        &mut self,
        alloc: &mut AffinityAllocator,
        props: &VertexArray,
        u: u32,
        v: u32,
    ) -> Result<(), AllocError> {
        let capacity = self.capacity;
        let chain = &mut self.chains[u as usize];
        if let Some(tail) = chain.last_mut() {
            if tail.targets.len() < capacity {
                tail.targets.push(v);
                self.num_edges += 1;
                return Ok(());
            }
        }
        let mut aff = Vec::with_capacity(2);
        if let Some(tail) = chain.last() {
            aff.push(tail.va);
        }
        aff.push(props.addr_of(u64::from(v)));
        let va = alloc.malloc_aff(CACHE_LINE, &aff)?;
        let bank = alloc.bank_of(va);
        self.chains[u as usize].push(DynNode {
            targets: vec![v],
            va,
            bank,
        });
        self.num_edges += 1;
        Ok(())
    }

    /// Remove one occurrence of edge `(u, v)`; frees the node if it empties.
    /// Returns whether an edge was removed.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures from freeing an emptied node.
    pub fn remove_edge(
        &mut self,
        alloc: &mut AffinityAllocator,
        u: u32,
        v: u32,
    ) -> Result<bool, AllocError> {
        let chain = &mut self.chains[u as usize];
        for i in 0..chain.len() {
            if let Some(pos) = chain[i].targets.iter().position(|&t| t == v) {
                chain[i].targets.swap_remove(pos);
                self.num_edges -= 1;
                if chain[i].targets.is_empty() {
                    let dead = chain.remove(i);
                    alloc.free_aff(dead.va)?;
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Re-place every node of `u` against its *current* targets via
    /// `realloc_aff` — the dynamic layout adjustment of §8. Returns how many
    /// nodes moved.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn rebalance_vertex(
        &mut self,
        alloc: &mut AffinityAllocator,
        props: &VertexArray,
        u: u32,
    ) -> Result<u32, AllocError> {
        let mut moved = 0;
        for i in 0..self.chains[u as usize].len() {
            let (va, addrs) = {
                let node = &self.chains[u as usize][i];
                let addrs: Vec<VAddr> = node
                    .targets
                    .iter()
                    .take(MAX_AFFINITY_ADDRS)
                    .map(|&t| props.addr_of(u64::from(t)))
                    .collect();
                (node.va, addrs)
            };
            let new_va = alloc.realloc_aff(va, &addrs)?;
            if new_va != va {
                let node = &mut self.chains[u as usize][i];
                node.va = new_va;
                node.bank = alloc.bank_of(new_va);
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Mean hops from each node to the vertices it points at.
    pub fn mean_indirect_hops(
        &self,
        topo: aff_noc::topology::Topology,
        props: &VertexArray,
    ) -> f64 {
        let mut hops = 0u64;
        let mut edges = 0u64;
        for chain in &self.chains {
            for node in chain {
                for &t in &node.targets {
                    hops += u64::from(topo.manhattan(node.bank, props.bank_of(u64::from(t))));
                    edges += 1;
                }
            }
        }
        if edges == 0 {
            0.0
        } else {
            hops as f64 / edges as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AllocMode;
    use crate::linked_csr::node_capacity;
    use aff_sim_core::config::MachineConfig;
    use aff_sim_core::rng::SimRng;
    use affinity_alloc::BankSelectPolicy;

    fn setup() -> (AffinityAllocator, VertexArray) {
        let mut alloc =
            AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::MinHop);
        let props = VertexArray::new(&mut alloc, 4096, 8, AllocMode::Affinity).unwrap();
        (alloc, props)
    }

    #[test]
    fn insert_and_query() {
        let (mut alloc, props) = setup();
        let mut g = DynamicLinkedCsr::new(4096, node_capacity(false));
        for v in 1..20u32 {
            g.insert_edge(&mut alloc, &props, 0, v).unwrap();
        }
        assert_eq!(g.num_edges(), 19);
        assert_eq!(g.num_nodes(), 2, "19 edges = 2 nodes of 14");
        let mut nb = g.neighbors(0);
        nb.sort_unstable();
        assert_eq!(nb, (1..20u32).collect::<Vec<_>>());
    }

    #[test]
    fn nodes_placed_near_targets() {
        let (mut alloc, props) = setup();
        let mut g = DynamicLinkedCsr::new(4096, node_capacity(false));
        // All edges of vertex 7 point into one partition shard.
        for v in 100..110u32 {
            g.insert_edge(&mut alloc, &props, 7, v).unwrap();
        }
        let target_bank = props.bank_of(100);
        assert_eq!(g.chain_banks(7), vec![target_bank]);
    }

    #[test]
    fn remove_edges_and_free_nodes() {
        let (mut alloc, props) = setup();
        let mut g = DynamicLinkedCsr::new(4096, 4);
        for v in 1..6u32 {
            g.insert_edge(&mut alloc, &props, 0, v).unwrap();
        }
        assert_eq!(g.num_nodes(), 2);
        assert!(g.remove_edge(&mut alloc, 0, 5).unwrap());
        assert_eq!(g.num_nodes(), 1, "emptied node is freed");
        assert!(!g.remove_edge(&mut alloc, 0, 99).unwrap());
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn rebalance_chases_drifted_targets() {
        let (mut alloc, props) = setup();
        let mut g = DynamicLinkedCsr::new(4096, 8);
        // Node starts pointing at partition-0 vertices...
        for v in 0..4u32 {
            g.insert_edge(&mut alloc, &props, 1, v).unwrap();
        }
        let before = g.chain_banks(1)[0];
        assert_eq!(before, props.bank_of(0));
        // ...then its edge set drifts to the far corner's partition.
        for v in 0..4u32 {
            g.remove_edge(&mut alloc, 1, v).unwrap();
        }
        for v in 4000..4004u32 {
            g.insert_edge(&mut alloc, &props, 1, v).unwrap();
        }
        // (The node that emptied was freed and re-allocated near the new
        // targets already; force the drift case by inserting into a reused
        // node instead.)
        let mut g2 = DynamicLinkedCsr::new(4096, 8);
        for v in 0..4u32 {
            g2.insert_edge(&mut alloc, &props, 1, v).unwrap();
        }
        for v in 0..4u32 {
            let _ = g2.remove_edge(&mut alloc, 1, v);
            g2.insert_edge(&mut alloc, &props, 1, 4000 + v).unwrap();
        }
        let stale = g2.chain_banks(1)[0];
        let moved = g2.rebalance_vertex(&mut alloc, &props, 1).unwrap();
        let fresh = g2.chain_banks(1)[0];
        if stale != props.bank_of(4000) {
            assert!(moved > 0, "rebalance must move the drifted node");
            assert_eq!(fresh, props.bank_of(4000));
        }
    }

    #[test]
    fn churn_keeps_placement_quality() {
        let (mut alloc, props) = setup();
        let topo = alloc.topo();
        let mut g = DynamicLinkedCsr::new(4096, node_capacity(false));
        let mut rng = SimRng::new(77);
        // Insert clustered edges, churn, rebalance, and check locality.
        for _ in 0..2000 {
            let u = rng.below(4096) as u32;
            let v = ((u64::from(u) + rng.below(64)) % 4096) as u32;
            g.insert_edge(&mut alloc, &props, u, v).unwrap();
        }
        for u in 0..4096u32 {
            g.rebalance_vertex(&mut alloc, &props, u).unwrap();
        }
        let hops = g.mean_indirect_hops(topo, &props);
        assert!(
            hops < 1.0,
            "clustered dynamic edges should stay near their targets, got {hops:.2}"
        );
        assert_eq!(g.num_edges(), 2000);
    }
}
