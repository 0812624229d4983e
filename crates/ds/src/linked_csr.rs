//! The linked CSR format (Fig 11) — the paper's flagship data-structure
//! co-design.
//!
//! Edges live in cache-line-sized *nodes*: an 8-byte next pointer followed by
//! up to 14 unweighted (or 7 weighted) edges. Each node is allocated with
//! `malloc_aff(64, targets…)`, naming the property addresses of the vertices
//! its edges point to — so the bank-select policy places the node near the
//! data its indirect accesses will touch. The costs and wins the paper
//! argues (§5.3):
//!
//! * extra pointer chasing between nodes (charged as stream migration),
//! * amortized over ~14 edges per node,
//! * indirect accesses become (mostly) bank-local.

use crate::graph::Graph;
use crate::layout::VertexArray;
use aff_mem::addr::VAddr;
use aff_sim_core::config::CACHE_LINE;
use affinity_alloc::{AffinityAllocator, AllocError, MAX_AFFINITY_ADDRS};

/// Edges per node: a 64 B line minus the 8 B next pointer.
pub fn node_capacity(weighted: bool) -> usize {
    let per_edge = if weighted { 8 } else { 4 };
    ((CACHE_LINE - 8) / per_edge) as usize
}

/// One edge node: a slice of the source vertex's adjacency plus placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeNode {
    /// Source vertex.
    pub vertex: u32,
    /// Range into `graph.neighbors(vertex)` this node holds.
    pub lo: u32,
    /// Exclusive end of the range.
    pub hi: u32,
    /// The node's virtual address.
    pub va: VAddr,
    /// The bank the allocator placed it on.
    pub bank: u32,
}

/// A graph in linked CSR form with placement resolved.
#[derive(Debug, Clone)]
pub struct LinkedCsr {
    nodes: Vec<EdgeNode>,
    /// Node index range per vertex (its chain, in traversal order).
    chain_offsets: Vec<u32>,
    capacity: usize,
}

impl LinkedCsr {
    /// Build the linked CSR for `graph`, placing each node with affinity to
    /// the property addresses (`props`) of the vertices it points to.
    ///
    /// The allocator's bank-select policy decides the actual placement —
    /// build with `Rnd`/`Lnr`/`MinHop`/`Hybrid` allocators to reproduce
    /// Fig 13. With more targets than [`MAX_AFFINITY_ADDRS`], the node
    /// samples evenly (the paper's sampling rule).
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn build(
        alloc: &mut AffinityAllocator,
        graph: &Graph,
        props: &VertexArray,
    ) -> Result<Self, AllocError> {
        Self::build_with_capacity(alloc, graph, props, node_capacity(graph.is_weighted()))
    }

    /// [`Self::build`] with an explicit edges-per-node capacity — the
    /// `abl_node_capacity` ablation (smaller nodes = finer placement but
    /// more pointer chasing; the 64 B line is the paper's sweet spot).
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn build_with_capacity(
        alloc: &mut AffinityAllocator,
        graph: &Graph,
        props: &VertexArray,
        capacity: usize,
    ) -> Result<Self, AllocError> {
        Self::build_inner(alloc, graph, Some(props), capacity)
    }

    /// Build the linked CSR with **no affinity addresses** — every node goes
    /// through `malloc_aff(64, &[])`. Same chain structure as [`Self::build`]
    /// (so region ordinals and traversal order match the annotated build),
    /// but placement carries no co-access knowledge: the annotation-free
    /// configuration profiling runs execute on.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn build_unhinted(
        alloc: &mut AffinityAllocator,
        graph: &Graph,
    ) -> Result<Self, AllocError> {
        Self::build_inner(alloc, graph, None, node_capacity(graph.is_weighted()))
    }

    fn build_inner(
        alloc: &mut AffinityAllocator,
        graph: &Graph,
        props: Option<&VertexArray>,
        capacity: usize,
    ) -> Result<Self, AllocError> {
        assert!(capacity > 0, "nodes must hold at least one edge");
        // Exactly one node per `capacity` edges of each list, reserved up
        // front so the vector (kept for the layout's lifetime) never holds
        // doubling slack.
        let num_nodes: u64 = (0..graph.num_vertices())
            .map(|v| graph.degree(v).div_ceil(capacity as u64))
            .sum();
        let mut nodes = Vec::with_capacity(num_nodes as usize);
        let mut chain_offsets = Vec::with_capacity(graph.num_vertices() as usize + 1);
        chain_offsets.push(0u32);
        let mut aff = Vec::with_capacity(MAX_AFFINITY_ADDRS);
        for v in 0..graph.num_vertices() {
            let neighbors = graph.neighbors(v);
            let mut lo = 0usize;
            let mut prev_node: Option<VAddr> = None;
            while lo < neighbors.len() {
                let hi = (lo + capacity).min(neighbors.len());
                aff.clear();
                if let Some(props) = props {
                    // The predecessor node in the chain is an affinity address
                    // too: the scanning stream chases the next pointer, so
                    // short chain migrations matter as much as short indirect
                    // hops.
                    if let Some(p) = prev_node {
                        aff.push(p);
                    }
                    let slice = &neighbors[lo..hi];
                    let budget = MAX_AFFINITY_ADDRS - aff.len();
                    if slice.len() <= budget {
                        aff.extend(slice.iter().map(|&t| props.addr_of(u64::from(t))));
                    } else {
                        let step = slice.len() as f64 / budget as f64;
                        for k in 0..budget {
                            let t = slice[(k as f64 * step) as usize];
                            aff.push(props.addr_of(u64::from(t)));
                        }
                    }
                }
                let va = alloc.malloc_aff(CACHE_LINE, &aff)?;
                prev_node = Some(va);
                let bank = alloc.bank_of(va);
                nodes.push(EdgeNode {
                    vertex: v,
                    lo: lo as u32,
                    hi: hi as u32,
                    va,
                    bank,
                });
                lo = hi;
            }
            chain_offsets.push(nodes.len() as u32);
        }
        debug_assert_eq!(nodes.len() as u64, num_nodes);
        Ok(Self {
            nodes,
            chain_offsets,
            capacity,
        })
    }

    /// Edges per node for this graph.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// All nodes, grouped by vertex in traversal order.
    pub fn nodes(&self) -> &[EdgeNode] {
        &self.nodes
    }

    /// The chain of nodes holding `v`'s adjacency.
    pub fn chain_of(&self, v: u32) -> &[EdgeNode] {
        let a = self.chain_offsets[v as usize] as usize;
        let b = self.chain_offsets[v as usize + 1] as usize;
        &self.nodes[a..b]
    }

    /// Total node count (= migration steps a full scan pays).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes of edge-node storage (footprint accounting).
    pub fn bytes(&self) -> u64 {
        self.nodes.len() as u64 * CACHE_LINE
    }

    /// Mean hops from each node to the vertices it points at — the quantity
    /// affinity placement minimizes (diagnostics / EXPERIMENTS.md).
    pub fn mean_indirect_hops(
        &self,
        topo: aff_noc::topology::Topology,
        graph: &Graph,
        props: &VertexArray,
    ) -> f64 {
        let hops: u64 = self
            .nodes
            .iter()
            .map(|n| {
                graph.neighbors(n.vertex)[n.lo as usize..n.hi as usize]
                    .iter()
                    .map(|&t| u64::from(topo.manhattan(n.bank, props.bank_of(u64::from(t)))))
                    .sum::<u64>()
            })
            .sum();
        let edges = graph.num_edges();
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
    use aff_sim_core::config::MachineConfig;
    use affinity_alloc::BankSelectPolicy;

    fn setup(policy: BankSelectPolicy) -> (AffinityAllocator, Graph, VertexArray) {
        let mut alloc = AffinityAllocator::new(MachineConfig::paper_default(), policy);
        // A ring with some chords, 4096 vertices.
        let mut edges: Vec<(u32, u32)> = (0..4096u32).map(|v| (v, (v + 1) % 4096)).collect();
        edges.extend((0..4096u32).map(|v| (v, (v + 64) % 4096)));
        let g = Graph::from_edges(4096, &edges);
        let props = VertexArray::new(&mut alloc, 4096, 4, AllocMode::Affinity).unwrap();
        (alloc, g, props)
    }

    #[test]
    fn capacities_match_paper() {
        assert_eq!(node_capacity(false), 14, "64B line: 8B ptr + 14 4B edges");
        assert_eq!(node_capacity(true), 7);
    }

    #[test]
    fn chains_cover_all_edges() {
        let (mut a, g, props) = setup(BankSelectPolicy::paper_default());
        let l = LinkedCsr::build(&mut a, &g, &props).unwrap();
        let mut covered = 0u64;
        for v in 0..g.num_vertices() {
            for n in l.chain_of(v) {
                assert_eq!(n.vertex, v);
                covered += u64::from(n.hi - n.lo);
            }
        }
        assert_eq!(covered, g.num_edges() as u64);
    }

    #[test]
    fn min_hop_placement_beats_random() {
        let (mut ar, g, pr) = {
            let mut alloc =
                AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::Rnd);
            let mut edges: Vec<(u32, u32)> = (0..4096u32).map(|v| (v, (v + 1) % 4096)).collect();
            edges.extend((0..4096u32).map(|v| (v, (v + 64) % 4096)));
            let g = Graph::from_edges(4096, &edges);
            let props = VertexArray::new(&mut alloc, 4096, 4, AllocMode::Affinity).unwrap();
            (alloc, g, props)
        };
        let random = LinkedCsr::build(&mut ar, &g, &pr).unwrap();
        let (mut am, g2, pm) = setup(BankSelectPolicy::MinHop);
        let minhop = LinkedCsr::build(&mut am, &g2, &pm).unwrap();
        let topo = ar.topo();
        let hr = random.mean_indirect_hops(topo, &g, &pr);
        let hm = minhop.mean_indirect_hops(topo, &g2, &pm);
        assert!(
            hm < hr * 0.5,
            "min-hop ({hm:.2}) must dominate random ({hr:.2})"
        );
    }

    #[test]
    fn node_count_matches_capacity_math() {
        let (mut a, g, props) = setup(BankSelectPolicy::paper_default());
        let l = LinkedCsr::build(&mut a, &g, &props).unwrap();
        // Every vertex has degree 2 ⇒ one node each.
        assert_eq!(l.num_nodes(), 4096);
        assert_eq!(l.bytes(), 4096 * 64);
        assert_eq!(l.capacity(), 14);
    }

    #[test]
    fn unhinted_build_keeps_structure_but_drops_affinity() {
        let (mut a, g, props) = setup(BankSelectPolicy::MinHop);
        let hinted = LinkedCsr::build(&mut a, &g, &props).unwrap();
        let (mut b, g2, pb) = setup(BankSelectPolicy::MinHop);
        let un = LinkedCsr::build_unhinted(&mut b, &g2).unwrap();
        // Identical chain structure: same node count and edge ranges.
        assert_eq!(un.num_nodes(), hinted.num_nodes());
        for (h, u) in hinted.nodes().iter().zip(un.nodes()) {
            assert_eq!((h.vertex, h.lo, h.hi), (u.vertex, u.lo, u.hi));
        }
        // But worse placement: no affinity knowledge to exploit.
        let topo = a.topo();
        let hh = hinted.mean_indirect_hops(topo, &g, &props);
        let hu = un.mean_indirect_hops(topo, &g2, &pb);
        assert!(hh < hu, "hinted ({hh:.2}) must beat unhinted ({hu:.2})");
    }

    #[test]
    fn high_degree_vertex_gets_a_chain() {
        let mut alloc = AffinityAllocator::new(
            MachineConfig::paper_default(),
            BankSelectPolicy::paper_default(),
        );
        let edges: Vec<(u32, u32)> = (1..100u32).map(|t| (0, t)).collect();
        let g = Graph::from_edges(100, &edges);
        let props = VertexArray::new(&mut alloc, 100, 4, AllocMode::Affinity).unwrap();
        let l = LinkedCsr::build(&mut alloc, &g, &props).unwrap();
        assert_eq!(l.chain_of(0).len(), 99usize.div_ceil(14));
        assert!(l.chain_of(1).is_empty());
    }
}
