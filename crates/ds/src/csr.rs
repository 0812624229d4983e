//! Baseline CSR layout and the Fig 6 chunked-placement oracle.
//!
//! `In-Core` and `Near-L3` run graph kernels on the classic compressed
//! sparse row format: an index array and one big edge array, both heap
//! allocated (default 1 KiB interleave). Fig 6 measures how far *coarse*
//! layout control could go: break the edge array into chunks and let an
//! oracle map each chunk to the bank minimizing indirect traffic, subject to
//! a 2% load-imbalance cap (the paper's footnote 2). That oracle is
//! [`ChunkedCsr`]; its diminishing returns at page granularity are the
//! motivation for the linked CSR format.
//!
//! The oracle scores banks with the allocator's own Eq-4 hop-sum kernel,
//! [`HopSums`] over [`AxisHops`]: a chunk's hop sum to every bank costs one
//! X row and one Y row per edge, plus one add per bank.

use crate::graph::Graph;
use crate::layout::{AllocMode, VertexArray};
use aff_noc::topology::{AxisHops, Topology};
use affinity_alloc::lanes::{Eq4Candidate, HopSums};
use affinity_alloc::{AffinityAllocator, AllocError};

/// The classic CSR arrays with per-edge bank placement.
#[derive(Debug, Clone)]
pub struct CsrLayout {
    index: VertexArray,
    edges: VertexArray,
}

impl CsrLayout {
    /// Allocate index + edge arrays for `graph`. `mode` controls the vertex
    /// *index* array; the edge array always lives on the heap — CSR gives the
    /// allocator no per-edge freedom, which is the format's whole limitation.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn build(
        alloc: &mut AffinityAllocator,
        graph: &Graph,
        mode: AllocMode,
    ) -> Result<Self, AllocError> {
        let n = u64::from(graph.num_vertices());
        let index = VertexArray::new(alloc, n + 1, 8, mode)?;
        let elem = graph.edge_bytes();
        let edges = VertexArray::new(alloc, graph.num_edges() as u64, elem, AllocMode::Baseline)?;
        Ok(Self { index, edges })
    }

    /// The index array.
    pub fn index(&self) -> &VertexArray {
        &self.index
    }

    /// The edge array.
    pub fn edges(&self) -> &VertexArray {
        &self.edges
    }

    /// Bank holding edge slot `e` (global CSR position).
    pub fn bank_of_edge(&self, e: u64) -> u32 {
        self.edges.bank_of(e)
    }
}

/// Fig 6's oracle: the edge array split into fixed-size chunks, each freely
/// mapped to a bank to minimize indirect traffic, with load capped at
/// `1 + imbalance` times the mean.
#[derive(Debug, Clone)]
pub struct ChunkedCsr {
    chunk_edges: usize,
    chunk_banks: Vec<u32>,
}

impl ChunkedCsr {
    /// Place `graph`'s edges in chunks of `chunk_bytes`, given the bank of
    /// every vertex (`vertex_banks`) that indirect accesses will target.
    /// `imbalance` is the allowed fractional overload per bank (paper: 0.02).
    ///
    /// A `chunk_bytes` equal to the edge size gives the paper's `Ind-Ideal`
    /// (every edge exactly at its target, no load cap binding in practice).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is smaller than one edge entry, or if a
    /// chunk's hop total could overflow `u32` (`chunk_edges × (grid_x +
    /// grid_y)` must fit).
    pub fn build(
        topo: Topology,
        graph: &Graph,
        vertex_banks: &[u32],
        chunk_bytes: u64,
        imbalance: f64,
    ) -> Self {
        let edge_bytes = graph.edge_bytes();
        assert!(chunk_bytes >= edge_bytes, "chunk smaller than one edge");
        let chunk_edges = (chunk_bytes / edge_bytes) as usize;
        let desired = desired_banks(topo, graph.targets(), vertex_banks, chunk_edges);
        Self {
            chunk_edges,
            chunk_banks: place(desired, topo.num_banks(), imbalance),
        }
    }

    /// Bank of global edge slot `e`.
    pub fn bank_of_edge(&self, e: u64) -> u32 {
        self.chunk_banks[(e as usize) / self.chunk_edges]
    }
}

/// Each chunk's `(chunk, desired bank, saving)`, in chunk order: the bank
/// with the least hop total to the chunk's targets (lowest id on ties), and
/// the mean total over all banks minus that least one, so the rebalancer
/// evicts the least-profitable chunks first. Every total, and their sum
/// over the banks, is an integer below 2^53, so the saving does not depend
/// on the order the hops are added in. An edgeless graph is one empty
/// chunk.
fn desired_banks(
    topo: Topology,
    targets: &[u32],
    vertex_banks: &[u32],
    chunk_edges: usize,
) -> Vec<(usize, u32, f64)> {
    let axis = AxisHops::new(&topo);
    assert!(
        chunk_edges
            .checked_mul(axis.grid_x() + axis.grid_y())
            .is_some_and(|m| u32::try_from(m).is_ok()),
        "chunk hop totals overflow u32"
    );
    let banks = topo.num_banks();
    // Candidate i is bank i, so the nearest index is the desired bank.
    let cands: Vec<Eq4Candidate> = (0..banks).map(|b| Eq4Candidate::new(&axis, b, 1)).collect();
    let mut hops = HopSums::default();
    let mut chunk_targets = Vec::with_capacity(chunk_edges.min(targets.len()));
    (0..targets.len().div_ceil(chunk_edges).max(1))
        .map(|c| {
            let lo = c * chunk_edges;
            let hi = (lo + chunk_edges).min(targets.len());
            chunk_targets.clear();
            chunk_targets.extend(targets[lo..hi].iter().map(|&t| vertex_banks[t as usize]));
            hops.compute(&axis, &cands, &chunk_targets);
            let best = hops.near();
            let total: u64 = hops.sums().iter().map(|&s| u64::from(s)).sum();
            let saving = total as f64 / f64::from(banks) - f64::from(hops.sums()[best]);
            (c, best as u32, saving)
        })
        .collect()
}

/// The bank of every chunk: chunks with the largest saving claim their
/// desired bank first, up to `1 + imbalance` times the mean load per bank;
/// the rest spill to the least-occupied bank (paper footnote 2).
fn place(mut desired: Vec<(usize, u32, f64)>, banks: u32, imbalance: f64) -> Vec<u32> {
    let num_chunks = desired.len();
    let cap = ((num_chunks as f64 / f64::from(banks)) * (1.0 + imbalance)).ceil() as usize;
    let cap = cap.max(1);
    desired.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite savings"));
    let mut load = vec![0usize; banks as usize];
    let mut chunk_banks = vec![0u32; num_chunks];
    let mut overflow = Vec::new();
    for &(c, want, _) in &desired {
        if load[want as usize] < cap {
            load[want as usize] += 1;
            chunk_banks[c] = want;
        } else {
            overflow.push(c);
        }
    }
    for c in overflow {
        let (b, _) = load
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .expect("banks exist");
        load[b] += 1;
        chunk_banks[c] = b as u32;
    }
    chunk_banks
}

/// The chunk scoring [`ChunkedCsr::build`] replaced, kept as the
/// independent reference that the exactness tests and the `hotpath`
/// baseline check it against.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// The scoring loop `build` ran before it moved onto `HopSums`: one
    /// `manhattan` call per (edge, bank), lowest bank on ties.
    pub fn manhattan_desired(
        topo: Topology,
        graph: &Graph,
        vertex_banks: &[u32],
        chunk_edges: usize,
    ) -> Vec<(usize, u32, f64)> {
        let targets = graph.targets();
        let num_chunks = targets.len().div_ceil(chunk_edges).max(1);
        let banks = topo.num_banks();
        let mut desired = Vec::with_capacity(num_chunks);
        for c in 0..num_chunks {
            let lo = c * chunk_edges;
            let hi = (lo + chunk_edges).min(targets.len());
            let slice = &targets[lo..hi];
            let (mut best_bank, mut best_cost) = (0u32, f64::INFINITY);
            let mut avg_cost = 0.0;
            for b in 0..banks {
                let cost: u64 = slice
                    .iter()
                    .map(|&t| u64::from(topo.manhattan(b, vertex_banks[t as usize])))
                    .sum();
                avg_cost += cost as f64;
                if (cost as f64) < best_cost {
                    best_cost = cost as f64;
                    best_bank = b;
                }
            }
            avg_cost /= f64::from(banks);
            desired.push((c, best_bank, avg_cost - best_cost));
        }
        desired
    }

    /// Each chunk's bank under [`manhattan_desired`] scoring and the
    /// build's own load cap and spill.
    pub fn manhattan_chunk_banks(
        topo: Topology,
        graph: &Graph,
        vertex_banks: &[u32],
        chunk_edges: usize,
        imbalance: f64,
    ) -> Vec<u32> {
        let desired = manhattan_desired(topo, graph, vertex_banks, chunk_edges);
        place(desired, topo.num_banks(), imbalance)
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

    fn ring(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn csr_layout_builds() {
        let mut a = alloc();
        let g = ring(1024);
        let c = CsrLayout::build(&mut a, &g, AllocMode::Baseline).unwrap();
        assert_eq!(c.index().len(), 1025);
        assert_eq!(c.edges().len(), 1024);
        assert!(c.bank_of_edge(0) < 64);
    }

    #[test]
    fn ideal_chunks_sit_exactly_at_targets() {
        let topo = Topology::new(8, 8);
        let g = ring(4096);
        // Vertex v lives at bank v % 64.
        let vb: Vec<u32> = (0..4096u32).map(|v| v % 64).collect();
        let placed = ChunkedCsr::build(topo, &g, &vb, 4, 1e9);
        // Each 1-edge chunk should land on its target's bank.
        for (e, &t) in g.targets().iter().enumerate().step_by(97) {
            assert_eq!(placed.bank_of_edge(e as u64), vb[t as usize]);
        }
    }

    #[test]
    fn load_cap_binds() {
        let topo = Topology::new(8, 8);
        // Every edge points at vertex 0 ⇒ every chunk wants bank 0.
        let edges: Vec<(u32, u32)> = (0..4096u32).map(|v| (v, 0)).collect();
        let g = Graph::from_edges(4096, &edges);
        let vb = vec![0u32; 4096];
        let placed = ChunkedCsr::build(topo, &g, &vb, 64, 0.02);
        // 256 chunks over 64 banks: cap = ceil(4 * 1.02) = 5 chunks per bank.
        let mut load = [0u32; 64];
        for &b in &placed.chunk_banks {
            load[b as usize] += 1;
        }
        assert!(
            load.iter().all(|&l| l <= 5),
            "cap must spread the chunks, got {load:?}"
        );
    }

    #[test]
    fn coarser_chunks_place_worse() {
        let topo = Topology::new(8, 8);
        let g = ring(8192);
        let vb: Vec<u32> = (0..8192u32).map(|v| (v / 128) % 64).collect();
        let hops = |chunk_bytes: u64| -> u64 {
            let placed = ChunkedCsr::build(topo, &g, &vb, chunk_bytes, 0.02);
            g.targets()
                .iter()
                .enumerate()
                .map(|(e, &t)| {
                    u64::from(topo.manhattan(placed.bank_of_edge(e as u64), vb[t as usize]))
                })
                .sum()
        };
        let fine = hops(64);
        let coarse = hops(4096);
        assert!(
            fine <= coarse,
            "finer chunks must not increase indirect hops"
        );
    }

    #[test]
    #[should_panic(expected = "chunk smaller")]
    fn tiny_chunks_rejected() {
        let topo = Topology::new(2, 2);
        let g = ring(8);
        ChunkedCsr::build(topo, &g, &[0; 8], 2, 0.02);
    }

    #[test]
    #[should_panic(expected = "overflow u32")]
    fn chunks_whose_hop_totals_overflow_u32_are_rejected() {
        let topo = Topology::new(2, 2);
        let g = ring(8);
        ChunkedCsr::build(topo, &g, &[0; 8], 4 << 31, 0.02);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aff_sim_core::config::{BankOrder, TopologyKind};
    use proptest::prelude::*;

    /// `build` agrees with the reference scoring chunk by chunk, bit for
    /// bit, and places every edge where the reference scores place it.
    fn assert_matches_reference(
        topo: Topology,
        graph: &Graph,
        vertex_banks: &[u32],
        chunk_edges: usize,
        imbalance: f64,
    ) {
        let want = reference::manhattan_desired(topo, graph, vertex_banks, chunk_edges);
        let got = desired_banks(topo, graph.targets(), vertex_banks, chunk_edges);
        let bits = |d: &[(usize, u32, f64)]| -> Vec<(usize, u32, u64)> {
            d.iter().map(|&(c, b, s)| (c, b, s.to_bits())).collect()
        };
        assert_eq!(
            bits(&got),
            bits(&want),
            "{topo:?} chunk_edges={chunk_edges}"
        );
        let chunk_bytes = chunk_edges as u64 * graph.edge_bytes();
        let placed = ChunkedCsr::build(topo, graph, vertex_banks, chunk_bytes, imbalance);
        let want_banks =
            reference::manhattan_chunk_banks(topo, graph, vertex_banks, chunk_edges, imbalance);
        for e in 0..graph.num_edges() {
            assert_eq!(
                placed.bank_of_edge(e as u64),
                want_banks[e / chunk_edges],
                "{topo:?} chunk_edges={chunk_edges} edge {e}"
            );
        }
    }

    /// Mesh, torus and concentrated mesh, each row-major and snake.
    fn shapes(x: u32, y: u32) -> Vec<Topology> {
        let mut out = Vec::new();
        for kind in [TopologyKind::Mesh, TopologyKind::Torus, TopologyKind::CMesh] {
            for order in [BankOrder::RowMajor, BankOrder::Snake] {
                out.push(Topology::with_kind(x, y, order, kind));
            }
        }
        out
    }

    /// Every shape on a non-square grid, chunk sizes from one edge to
    /// 1,024, weighted and unweighted, an edgeless graph, and a skewed
    /// layout under which the 2% cap binds.
    #[test]
    fn fixed_shapes_match_the_manhattan_scoring() {
        let edges: Vec<(u32, u32)> = (0..3000u32).map(|i| (i % 300, (i * 7 + 3) % 300)).collect();
        let plain = Graph::from_edges(300, &edges);
        let mut w = 0;
        let weighted = plain.with_weights(|| {
            w += 1;
            w
        });
        let edgeless = Graph::from_edges(300, &[]);
        for topo in shapes(6, 4) {
            let banks = topo.num_banks();
            let spread: Vec<u32> = (0..300u32).map(|v| (v * 5) % banks).collect();
            let skewed: Vec<u32> = (0..300u32).map(|v| v % 3).collect();
            for g in [&plain, &weighted, &edgeless] {
                for chunk_edges in [1, 3, 16, 1024] {
                    assert_matches_reference(topo, g, &spread, chunk_edges, 0.02);
                    assert_matches_reference(topo, g, &skewed, chunk_edges, 0.02);
                }
            }
        }
    }

    proptest! {
        /// Random shapes, graphs, layouts, chunk sizes and caps.
        #[test]
        fn build_matches_the_manhattan_scoring(
            (shape, x, y) in (0usize..6, 1u32..6, 1u32..6),
            (n, weighted) in (1u32..200, any::<bool>()),
            raw in proptest::collection::vec((0u32..1000, 0u32..1000), 0..2000),
            (spread, log, odd) in (1u32..64, 0u32..11, any::<bool>()),
            imbalance in 0.0f64..0.5,
        ) {
            // CMesh needs even dimensions.
            let topo = shapes(2 * x, 2 * y)[shape];
            let edges: Vec<(u32, u32)> = raw.iter().map(|&(s, d)| (s % n, d % n)).collect();
            let mut g = Graph::from_edges(n, &edges);
            if weighted {
                g = g.with_weights(|| 1);
            }
            let banks = topo.num_banks();
            let vb: Vec<u32> = (0..n).map(|v| (v * 31) % spread.min(banks)).collect();
            let chunk_edges = if odd && log > 0 { (1 << log) - 1 } else { 1 << log };
            assert_matches_reference(topo, &g, &vb, chunk_edges, imbalance);
        }
    }
}
