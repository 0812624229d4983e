//! The logical graph: CSR adjacency with no placement information.
//!
//! Layout crates ([`crate::csr`], [`crate::linked_csr`]) attach banks to this
//! structure; workload generators (in `aff-workloads`) produce the edge
//! lists. Edges are kept sorted by source vertex — the paper notes this is
//! common practice and is what makes long edge runs placeable (Fig 19).

/// Vertex identifier.
pub type VertexId = u32;

/// A directed graph in CSR form. The undirected workloads (bfs, pr) read a
/// symmetric graph ([`Graph::from_undirected_edges`]), so in-neighbors equal
/// out-neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Option<Vec<u32>>,
}

impl Graph {
    /// Build from an edge list (`src`, `dst`) pairs; self-loops kept,
    /// duplicates kept (multigraph semantics, like the GAP generators).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: u32, edges: &[(VertexId, VertexId)]) -> Self {
        Self::build(num_vertices, edges, None)
    }

    /// Build a weighted graph (sssp: weights in `[1, 255]`, Table 3).
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or endpoints are out of range.
    pub fn from_weighted_edges(
        num_vertices: u32,
        edges: &[(VertexId, VertexId)],
        weights: &[u32],
    ) -> Self {
        assert_eq!(edges.len(), weights.len(), "one weight per edge");
        Self::build(num_vertices, edges, Some(weights))
    }

    /// Build the symmetric graph of an undirected edge list: each `(u, v)`
    /// appears in `u`'s list and in `v`'s (a self-loop twice in its
    /// vertex's), duplicates kept. Equals [`Self::from_edges`] over the
    /// edges plus their reverses, built in one pass: both endpoints are
    /// counted, both directions scattered, and each list sorted once.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_undirected_edges(num_vertices: u32, edges: &[(VertexId, VertexId)]) -> Self {
        let mut offsets = degree_offsets(num_vertices, edges, true);
        let mut targets = vec![0 as VertexId; 2 * edges.len()];
        for &(s, d) in edges {
            targets[next_slot(&mut offsets, s)] = d;
            targets[next_slot(&mut offsets, d)] = s;
        }
        restore_offsets(&mut offsets);
        let mut g = Self {
            offsets,
            targets,
            weights: None,
        };
        g.sort_lists();
        g
    }

    fn build(num_vertices: u32, edges: &[(VertexId, VertexId)], w: Option<&[u32]>) -> Self {
        let mut offsets = degree_offsets(num_vertices, edges, false);
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut weights = w.map(|_| vec![0u32; edges.len()]);
        for (i, &(s, d)) in edges.iter().enumerate() {
            let pos = next_slot(&mut offsets, s);
            targets[pos] = d;
            if let (Some(ws), Some(src)) = (&mut weights, w) {
                ws[pos] = src[i];
            }
        }
        restore_offsets(&mut offsets);
        let mut g = Self {
            offsets,
            targets,
            weights,
        };
        g.sort_lists();
        g
    }

    /// Sort each adjacency list by target id — "as is common practice"
    /// (§7.2); consecutive targets of high-degree vertices then share
    /// partition banks, the mechanism behind Fig 19.
    fn sort_lists(&mut self) {
        let mut pairs: Vec<(VertexId, u32)> = Vec::new();
        for v in 0..self.num_vertices() as usize {
            let a = self.offsets[v] as usize;
            let b = self.offsets[v + 1] as usize;
            match &mut self.weights {
                None => self.targets[a..b].sort_unstable(),
                Some(ws) => {
                    pairs.clear();
                    pairs.extend(
                        self.targets[a..b]
                            .iter()
                            .copied()
                            .zip(ws[a..b].iter().copied()),
                    );
                    pairs.sort_unstable_by_key(|&(t, _)| t);
                    for (k, &(t, wt)) in pairs.iter().enumerate() {
                        self.targets[a + k] = t;
                        ws[a + k] = wt;
                    }
                }
            }
        }
    }

    /// This graph with one weight per edge, drawn by `draw` in adjacency
    /// order: vertex by vertex, each list in target order. The edge
    /// structure is kept, so this equals [`Self::from_weighted_edges`] over
    /// the edges listed in that order with the same draws.
    pub fn with_weights(&self, mut draw: impl FnMut() -> u32) -> Graph {
        Graph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: Some((0..self.num_edges()).map(|_| draw()).collect()),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Mean out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / f64::from(self.num_vertices())
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        &self.targets[a..b]
    }

    /// Edge weights of `v`'s out-edges (parallel to [`Self::neighbors`]),
    /// or `None` for an unweighted graph.
    pub fn weights_of(&self, v: VertexId) -> Option<&[u32]> {
        let w = self.weights.as_ref()?;
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        Some(&w[a..b])
    }

    /// Whether edge weights are attached.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Bytes of one edge-array entry: a 4 B target, plus a 4 B weight when
    /// weighted. Every edge layout and its residency use this size.
    pub fn edge_bytes(&self) -> u64 {
        4 + 4 * u64::from(self.is_weighted())
    }

    /// CSR offset of `v`'s first edge (for bank-of-edge math in layouts).
    pub fn offset_of(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Global edge target slice.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }
}

/// CSR offsets of the out-degrees of `edges`, counting `src` of every edge
/// and `dst` too when `both`. The builders use entry `v` as `v`'s fill
/// cursor ([`next_slot`]) and then [`restore_offsets`].
fn degree_offsets(num_vertices: u32, edges: &[(VertexId, VertexId)], both: bool) -> Vec<u64> {
    let n = num_vertices as usize;
    let mut offsets = vec![0u64; n + 1];
    for &(s, d) in edges {
        assert!(
            (s as usize) < n && (d as usize) < n,
            "edge endpoint out of range"
        );
        offsets[s as usize + 1] += 1;
        if both {
            offsets[d as usize + 1] += 1;
        }
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    offsets
}

/// The next free slot of `v`'s list, advancing its cursor.
fn next_slot(cursors: &mut [u64], v: VertexId) -> usize {
    let c = &mut cursors[v as usize];
    let pos = *c as usize;
    *c += 1;
    pos
}

/// After every slot is filled, each cursor sits at its list's end, i.e.
/// the next list's start: shift them back into CSR offsets.
fn restore_offsets(offsets: &mut [u64]) {
    offsets.copy_within(..offsets.len() - 1, 1);
    offsets[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        // The Fig 11 toy graph: 5 vertices, edges of the paper's original CSR
        // (index [0,3,4,6,8], edges [1,2,3, 0, 0,3, 0,2]).
        Graph::from_edges(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 0),
                (2, 0),
                (2, 3),
                (3, 0),
                (3, 2),
            ],
        )
    }

    #[test]
    fn fig11_csr_shape() {
        let g = toy();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0, 3]);
        assert_eq!(g.neighbors(3), &[0, 2]);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.offset_of(3), 6);
    }

    #[test]
    fn degrees() {
        let g = toy();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(4), 0);
        assert!((g.avg_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn weighted_graph_round_trip() {
        let g = Graph::from_weighted_edges(3, &[(0, 1), (0, 2), (2, 1)], &[5, 7, 9]);
        assert!(g.is_weighted());
        assert_eq!(g.weights_of(0), Some(&[5u32, 7][..]));
        assert_eq!(g.weights_of(2), Some(&[9u32][..]));
        assert_eq!(g.weights_of(1), Some(&[][..]));
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let s = Graph::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.neighbors(1), &[0, 2]);
    }

    #[test]
    fn with_weights_keeps_edges_and_draws_in_adjacency_order() {
        let g = toy();
        let mut next = 0;
        let w = g.with_weights(|| {
            next += 1;
            next
        });
        assert_eq!(w.targets(), g.targets());
        assert_eq!(w.weights_of(0), Some(&[1u32, 2, 3][..]));
        assert_eq!(w.weights_of(3), Some(&[7u32, 8][..]));
        assert_eq!(w.weights_of(4), Some(&[][..]));
    }

    #[test]
    fn unweighted_has_no_weights() {
        assert_eq!(toy().weights_of(0), None);
        assert!(!toy().is_weighted());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        Graph::from_edges(2, &[(0, 5)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The one-pass symmetric build equals the naive one: every edge
        /// plus its reverse through the directed builder. Small vertex
        /// counts make self-loops and duplicate edges common.
        #[test]
        fn undirected_build_matches_edges_plus_reverses(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..1000, 0u32..1000), 0..200),
        ) {
            let edges: Vec<(VertexId, VertexId)> =
                raw.iter().map(|&(s, d)| (s % n, d % n)).collect();
            let both: Vec<(VertexId, VertexId)> =
                edges.iter().flat_map(|&(s, d)| [(s, d), (d, s)]).collect();
            prop_assert_eq!(
                Graph::from_undirected_edges(n, &edges),
                Graph::from_edges(n, &both)
            );
        }
    }
}
