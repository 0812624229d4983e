//! Workload input generators: Kronecker (R-MAT) graphs, power-law graphs
//! with controlled average degree, uniform keys, and the matched synthetic
//! stand-ins for the paper's real-world graphs (Table 4).
//!
//! The Kronecker generator follows the GAP/Graph500 recursive construction
//! with the paper's partition probabilities A/B/C = 0.57/0.19/0.19
//! (Table 3). The power-law generator draws out-degrees from a truncated
//! Zipf so Fig 19's average-degree sweep holds |E| fixed while skewing
//! connectivity. Real-world substitutes match |V|, |E| and degree skew of
//! twitch-gamers and gplus — the properties that make them hard to
//! partition — since the originals cannot be downloaded in this offline
//! reproduction (see DESIGN.md §2).

use aff_ds::graph::Graph;
use aff_sim_core::rng::SimRng;

/// Kronecker/R-MAT probabilities (Table 3: A/B/C = 0.57/0.19/0.19).
pub const KRON_A: f64 = 0.57;
/// Probability of the top-right partition.
pub const KRON_B: f64 = 0.19;
/// Probability of the bottom-left partition.
pub const KRON_C: f64 = 0.19;

/// Cumulative R-MAT thresholds: a uniform draw below `KRON_A` picks the
/// top-left quadrant, below `KRON_AB` the top-right, below `KRON_ABC` the
/// bottom-left, and otherwise the bottom-right.
const KRON_AB: f64 = KRON_A + KRON_B;
const KRON_ABC: f64 = KRON_A + KRON_B + KRON_C;

/// Generate a Kronecker graph with `2^scale` vertices and
/// `edge_factor · 2^scale` undirected edges (stored symmetrized).
pub fn kronecker(scale: u32, edge_factor: u32, seed: u64) -> Graph {
    let n = 1u32 << scale;
    let mut rng = SimRng::new(seed);
    let m = (u64::from(edge_factor) * u64::from(n)) as usize;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        // One draw per recursion level, most significant bit first. The
        // quadrant (0 top-left … 3 bottom-right) is the number of
        // cumulative thresholds the draw reaches — three compares, not a
        // branch chain: the draws are random, so branches mispredict.
        let (mut src, mut dst) = (0u32, 0u32);
        for _ in 0..scale {
            let r = rng.unit_f64();
            let quadrant =
                u32::from(r >= KRON_A) + u32::from(r >= KRON_AB) + u32::from(r >= KRON_ABC);
            src = (src << 1) | (quadrant >> 1);
            dst = (dst << 1) | (quadrant & 1);
        }
        edges.push((src, dst));
    }
    // Permute vertex labels so degree does not correlate with id (GAP does
    // the same); otherwise partitioning would be artificially easy.
    let mut perm: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut perm);
    for e in &mut edges {
        e.0 = perm[e.0 as usize];
        e.1 = perm[e.1 as usize];
    }
    Graph::from_undirected_edges(n, &edges)
}

/// Weighted Kronecker for sssp: weights uniform in `[1, 255]` (Table 3).
pub fn kronecker_weighted(scale: u32, edge_factor: u32, seed: u64) -> Graph {
    weight_kronecker(&kronecker(scale, edge_factor, seed), seed)
}

/// Attach the sssp weights of [`kronecker_weighted`] to an already generated
/// plain Kronecker graph: `weight_kronecker(&kronecker(s, f, seed), seed)`
/// equals `kronecker_weighted(s, f, seed)`, so a sweep that needs both
/// inputs generates the edge list once.
pub fn weight_kronecker(plain: &Graph, seed: u64) -> Graph {
    uniform_weights(plain, SimRng::new(seed ^ 0x5550))
}

/// `g` with weights uniform in `[1, 255]`, drawn from `rng` in adjacency
/// order.
fn uniform_weights(g: &Graph, mut rng: SimRng) -> Graph {
    g.with_weights(|| 1 + rng.below(255) as u32)
}

/// Power-law graph: `num_edges` total directed edges over `n` vertices with
/// Zipf(`alpha`)-skewed out-degrees. Used for the Fig 19 degree sweep
/// (fixed |E|, varying `n` ⇒ varying average degree) and the Table 4
/// substitutes. Edge lists are sorted by source (common practice, §7.2).
pub fn power_law(n: u32, num_edges: usize, alpha: f64, seed: u64) -> Graph {
    assert!(n > 1, "need at least two vertices");
    let mut rng = SimRng::new(seed);
    // Zipf ranks for out-degree shares.
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / f64::from(r).powf(alpha)).collect();
    let total: f64 = weights.iter().sum();
    // Assign ranks to random vertices.
    let mut perm: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut edges = Vec::with_capacity(num_edges);
    let mut acc = 0.0f64;
    let mut cum: Vec<f64> = Vec::with_capacity(n as usize);
    for w in &weights {
        acc += w / total;
        cum.push(acc);
    }
    for _ in 0..num_edges {
        let rs = rng.unit_f64();
        let rank = cum.partition_point(|&c| c < rs).min(n as usize - 1);
        let src = perm[rank];
        let dst = rng.below(u64::from(n)) as u32;
        edges.push((src, dst));
    }
    edges.sort_unstable();
    Graph::from_edges(n, &edges)
}

/// Profile of a real-world graph we substitute synthetically (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealWorldProfile {
    /// Dataset name.
    pub name: &'static str,
    /// Vertex count.
    pub vertices: u32,
    /// Edge count.
    pub edges: usize,
    /// Average degree (for reporting; `edges / vertices`).
    pub avg_degree: u32,
}

/// twitch-gamers: 168,114 vertices, 13,595,114 edges, avg degree 81.
pub const TWITCH_GAMERS: RealWorldProfile = RealWorldProfile {
    name: "twitch-gamers",
    vertices: 168_114,
    edges: 13_595_114,
    avg_degree: 81,
};

/// gplus: 107,614 vertices, 13,673,453 edges, avg degree 127.
pub const GPLUS: RealWorldProfile = RealWorldProfile {
    name: "gplus",
    vertices: 107_614,
    edges: 13_673_453,
    avg_degree: 127,
};

/// Synthesize a stand-in for `profile`, scaled down by `1/scale_div` in both
/// |V| and |E| (degree preserved). `scale_div = 1` reproduces the full size.
pub fn real_world(profile: RealWorldProfile, scale_div: u32, seed: u64) -> Graph {
    let n = (profile.vertices / scale_div).max(64);
    let m = profile.edges / scale_div as usize;
    power_law(n, m, 0.8, seed)
}

/// Attach uniform `[1, 255]` weights to every edge of `g` (for sssp on
/// generated graphs that are not already weighted).
pub fn with_uniform_weights(g: &Graph, seed: u64) -> Graph {
    uniform_weights(g, SimRng::new(seed ^ 0x77E1))
}

/// Uniform random `u64` keys.
pub fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kronecker_size_and_symmetry() {
        let g = kronecker(10, 8, 1);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 2 * 8 * 1024);
    }

    #[test]
    fn kronecker_is_skewed() {
        let g = kronecker(12, 16, 2);
        let mut degrees: Vec<u64> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: u64 = degrees[..degrees.len() / 100].iter().sum();
        let total: u64 = degrees.iter().sum();
        assert!(
            top1pct as f64 > total as f64 * 0.1,
            "top 1% of Kronecker vertices should hold >10% of edges"
        );
    }

    #[test]
    fn kronecker_deterministic() {
        let a = kronecker(8, 4, 42);
        let b = kronecker(8, 4, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_kronecker_bounds() {
        let g = kronecker_weighted(8, 4, 3);
        assert!(g.is_weighted());
        for v in 0..g.num_vertices() {
            for &w in g.weights_of(v).unwrap() {
                assert!((1..=255).contains(&w));
            }
        }
    }

    #[test]
    fn weighting_a_plain_kronecker_matches_the_weighted_generator() {
        for scale in [9, 12] {
            for seed in [3, 2023] {
                assert_eq!(
                    weight_kronecker(&kronecker(scale, 16, seed), seed),
                    kronecker_weighted(scale, 16, seed),
                    "scale {scale} seed {seed}"
                );
            }
        }
    }

    /// `g`'s edges and draws listed in adjacency order, through the
    /// tuple-list builder.
    fn weighted_by_edge_list(g: &Graph, mut rng: SimRng) -> Graph {
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        for v in 0..g.num_vertices() {
            for &t in g.neighbors(v) {
                edges.push((v, t));
                weights.push(1 + rng.below(255) as u32);
            }
        }
        Graph::from_weighted_edges(g.num_vertices(), &edges, &weights)
    }

    #[test]
    fn in_place_weights_match_the_edge_list_build() {
        for seed in [1, 5, 2023, 8191] {
            let kron = kronecker(10, 16, seed);
            assert_eq!(
                weight_kronecker(&kron, seed),
                weighted_by_edge_list(&kron, SimRng::new(seed ^ 0x5550)),
                "kronecker seed {seed}"
            );
            let pl = power_law(1 << 10, 1 << 14, 0.8, seed);
            assert_eq!(
                with_uniform_weights(&pl, seed),
                weighted_by_edge_list(&pl, SimRng::new(seed ^ 0x77E1)),
                "power law seed {seed}"
            );
        }
    }

    #[test]
    fn power_law_degree_control() {
        let g = power_law(1 << 12, 1 << 16, 0.8, 7);
        assert_eq!(g.num_edges(), 1 << 16);
        assert!((g.avg_degree() - 16.0).abs() < 0.01);
    }

    #[test]
    fn power_law_is_skewed() {
        let g = power_law(1 << 12, 1 << 16, 0.8, 7);
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg as f64 > g.avg_degree() * 20.0);
    }

    #[test]
    fn real_world_profiles_match_table4() {
        assert_eq!(TWITCH_GAMERS.vertices, 168_114);
        assert_eq!(TWITCH_GAMERS.edges, 13_595_114);
        assert_eq!(GPLUS.avg_degree, 127);
        let g = real_world(TWITCH_GAMERS, 64, 5);
        assert!(
            (g.avg_degree() - 81.0).abs() < 2.0,
            "degree preserved under scaling"
        );
    }

    #[test]
    fn uniform_weights_attach() {
        let g = power_law(256, 1024, 0.8, 3);
        let w = with_uniform_weights(&g, 3);
        assert!(w.is_weighted());
        assert_eq!(w.num_edges(), g.num_edges());
    }

    #[test]
    fn uniform_keys_unique_enough() {
        let ks = uniform_keys(10_000, 11);
        let set: std::collections::HashSet<_> = ks.iter().collect();
        assert_eq!(set.len(), 10_000);
    }
}
