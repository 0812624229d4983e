//! The benchmark suite: Table 3's ten workloads behind one entry point.
//!
//! [`run`] executes a named workload under a [`RunConfig`] and returns the
//! engine metrics (plus per-iteration stats for the frontier algorithms).
//! Input sizes at `scale = 1` are scaled down from Table 3 where the full
//! size would make the complete figure suite take hours (graphs use a
//! 2^14-vertex Kronecker instead of 2^17; pointer workloads divide counts
//! by 4); EXPERIMENTS.md records the exact sizes used per figure, and the
//! `--full` harness flag restores Table 3 exactly.

use crate::affine::{run_stencil, Stencil};
use crate::config::RunConfig;
use crate::gen;
use crate::graphs::{GraphInstance, GraphRun, IterStat};
use crate::pointer::{
    run_bin_tree, run_hash_join, run_link_list, BinTreeParams, HashJoinParams, LinkListParams,
};
use aff_ds::graph::Graph;
use aff_nsc::engine::Metrics;
use std::sync::Arc;

/// The ten workloads of Table 3 (plus explicit push/pull variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadName {
    /// Rodinia pathfinder (affine, 1-D).
    Pathfinder,
    /// Rodinia srad (affine, 2-D).
    Srad,
    /// Rodinia hotspot (affine, 2-D).
    Hotspot,
    /// Rodinia hotspot3D (affine, 3-D).
    Hotspot3D,
    /// PageRank, best direction per system (pull In-Core, push NDC — §6).
    Pr,
    /// PageRank, push only.
    PrPush,
    /// PageRank, pull only.
    PrPull,
    /// BFS with the per-system direction-switching policy (§7.2).
    Bfs,
    /// BFS, push only.
    BfsPush,
    /// BFS, pull only.
    BfsPull,
    /// Single-source shortest paths (weighted Kronecker).
    Sssp,
    /// Linked-list search.
    LinkList,
    /// Hash join probe.
    HashJoin,
    /// Binary-tree lookups.
    BinTree,
}

impl WorkloadName {
    /// Every workload, in declaration order.
    pub const ALL: [WorkloadName; 14] = [
        WorkloadName::Pathfinder,
        WorkloadName::Srad,
        WorkloadName::Hotspot,
        WorkloadName::Hotspot3D,
        WorkloadName::Pr,
        WorkloadName::PrPush,
        WorkloadName::PrPull,
        WorkloadName::Bfs,
        WorkloadName::BfsPush,
        WorkloadName::BfsPull,
        WorkloadName::Sssp,
        WorkloadName::LinkList,
        WorkloadName::HashJoin,
        WorkloadName::BinTree,
    ];

    /// The ten names of Fig 12, in plot order.
    pub const FIG12: [WorkloadName; 10] = [
        WorkloadName::Pathfinder,
        WorkloadName::Hotspot,
        WorkloadName::Srad,
        WorkloadName::Hotspot3D,
        WorkloadName::Pr,
        WorkloadName::Bfs,
        WorkloadName::Sssp,
        WorkloadName::LinkList,
        WorkloadName::HashJoin,
        WorkloadName::BinTree,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadName::Pathfinder => "pathfinder",
            WorkloadName::Srad => "srad",
            WorkloadName::Hotspot => "hotspot",
            WorkloadName::Hotspot3D => "hotspot3D",
            WorkloadName::Pr => "pr",
            WorkloadName::PrPush => "pr_push",
            WorkloadName::PrPull => "pr_pull",
            WorkloadName::Bfs => "bfs",
            WorkloadName::BfsPush => "bfs_push",
            WorkloadName::BfsPull => "bfs_pull",
            WorkloadName::Sssp => "sssp",
            WorkloadName::LinkList => "link_list",
            WorkloadName::HashJoin => "hash_join",
            WorkloadName::BinTree => "bin_tree",
        }
    }

    /// The workload whose [`Self::label`] is `s`, ignoring ASCII case (so
    /// `hotspot3d` names [`WorkloadName::Hotspot3D`]).
    pub fn parse(s: &str) -> Option<WorkloadName> {
        Self::ALL
            .into_iter()
            .find(|w| w.label().eq_ignore_ascii_case(s))
    }

    /// Whether this workload records per-iteration stats.
    pub fn is_frontier(&self) -> bool {
        matches!(
            self,
            WorkloadName::Bfs | WorkloadName::BfsPush | WorkloadName::BfsPull | WorkloadName::Sssp
        )
    }
}

/// Result of one suite run.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Engine metrics.
    pub metrics: Metrics,
    /// Per-iteration stats for frontier workloads (else empty).
    pub iters: Vec<IterStat>,
}

impl From<GraphRun> for SuiteRun {
    fn from(r: GraphRun) -> Self {
        SuiteRun {
            metrics: r.metrics,
            iters: r.iters,
        }
    }
}

impl From<Metrics> for SuiteRun {
    fn from(metrics: Metrics) -> Self {
        SuiteRun {
            metrics,
            iters: Vec::new(),
        }
    }
}

/// Base Kronecker scale at `RunConfig::scale == 1` (2^14 vertices; Table 3
/// uses 2^17 — pass `--full` in the harness or `scale = 8`).
pub const BASE_KRON_SCALE: u32 = 14;
/// Kronecker edge factor (Table 3: 4M edges / 128k vertices = 32 directed,
/// 16 undirected before symmetrization).
pub const KRON_EDGE_FACTOR: u32 = 16;

/// The Kronecker input for graph workloads at the given scale multiplier.
pub fn kron_input(scale: u32, seed: u64) -> Graph {
    gen::kronecker(BASE_KRON_SCALE + log2(scale), KRON_EDGE_FACTOR, seed)
}

/// The weighted Kronecker input for sssp.
pub fn kron_weighted_input(scale: u32, seed: u64) -> Graph {
    gen::kronecker_weighted(BASE_KRON_SCALE + log2(scale), KRON_EDGE_FACTOR, seed)
}

fn log2(scale: u32) -> u32 {
    31 - scale.max(1).leading_zeros()
}

/// The stencil affine workload `name` runs at input scale `scale`.
///
/// # Panics
///
/// Panics when `name` is not an affine workload.
pub fn stencil_for(name: WorkloadName, scale: u64) -> Stencil {
    match name {
        WorkloadName::Pathfinder => Stencil::pathfinder(1_500_000 * scale),
        WorkloadName::Srad => Stencil::srad(1024 * scale, 2048),
        WorkloadName::Hotspot => Stencil::hotspot(2048 * scale, 1024),
        WorkloadName::Hotspot3D => Stencil::hotspot3d(256, 1024, 8 * scale),
        _ => unreachable!("not an affine workload"),
    }
}

/// The generated input a graph workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphInput {
    /// The plain Kronecker graph ([`kron_input`]).
    Plain,
    /// The weighted Kronecker graph ([`kron_weighted_input`]).
    Weighted,
}

impl WorkloadName {
    /// The graph input this workload reads; `None` for the affine and
    /// pointer workloads, which build their own structures.
    pub fn graph_input(&self) -> Option<GraphInput> {
        match self {
            WorkloadName::Pr
            | WorkloadName::PrPush
            | WorkloadName::PrPull
            | WorkloadName::Bfs
            | WorkloadName::BfsPush
            | WorkloadName::BfsPull => Some(GraphInput::Plain),
            WorkloadName::Sssp => Some(GraphInput::Weighted),
            _ => None,
        }
    }
}

/// Generate the graph `name` reads under `cfg` (`None` for non-graph
/// workloads). The input depends only on `cfg.scale` and `cfg.seed`, so runs
/// that differ in system, machine or hints can share one generated copy
/// through [`run_graph`].
pub fn gen_input(name: WorkloadName, cfg: &RunConfig) -> Option<Graph> {
    name.graph_input().map(|input| match input {
        GraphInput::Plain => kron_input(cfg.scale, cfg.seed),
        GraphInput::Weighted => kron_weighted_input(cfg.scale, cfg.seed),
    })
}

/// Run `name` under `cfg`.
///
/// Graph workloads generate their input and go through [`run_graph`].
///
/// # Panics
///
/// Panics on allocator failure (a harness bug, not an input condition).
pub fn run(name: WorkloadName, cfg: &RunConfig) -> SuiteRun {
    if let Some(g) = gen_input(name, cfg) {
        return run_graph(name, cfg, Arc::new(g));
    }
    let scale = u64::from(cfg.scale);
    match name {
        WorkloadName::Pathfinder
        | WorkloadName::Srad
        | WorkloadName::Hotspot
        | WorkloadName::Hotspot3D => run_stencil(&stencil_for(name, scale), cfg).into(),
        WorkloadName::LinkList => {
            let p = LinkListParams {
                lists: 1000 * cfg.scale as usize,
                nodes_per_list: 512,
            };
            run_link_list(p, cfg).into()
        }
        WorkloadName::HashJoin => {
            let p = HashJoinParams {
                build_keys: 64 * 1024 * cfg.scale as usize,
                probe_keys: 128 * 1024 * cfg.scale as usize,
                buckets: 32 * 1024 * u64::from(cfg.scale),
                hit_rate: 1.0 / 8.0,
            };
            run_hash_join(p, cfg).into()
        }
        WorkloadName::BinTree => {
            let p = BinTreeParams {
                nodes: 32 * 1024 * cfg.scale as usize,
                lookups: 128 * 1024 * cfg.scale as usize,
            };
            run_bin_tree(p, cfg).into()
        }
        _ => unreachable!("graph workloads returned above"),
    }
}

/// Run graph workload `name` under `cfg` on `graph`, the input
/// [`gen_input`] would generate for it (callers that run one input under
/// several configurations generate it once and share the `Arc`).
///
/// # Panics
///
/// Panics when `name` is not a graph workload, and on allocator failure.
pub fn run_graph(name: WorkloadName, cfg: &RunConfig, graph: Arc<Graph>) -> SuiteRun {
    GraphInstance::new(graph, cfg).run(name).into()
}

/// Run `name` on `input` when one is given (a graph workload's shared input,
/// see [`run_graph`]), else generate as [`run`] does.
pub fn run_on(name: WorkloadName, cfg: &RunConfig, input: Option<Arc<Graph>>) -> SuiteRun {
    match input {
        Some(g) => run_graph(name, cfg, g),
        None => run(name, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    #[test]
    fn labels_cover_fig12() {
        let labels: Vec<&str> = WorkloadName::FIG12.iter().map(|w| w.label()).collect();
        assert_eq!(
            labels,
            vec![
                "pathfinder",
                "hotspot",
                "srad",
                "hotspot3D",
                "pr",
                "bfs",
                "sssp",
                "link_list",
                "hash_join",
                "bin_tree"
            ]
        );
    }

    #[test]
    fn every_label_parses_back_to_its_workload() {
        for w in WorkloadName::ALL {
            assert_eq!(WorkloadName::parse(w.label()), Some(w), "{}", w.label());
        }
        // `ALL` lists every variant once, in declaration order. A new
        // variant breaks this exhaustive match: give it the next ordinal,
        // add it to `ALL` and raise the count.
        let ordinal = |w: WorkloadName| match w {
            WorkloadName::Pathfinder => 0,
            WorkloadName::Srad => 1,
            WorkloadName::Hotspot => 2,
            WorkloadName::Hotspot3D => 3,
            WorkloadName::Pr => 4,
            WorkloadName::PrPush => 5,
            WorkloadName::PrPull => 6,
            WorkloadName::Bfs => 7,
            WorkloadName::BfsPush => 8,
            WorkloadName::BfsPull => 9,
            WorkloadName::Sssp => 10,
            WorkloadName::LinkList => 11,
            WorkloadName::HashJoin => 12,
            WorkloadName::BinTree => 13,
        };
        let ordinals: Vec<usize> = WorkloadName::ALL.into_iter().map(ordinal).collect();
        assert_eq!(ordinals, (0..14).collect::<Vec<_>>());
        assert_eq!(
            WorkloadName::parse("hotspot3d"),
            Some(WorkloadName::Hotspot3D)
        );
        assert_eq!(WorkloadName::parse("nosuch"), None);
        assert_eq!(WorkloadName::parse(""), None);
    }

    #[test]
    fn log2_scaling() {
        assert_eq!(log2(1), 0);
        assert_eq!(log2(2), 1);
        assert_eq!(log2(8), 3);
    }

    #[test]
    fn frontier_flags() {
        assert!(WorkloadName::Bfs.is_frontier());
        assert!(WorkloadName::Sssp.is_frontier());
        assert!(!WorkloadName::Pr.is_frontier());
        assert!(!WorkloadName::LinkList.is_frontier());
    }

    #[test]
    fn graph_inputs_cover_exactly_the_graph_workloads() {
        assert_eq!(WorkloadName::Sssp.graph_input(), Some(GraphInput::Weighted));
        assert_eq!(WorkloadName::PrPull.graph_input(), Some(GraphInput::Plain));
        assert_eq!(WorkloadName::BfsPush.graph_input(), Some(GraphInput::Plain));
        assert_eq!(WorkloadName::Srad.graph_input(), None);
        assert_eq!(WorkloadName::HashJoin.graph_input(), None);
    }

    /// FNV-1a over every vertex's degree, targets and weights.
    fn graph_digest(g: &Graph) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
        for v in 0..g.num_vertices() {
            eat(g.degree(v));
            for &t in g.neighbors(v) {
                eat(u64::from(t));
            }
            for &w in g.weights_of(v).unwrap_or(&[]) {
                eat(u64::from(w));
            }
        }
        h
    }

    /// The generated inputs are pinned, so a change to the generators'
    /// draw order fails here by name, not only in the figure bytes.
    #[test]
    fn kron_inputs_are_pinned() {
        let plain = kron_input(1, 2023);
        assert_eq!(plain.num_edges(), 524_288);
        assert_eq!(graph_digest(&plain), 0x1e6a_c2a2_4d73_d973);
        let weighted = kron_weighted_input(1, 2023);
        assert_eq!(weighted.num_edges(), 524_288);
        assert_eq!(graph_digest(&weighted), 0x709e_92fa_7fdf_556d);
    }

    #[test]
    fn run_graph_on_a_shared_input_matches_run() {
        use crate::gen;
        // One generated input per kind, shared across systems as a sweep
        // plan shares it; the weighted one derived from the plain one.
        let seed = 5;
        let plain = Arc::new(kron_input(1, seed));
        let weighted = Arc::new(gen::weight_kronecker(&plain, seed));
        let systems = [
            SystemConfig::InCore,
            SystemConfig::NearL3,
            SystemConfig::aff_alloc_default(),
        ];
        for w in [
            WorkloadName::Pr,
            WorkloadName::PrPush,
            WorkloadName::Bfs,
            WorkloadName::Sssp,
        ] {
            let input = match w.graph_input() {
                Some(GraphInput::Weighted) => &weighted,
                _ => &plain,
            };
            for s in systems {
                let cfg = RunConfig::new(s).with_seed(seed);
                let fresh = run(w, &cfg).metrics;
                let shared = run_graph(w, &cfg, Arc::clone(input)).metrics;
                assert_eq!(
                    format!("{fresh:?}"),
                    format!("{shared:?}"),
                    "{} / {}",
                    w.label(),
                    s.label()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a graph workload")]
    fn run_graph_rejects_non_graph_workloads() {
        let cfg = RunConfig::new(SystemConfig::NearL3);
        let _ = run_graph(WorkloadName::LinkList, &cfg, Arc::new(kron_input(1, 1)));
    }

    #[test]
    fn pr_picks_direction_by_system() {
        // Smoke test at a tiny scale: both paths execute.
        let mut cfg = RunConfig::new(SystemConfig::InCore).with_seed(3);
        cfg.machine = aff_sim_core::config::MachineConfig::paper_default();
        // Shrink the input via a tiny Kronecker by overriding scale = 1 and
        // relying on BASE_KRON_SCALE being small enough for tests.
        let r = run(WorkloadName::Pr, &cfg);
        assert!(r.metrics.cycles > 0);
    }
}
