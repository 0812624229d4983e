//! Graph workloads: pr_push, pr_pull, bfs (push / pull / switching) and
//! sssp — the linked-CSR family of Table 3.
//!
//! Layouts per system configuration:
//!
//! * `In-Core` / `Near-L3`: classic CSR on the heap, one global work queue.
//! * `Aff-Alloc`: partitioned vertex properties (Fig 9), **linked CSR**
//!   (Fig 11) placed by the allocator's bank-select policy, and a spatially
//!   distributed queue.
//!
//! The executors run the *real* algorithms on the logical graph (BFS
//! parents are genuinely discovered, SSSP distances genuinely relax) while
//! charging every memory event to the [`SimEngine`]; Fig 17/18's
//! per-iteration statistics fall out of the traversal itself.

use crate::config::{declare_region, HintMode, RunConfig, SystemConfig};
use crate::suite::WorkloadName;
use aff_ds::csr::{ChunkedCsr, CsrLayout};
use aff_ds::graph::Graph;
use aff_ds::layout::{AllocMode, VertexArray};
use aff_ds::linked_csr::LinkedCsr;
use aff_ds::pqueue::SpatialPriorityQueue;
use aff_ds::queue::{GlobalQueue, SpatialQueue};
use aff_nsc::engine::{Metrics, SimEngine};
use aff_sim_core::config::CACHE_LINE;
use aff_sim_core::mine::RegionKind;
use aff_sim_core::trace::Event;
use affinity_alloc::{AffinityAllocator, InferredHint};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Probes already in flight when a pull-scan's dynamic break resolves.
/// Both the OOO core (branch-predicted loop exit, ROB run-ahead) and the
/// decoupled stream engine (§2.2: streams run ahead of the consuming
/// computation) issue a batch of speculative probes before the first
/// visited-parent answer can stop the scan.
pub const PULL_SPECULATION: usize = 8;

/// A suitable BFS/SSSP source: the highest-degree vertex (GAP samples
/// non-isolated sources; vertex 0 of a permuted Kronecker graph is often
/// isolated).
pub fn pick_source(g: &Graph) -> u32 {
    (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

/// Traversal direction of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Top-down: propagate updates to out-neighbors with atomics.
    Push,
    /// Bottom-up: query in-neighbors and reduce.
    Pull,
}

/// Per-iteration BFS statistics (Fig 17/18).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterStat {
    /// Direction chosen.
    pub dir: Direction,
    /// Vertices newly visited during this iteration ("Active Nodes").
    pub active: u64,
    /// Total visited after this iteration ("Visited Nodes").
    pub visited: u64,
    /// Out-edges of the vertices activated this iteration ("Scout Edges").
    pub scout_edges: u64,
    /// Edges examined while executing the iteration (time proxy, Fig 18).
    pub examined_edges: u64,
}

/// Result of a graph-workload run.
#[derive(Debug, Clone)]
pub struct GraphRun {
    /// Engine metrics.
    pub metrics: Metrics,
    /// Per-iteration stats (BFS and SSSP record these).
    pub iters: Vec<IterStat>,
}

/// Direction-selection policy for BFS (§7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionPolicy {
    /// Always push.
    PushOnly,
    /// Always pull (after the first iteration, which must push from the
    /// source).
    PullOnly,
    /// GAP's heuristic: push→pull when scout edges exceed |E|/14; pull→push
    /// when awake vertices drop below |V|/24.
    GapSwitch,
    /// The paper's Aff-Alloc policy: push→pull when visited > 40% *and*
    /// scout edges > 6%; pull→push when awake < 25% (§7.2).
    AffSwitch,
}

impl DirectionPolicy {
    /// The default policy for a system configuration.
    pub fn default_for(system: SystemConfig) -> Self {
        match system {
            SystemConfig::AffAlloc(_) => DirectionPolicy::AffSwitch,
            _ => DirectionPolicy::GapSwitch,
        }
    }

    fn choose(
        &self,
        prev: Direction,
        visited: u64,
        awake: u64,
        scout_edges: u64,
        n: u64,
        m: u64,
    ) -> Direction {
        match self {
            DirectionPolicy::PushOnly => Direction::Push,
            DirectionPolicy::PullOnly => Direction::Pull,
            DirectionPolicy::GapSwitch => match prev {
                Direction::Push if scout_edges > m / 14 => Direction::Pull,
                Direction::Pull if awake < n / 24 => Direction::Push,
                d => d,
            },
            DirectionPolicy::AffSwitch => match prev {
                Direction::Push if visited * 100 > n * 40 && scout_edges * 100 > m * 6 => {
                    Direction::Pull
                }
                Direction::Pull if awake * 100 < n * 25 => Direction::Push,
                d => d,
            },
        }
    }
}

/// How edges are placed.
enum EdgeLayout {
    Csr(CsrLayout),
    /// Fig 6's oracle-chunked CSR (bank per chunk, edges still contiguous).
    Chunked(ChunkedCsr),
    Linked(LinkedCsr),
}

enum QueueKind {
    Global(GlobalQueue),
    Spatial(SpatialQueue),
}

/// A fully laid-out graph-workload instance.
pub struct GraphInstance {
    /// Shared, not owned: a sweep lays out one generated input under many
    /// configurations, and layout only reads it.
    graph: Arc<Graph>,
    props: VertexArray,
    edges: EdgeLayout,
    queue: QueueKind,
    system: SystemConfig,
    engine: SimEngine,
    alloc: AffinityAllocator,
    /// Reusable scratch for [`Self::scan_edges_prefix`]: callers take it,
    /// iterate, and put it back, so the per-vertex edge sweep never
    /// allocates after warm-up.
    edge_scratch: Vec<(u32, u32)>,
    /// Same for the per-vertex weight expansion in the SSSP kernels.
    weight_scratch: Vec<u32>,
    /// Where this instance's hints came from (stamped onto the metrics).
    hints: HintMode,
    /// The run records into a co-access miner: emit sampled ProfileTouch
    /// events.
    mining: bool,
    /// Sample every `mine_stride`-th vertex's edge scan when mining.
    mine_stride: u32,
}

impl GraphInstance {
    /// Lay out `graph` per `cfg` and prepare an engine.
    ///
    /// Region ordinals under the affinity system are stable across hint
    /// modes — 0 = the property array, 1 = the linked-CSR edge nodes — so a
    /// profile mined from an unhinted run keys the annotated structures.
    ///
    /// Takes an owned [`Graph`] or an `Arc<Graph>` shared with other runs.
    pub fn new(graph: impl Into<Arc<Graph>>, cfg: &RunConfig) -> Self {
        let graph = graph.into();
        let mut alloc =
            AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed);
        let n = u64::from(graph.num_vertices());
        let (edges, queue, props) = if cfg.system.uses_affinity_alloc() {
            let props = match &cfg.hints {
                HintMode::Annotated => {
                    VertexArray::new(&mut alloc, n, 8, AllocMode::Affinity).expect("prop array")
                }
                HintMode::NoHints => {
                    VertexArray::new(&mut alloc, n, 8, AllocMode::Unhinted).expect("prop array")
                }
                HintMode::Inferred(p) => {
                    let hint = p.hint_for(0, |_| None);
                    VertexArray::with_hint(&mut alloc, n, 8, &hint).expect("prop array")
                }
            };
            // Chain nodes keep the linked-CSR *structure* in every hint mode
            // (the ordinals and traversal order must match); what the hints
            // decide is whether nodes carry affinity addresses.
            let chained = match &cfg.hints {
                HintMode::Annotated => true,
                HintMode::NoHints => false,
                HintMode::Inferred(p) => {
                    matches!(p.region_hint(1).map(|h| &h.hint), Some(InferredHint::Chain))
                }
            };
            let linked = if chained {
                LinkedCsr::build(&mut alloc, &graph, &props).expect("linked CSR")
            } else {
                LinkedCsr::build_unhinted(&mut alloc, &graph).expect("linked CSR")
            };
            let parts = cfg.machine.num_banks().min(graph.num_vertices());
            // The queue aligns to props only when props is an affine-
            // registered array; unhinted layouts get the same structure with
            // the alignment annotations withheld.
            let q = if props.mode() == AllocMode::Affinity {
                SpatialQueue::build(&mut alloc, &props, parts).expect("spatial queue")
            } else {
                SpatialQueue::build_unhinted(&mut alloc, n, props.elem_size(), parts)
                    .expect("spatial queue")
            };
            (EdgeLayout::Linked(linked), QueueKind::Spatial(q), props)
        } else {
            let props = VertexArray::new(&mut alloc, n, 8, AllocMode::Baseline).expect("props");
            let csr = CsrLayout::build(&mut alloc, &graph, AllocMode::Baseline).expect("CSR");
            let q = GlobalQueue::new(&mut alloc, n).expect("global queue");
            (EdgeLayout::Csr(csr), QueueKind::Global(q), props)
        };
        let mut engine = cfg.engine();
        let mining = cfg.profiling();
        if let (true, EdgeLayout::Linked(linked)) = (mining, &edges) {
            declare_region(&mut engine, 0, RegionKind::Array, 8, n);
            let nodes = linked.num_nodes() as u64;
            declare_region(&mut engine, 1, RegionKind::Nodes, CACHE_LINE, nodes);
        }
        engine.import_residency(alloc.resident_per_bank());
        Self {
            graph,
            props,
            edges,
            queue,
            system: cfg.system,
            engine,
            alloc,
            edge_scratch: Vec::new(),
            weight_scratch: Vec::new(),
            hints: cfg.hints.clone(),
            mining,
            mine_stride: (n as u32 / 1024).max(1),
        }
    }

    /// Fig 6 variant: CSR with the chunk oracle deciding edge banks.
    pub fn with_chunk_oracle(
        graph: impl Into<Arc<Graph>>,
        cfg: &RunConfig,
        chunk_bytes: u64,
    ) -> Self {
        let graph = graph.into();
        let mut alloc =
            AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed);
        let n = u64::from(graph.num_vertices());
        let props = VertexArray::new(&mut alloc, n, 8, AllocMode::Affinity).expect("props");
        let oracle = ChunkedCsr::build(
            alloc.topo(),
            &graph,
            &(0..n).map(|v| props.bank_of(v)).collect::<Vec<_>>(),
            chunk_bytes,
            0.02,
        );
        let parts = cfg.machine.num_banks().min(graph.num_vertices());
        let q = SpatialQueue::build(&mut alloc, &props, parts).expect("spatial queue");
        let mut engine = cfg.engine();
        engine.import_residency(alloc.resident_per_bank());
        engine.register_resident_spread(graph.num_edges() as u64 * graph.edge_bytes());
        Self {
            graph,
            props,
            edges: EdgeLayout::Chunked(oracle),
            queue: QueueKind::Spatial(q),
            system: cfg.system,
            engine,
            alloc,
            edge_scratch: Vec::new(),
            weight_scratch: Vec::new(),
            hints: cfg.hints.clone(),
            mining: false,
            mine_stride: 1,
        }
    }

    /// The logical graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Run graph workload `name` — the one map from a [`WorkloadName`] to a
    /// kernel. `pr` takes the best direction for this instance's system (pull
    /// for In-Core, push for NDC configurations — §6) and `bfs` that
    /// system's [`DirectionPolicy::default_for`]; BFS and SSSP start at
    /// [`pick_source`].
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a graph workload.
    pub fn run(self, name: WorkloadName) -> GraphRun {
        let source = pick_source(&self.graph);
        let system = self.system;
        match name {
            WorkloadName::Pr if system == SystemConfig::InCore => self.run_pr_pull(),
            WorkloadName::Pr | WorkloadName::PrPush => self.run_pr_push(),
            WorkloadName::PrPull => self.run_pr_pull(),
            WorkloadName::Bfs => self.run_bfs(source, DirectionPolicy::default_for(system)),
            WorkloadName::BfsPush => self.run_bfs(source, DirectionPolicy::PushOnly),
            WorkloadName::BfsPull => self.run_bfs(source, DirectionPolicy::PullOnly),
            WorkloadName::Sssp => self.run_sssp(source),
            other => panic!("{} is not a graph workload", other.label()),
        }
    }

    fn prop_bank(&self, v: u32) -> u32 {
        self.props.bank_of(u64::from(v))
    }

    fn in_core(&self) -> bool {
        matches!(self.system, SystemConfig::InCore)
    }

    fn core_of(&self, v: u32) -> u32 {
        let n = u64::from(self.graph.num_vertices());
        let cores = u64::from(self.engine.config().num_banks());
        ((u64::from(v) * cores) / n.max(1)) as u32
    }

    /// Sweep `u`'s adjacency, collecting `(edge_bank, target)` pairs and
    /// charging edge-fetch costs (line reads, stream migrations, in-core
    /// pointer-chasing latency). Returns the pairs in the instance's scratch
    /// buffer — callers iterate and hand it back via `self.edge_scratch`.
    fn scan_edges(&mut self, u: u32) -> Vec<(u32, u32)> {
        self.scan_edges_prefix(u, usize::MAX)
    }

    /// Like [`Self::scan_edges`] but fetches only the first `limit` edges —
    /// pull-direction kernels terminate a vertex's scan at the first visited
    /// in-neighbor, and the dynamic break (Fig 2(b)) stops the stream, so
    /// only the scanned prefix is charged.
    fn scan_edges_prefix(&mut self, u: u32, limit: usize) -> Vec<(u32, u32)> {
        let core = self.core_of(u);
        let in_core = self.in_core();
        let esz = self.graph.edge_bytes();
        let mut out = std::mem::take(&mut self.edge_scratch);
        out.clear();
        out.reserve((self.graph.degree(u) as usize).min(limit));
        let engine = &mut self.engine;
        let graph = &self.graph;
        match &self.edges {
            EdgeLayout::Csr(csr) => {
                let base = graph.offset_of(u);
                let mut line_start = u64::MAX;
                for (i, &v) in graph.neighbors(u).iter().take(limit).enumerate() {
                    let e = base + i as u64;
                    let bank = csr.bank_of_edge(e);
                    let line = e * esz / CACHE_LINE;
                    if line != line_start {
                        line_start = line;
                        if in_core {
                            engine.core_read_lines(core, bank, 1);
                        } else {
                            engine.bank_read_lines(bank, 1);
                        }
                    }
                    out.push((bank, v));
                }
            }
            EdgeLayout::Chunked(oracle) => {
                let base = graph.offset_of(u);
                let mut line_start = u64::MAX;
                let mut prev_bank = None;
                for (i, &v) in graph.neighbors(u).iter().take(limit).enumerate() {
                    let e = base + i as u64;
                    let bank = oracle.bank_of_edge(e);
                    let line = e * esz / CACHE_LINE;
                    if line != line_start {
                        line_start = line;
                        if in_core {
                            engine.core_read_lines(core, bank, 1);
                        } else {
                            engine.bank_read_lines(bank, 1);
                            if let Some(p) = prev_bank {
                                if p != bank {
                                    engine.migrate(p, bank, 1);
                                }
                            }
                            prev_bank = Some(bank);
                        }
                    }
                    out.push((bank, v));
                }
            }
            EdgeLayout::Linked(linked) => {
                let mut prev_bank = None;
                // Profiling: one sampled step per scanned vertex — the chain
                // nodes it walks (line-granular elements) and the property
                // elements its edges point at.
                let emit = self.mining && u.is_multiple_of(self.mine_stride);
                for node in linked.chain_of(u) {
                    if (node.lo as usize) >= limit {
                        break;
                    }
                    let bank = node.bank;
                    if emit {
                        engine.record(Event::ProfileTouch {
                            region: 1,
                            elem: node.va.raw() / CACHE_LINE,
                            step: u64::from(u),
                        });
                        let hi = (node.hi as usize).min(limit);
                        for &v in &graph.neighbors(u)[node.lo as usize..hi] {
                            engine.record(Event::ProfileTouch {
                                region: 0,
                                elem: u64::from(v),
                                step: u64::from(u),
                            });
                        }
                    }
                    if in_core {
                        engine.core_read_lines(core, bank, 1);
                        // Pointer chasing from the core is serialized: a full
                        // round trip per node.
                        let hops = 2 * u64::from(engine.topo().manhattan(core, bank));
                        engine.chain(hops, 1);
                    } else {
                        engine.bank_read_lines(bank, 1);
                        if let Some(p) = prev_bank {
                            if p != bank {
                                engine.migrate(p, bank, 1);
                            }
                        }
                        prev_bank = Some(bank);
                    }
                    let hi = (node.hi as usize).min(limit);
                    for &v in &graph.neighbors(u)[node.lo as usize..hi] {
                        out.push((bank, v));
                    }
                }
            }
        }
        out
    }

    /// Expand `u`'s edge weights into the reusable weight scratch (unit
    /// weights when the graph is unweighted). Same take-and-return protocol
    /// as [`Self::scan_edges_prefix`].
    fn weights_scratch(&mut self, u: u32) -> Vec<u32> {
        let mut w = std::mem::take(&mut self.weight_scratch);
        w.clear();
        match self.graph.weights_of(u) {
            Some(ws) => w.extend_from_slice(ws),
            None => w.resize(self.graph.degree(u) as usize, 1),
        }
        w
    }

    /// Charge one push-style update of `target`'s property from `from_bank`
    /// (an atomic CAS / fetch-min / fetch-add).
    fn push_update(&mut self, from_bank: u32, core: u32, target: u32, contended: bool) {
        let pb = self.prop_bank(target);
        if self.in_core() {
            self.engine.core_atomic(core, pb, contended, 1);
        } else {
            self.engine.remote_atomic(from_bank, pb, 1);
        }
    }

    /// Charge a pull-style read of `target`'s property into `from_bank`.
    fn pull_read(&mut self, from_bank: u32, core: u32, target: u32) {
        let pb = self.prop_bank(target);
        if self.in_core() {
            self.engine.core_read_lines(core, pb, 1);
        } else {
            self.engine.indirect(from_bank, pb, 8, 1);
        }
    }

    /// Charge a frontier push of vertex `v` discovered at `from_bank`.
    fn queue_push(&mut self, from_bank: u32, core: u32, v: u32) {
        let (tail_bank, slot_bank) = match &mut self.queue {
            QueueKind::Global(q) => q.push(v),
            QueueKind::Spatial(q) => q.push(v),
        };
        if self.in_core() {
            self.engine.core_atomic(core, tail_bank, true, 1);
            self.engine.core_write_lines(core, slot_bank, 1);
        } else {
            self.engine.remote_atomic(from_bank, tail_bank, 1);
            if tail_bank != slot_bank {
                self.engine.indirect(tail_bank, slot_bank, 4, 1);
            } else {
                self.engine.bank_write_lines(slot_bank, 1);
            }
        }
    }

    fn reset_queue(&mut self) {
        match &mut self.queue {
            QueueKind::Global(q) => q.reset(),
            QueueKind::Spatial(q) => q.reset(),
        }
    }

    fn charge_iteration_overheads(&mut self, iterations: u64) {
        self.engine.offload_config_multicast(0, 4);
        self.engine.credits(0, 0, iterations);
    }

    /// Consume the instance, producing metrics. The allocator's degradation
    /// (excluded banks, fallback-chain use) is folded into the engine's.
    pub fn finish(self) -> Metrics {
        let mut m = self.engine.finish();
        m.degradation.merge(&self.alloc.degradation());
        self.hints.stamp(&mut m);
        m
    }

    // ---------------- algorithms ----------------

    /// PageRank, push variant: one sweep where every vertex scatters its
    /// contribution to its out-neighbors' ranks with remote atomics.
    pub fn run_pr_push(mut self) -> GraphRun {
        let n = self.graph.num_vertices();
        let m = self.graph.num_edges() as u64;
        self.charge_iteration_overheads(m);
        self.engine.begin_phase();
        for u in 0..n {
            let core = self.core_of(u);
            // Read own contribution (local to the vertex's bank / core).
            if self.in_core() {
                self.engine.private_hits(1);
            } else {
                let pb = self.prop_bank(u);
                self.engine.bank_read_lines(pb, 1);
            }
            let contended = true; // all edges active in PR
            let edges = self.scan_edges(u);
            for &(bank, v) in &edges {
                self.push_update(bank, core, v, contended);
            }
            self.edge_scratch = edges;
        }
        self.engine.end_phase();
        let metrics = self.finish();
        GraphRun {
            metrics,
            iters: Vec::new(),
        }
    }

    /// PageRank, pull variant: every vertex gathers its in-neighbors'
    /// contributions and reduces locally.
    pub fn run_pr_pull(mut self) -> GraphRun {
        let n = self.graph.num_vertices();
        let m = self.graph.num_edges() as u64;
        self.charge_iteration_overheads(m);
        for u in 0..n {
            let core = self.core_of(u);
            let edges = self.scan_edges(u);
            for &(bank, v) in &edges {
                self.pull_read(bank, core, v);
            }
            self.edge_scratch = edges;
            // Local reduction + write of own rank.
            if self.in_core() {
                self.engine.core_ops(self.graph.degree(u));
                let pb = self.prop_bank(u);
                self.engine.core_write_lines(core, pb, 1);
            } else {
                let pb = self.prop_bank(u);
                self.engine.se_ops(pb, self.graph.degree(u));
                self.engine.bank_write_lines(pb, 1);
            }
        }
        let metrics = self.finish();
        GraphRun {
            metrics,
            iters: Vec::new(),
        }
    }

    /// BFS from `source` with the given direction policy. Returns metrics
    /// plus per-iteration statistics (Figs 14, 17, 18).
    pub fn run_bfs(mut self, source: u32, policy: DirectionPolicy) -> GraphRun {
        let n = u64::from(self.graph.num_vertices());
        let m = self.graph.num_edges() as u64;
        self.charge_iteration_overheads(m.max(1));
        let mut parent: Vec<Option<u32>> = vec![None; n as usize];
        parent[source as usize] = Some(source);
        // Level marks let pull-iterations test "visited before this
        // iteration" in O(1).
        let mut level = vec![u32::MAX; n as usize];
        level[source as usize] = 0;
        let mut frontier = vec![source];
        let mut visited = 1u64;
        let mut stats = Vec::new();
        let mut dir = Direction::Push;
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            self.reset_queue();
            self.engine.begin_phase();
            let awake = n - visited;
            let scout: u64 = frontier.iter().map(|&u| self.graph.degree(u)).sum();
            dir = policy.choose(dir, visited, awake, scout, n, m);
            let mut next = Vec::new();
            let mut examined = 0u64;
            match dir {
                Direction::Push => {
                    let contended = frontier.len() as u64 * 100 > n;
                    for &u in &frontier {
                        let core = self.core_of(u);
                        let edges = self.scan_edges(u);
                        examined += edges.len() as u64;
                        for &(bank, v) in &edges {
                            // The CAS executes near P[v] either way.
                            self.push_update(bank, core, v, contended);
                            if parent[v as usize].is_none() {
                                parent[v as usize] = Some(u);
                                level[v as usize] = depth;
                                next.push(v);
                                self.queue_push(self.prop_bank(v), core, v);
                            }
                        }
                        self.edge_scratch = edges;
                    }
                }
                Direction::Pull => {
                    for v in 0..n as u32 {
                        if parent[v as usize].is_some() {
                            continue;
                        }
                        let core = self.core_of(v);
                        // The dynamic break stops the edge stream at the
                        // first visited in-neighbor: only that prefix is
                        // fetched and only that prefix pays indirect reads.
                        let nb = self.graph.neighbors(v);
                        let prefix = nb
                            .iter()
                            .position(|&u| level[u as usize] < depth)
                            .map(|p| p + 1)
                            .unwrap_or(nb.len());
                        let found = (prefix <= nb.len() && prefix > 0)
                            .then(|| nb[prefix - 1])
                            .filter(|&u| level[u as usize] < depth);
                        // Speculative overshoot: the break cannot stop
                        // probes already in flight.
                        let charged = prefix.max(PULL_SPECULATION).min(nb.len());
                        let edges = self.scan_edges_prefix(v, charged);
                        for &(bank, u) in &edges {
                            examined += 1;
                            self.pull_read(bank, core, u);
                        }
                        self.edge_scratch = edges;
                        if let Some(u) = found {
                            parent[v as usize] = Some(u);
                            level[v as usize] = depth;
                            next.push(v);
                        }
                    }
                }
            }
            visited += next.len() as u64;
            stats.push(IterStat {
                dir,
                active: next.len() as u64,
                visited,
                scout_edges: next.iter().map(|&v| self.graph.degree(v)).sum(),
                examined_edges: examined,
            });
            self.engine.end_phase();
            frontier = next;
        }
        let metrics = self.finish();
        GraphRun {
            metrics,
            iters: stats,
        }
    }

    /// SSSP by frontier-based label correcting (Bellman-Ford with a work
    /// queue) — weighted edges relax neighbors with remote fetch-min.
    pub fn run_sssp(mut self, source: u32) -> GraphRun {
        let n = self.graph.num_vertices();
        let m = self.graph.num_edges() as u64;
        self.charge_iteration_overheads(m.max(1));
        let mut dist = vec![u64::MAX; n as usize];
        dist[source as usize] = 0;
        // Vertices with a finite distance, bumped as each first gets one.
        let mut visited = 1u64;
        let mut frontier = vec![source];
        let mut in_next = vec![false; n as usize];
        let mut stats = Vec::new();
        let mut rounds = 0;
        while !frontier.is_empty() && rounds < 64 {
            rounds += 1;
            self.reset_queue();
            self.engine.begin_phase();
            let mut next: Vec<u32> = Vec::new();
            let mut examined = 0u64;
            let contended = frontier.len() as u64 * 100 > u64::from(n);
            for &u in &frontier {
                let core = self.core_of(u);
                let du = dist[u as usize];
                let weights = self.weights_scratch(u);
                let edges = self.scan_edges(u);
                examined += edges.len() as u64;
                for (i, &(bank, v)) in edges.iter().enumerate() {
                    self.push_update(bank, core, v, contended);
                    let nd = du.saturating_add(u64::from(weights[i]));
                    if nd < dist[v as usize] {
                        visited += u64::from(dist[v as usize] == u64::MAX);
                        dist[v as usize] = nd;
                        if !in_next[v as usize] {
                            in_next[v as usize] = true;
                            next.push(v);
                            self.queue_push(self.prop_bank(v), core, v);
                        }
                    }
                }
                self.edge_scratch = edges;
                self.weight_scratch = weights;
            }
            for &v in &next {
                in_next[v as usize] = false;
            }
            stats.push(IterStat {
                dir: Direction::Push,
                active: next.len() as u64,
                visited,
                scout_edges: next.iter().map(|&v| self.graph.degree(v)).sum(),
                examined_edges: examined,
            });
            self.engine.end_phase();
            frontier = next;
        }
        let metrics = self.finish();
        GraphRun {
            metrics,
            iters: stats,
        }
    }

    /// SSSP on a relaxed priority queue (lazy-deletion Dijkstra): the
    /// ablation contrasting the FIFO frontier of [`Self::run_sssp`] with
    /// §4.2's MultiQueues-style spatially distributed priority queue. Under
    /// `Aff-Alloc` the queue is one sub-heap per partition with bank-local
    /// pushes; baselines pay remote accesses to a single global heap.
    pub fn run_sssp_priority(mut self, source: u32) -> GraphRun {
        let n = self.graph.num_vertices();
        let m = self.graph.num_edges() as u64;
        self.charge_iteration_overheads(m.max(1));
        let in_core = self.in_core();

        // The queue layout: spatial per-partition heaps for Aff-Alloc, one
        // global heap (at the bank of a heap-allocated anchor) otherwise.
        // The spatial heaps align to props — an annotation; unhinted layouts
        // fall back to the global heap like the baselines.
        let spatial_pq =
            if self.system.uses_affinity_alloc() && self.props.mode() == AllocMode::Affinity {
                let parts = self.engine.config().num_banks().min(n);
                Some(
                    SpatialPriorityQueue::build(&mut self.alloc, &self.props, parts, 11)
                        .expect("spatial priority queue"),
                )
            } else {
                None
            };
        let global_heap_bank = {
            let anchor = self.alloc.heap_alloc(64);
            self.alloc.bank_of(anchor)
        };
        let pq_bank = |pq: &Option<SpatialPriorityQueue>, v: u32| match pq {
            Some(q) => q.bank_of_partition(q.partition_of(v)),
            None => global_heap_bank,
        };

        let mut dist = vec![u64::MAX; n as usize];
        dist[source as usize] = 0;
        // Logical order comes from one heap (correctness); *placement* costs
        // come from the modeled queue layout.
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, source)));
        let mut settled = 0u64;
        let mut examined = 0u64;
        self.engine.begin_phase();
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            // Pop: a heap access at the queue's bank.
            let qb = pq_bank(&spatial_pq, u);
            self.engine.bank_read_lines(qb, 1);
            self.engine.se_ops(qb, 2);
            if d > dist[u as usize] {
                continue; // stale lazy-deletion entry
            }
            settled += 1;
            let core = self.core_of(u);
            let weights = self.weights_scratch(u);
            let edges = self.scan_edges(u);
            examined += edges.len() as u64;
            for (i, &(bank, v)) in edges.iter().enumerate() {
                let nd = d.saturating_add(u64::from(weights[i]));
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    self.push_update(bank, core, v, false);
                    // Push into v's queue from v's property bank: local for
                    // the spatial layout, remote for the global heap.
                    let qb = pq_bank(&spatial_pq, v);
                    let vb = self.prop_bank(v);
                    if in_core {
                        self.engine.core_atomic(core, qb, true, 1);
                    } else {
                        self.engine.remote_atomic(vb, qb, 1);
                    }
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
            self.edge_scratch = edges;
            self.weight_scratch = weights;
        }
        self.engine.end_phase();
        let stats = vec![IterStat {
            dir: Direction::Push,
            active: 0,
            visited: settled,
            scout_edges: 0,
            examined_edges: examined,
        }];
        let metrics = self.finish();
        GraphRun {
            metrics,
            iters: stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn kron() -> Graph {
        gen::kronecker(10, 8, 42)
    }

    fn run(system: SystemConfig, f: impl Fn(GraphInstance) -> GraphRun) -> GraphRun {
        let cfg = RunConfig::new(system).with_seed(1);
        let inst = GraphInstance::new(kron(), &cfg);
        f(inst)
    }

    #[test]
    fn bfs_visits_the_component_identically_across_systems() {
        let runs: Vec<GraphRun> = [
            SystemConfig::InCore,
            SystemConfig::NearL3,
            SystemConfig::aff_alloc_default(),
        ]
        .into_iter()
        .map(|s| run(s, |i| i.run_bfs(0, DirectionPolicy::PushOnly)))
        .collect();
        let visited: Vec<u64> = runs
            .iter()
            .map(|r| r.iters.last().unwrap().visited)
            .collect();
        assert_eq!(visited[0], visited[1]);
        assert_eq!(visited[0], visited[2]);
        assert!(visited[0] > 512, "Kronecker core component should be large");
    }

    #[test]
    fn aff_alloc_cuts_graph_traffic() {
        let near = run(SystemConfig::NearL3, |i| i.run_pr_push());
        let aff = run(SystemConfig::aff_alloc_default(), |i| i.run_pr_push());
        assert!(
            (aff.metrics.total_hop_flits as f64) < near.metrics.total_hop_flits as f64 * 0.6,
            "aff {} vs near {}",
            aff.metrics.total_hop_flits,
            near.metrics.total_hop_flits
        );
        assert!(aff.metrics.cycles < near.metrics.cycles);
    }

    #[test]
    fn ndc_beats_in_core_on_pr_push() {
        let incore = run(SystemConfig::InCore, |i| i.run_pr_push());
        let aff = run(SystemConfig::aff_alloc_default(), |i| i.run_pr_push());
        assert!(aff.metrics.cycles < incore.metrics.cycles);
    }

    #[test]
    fn bfs_iteration_stats_are_consistent() {
        let r = run(SystemConfig::aff_alloc_default(), |i| {
            i.run_bfs(0, DirectionPolicy::PushOnly)
        });
        let mut cum = 1u64;
        for it in &r.iters {
            cum += it.active;
            assert_eq!(it.visited, cum);
        }
    }

    #[test]
    fn direction_policies_differ() {
        let push = run(SystemConfig::NearL3, |i| {
            i.run_bfs(0, DirectionPolicy::PushOnly)
        });
        let gap = run(SystemConfig::NearL3, |i| {
            i.run_bfs(0, DirectionPolicy::GapSwitch)
        });
        assert!(push.iters.iter().all(|s| s.dir == Direction::Push));
        assert!(
            gap.iters.iter().any(|s| s.dir == Direction::Pull),
            "GAP switching should pull in the middle iterations of a Kronecker BFS"
        );
        // Both find the same BFS tree size.
        assert_eq!(
            push.iters.last().unwrap().visited,
            gap.iters.last().unwrap().visited
        );
    }

    #[test]
    fn aff_switch_pulls_less_than_gap() {
        let gap = run(SystemConfig::aff_alloc_default(), |i| {
            i.run_bfs(0, DirectionPolicy::GapSwitch)
        });
        let aff = run(SystemConfig::aff_alloc_default(), |i| {
            i.run_bfs(0, DirectionPolicy::AffSwitch)
        });
        let pulls = |r: &GraphRun| r.iters.iter().filter(|s| s.dir == Direction::Pull).count();
        assert!(
            pulls(&aff) <= pulls(&gap),
            "the Aff policy pushes more (remote atomics are cheap near data)"
        );
    }

    #[test]
    fn sssp_distances_are_correct_on_a_path() {
        let g = Graph::from_weighted_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], &[2, 3, 4, 20]);
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default());
        let inst = GraphInstance::new(g, &cfg);
        let r = inst.run_sssp(0);
        assert_eq!(r.iters.last().unwrap().visited, 4);
    }

    #[test]
    fn sssp_visited_counts_the_ball_of_each_round() {
        // A vertex first gets a finite distance in the round that reaches
        // its BFS level, so each round's running count is that ball's size.
        let g = gen::kronecker_weighted(10, 8, 42);
        let src = pick_source(&g);
        let mut level = vec![u32::MAX; g.num_vertices() as usize];
        level[src as usize] = 0;
        let (mut frontier, mut depth) = (vec![src], 0);
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default()).with_seed(1);
        let r = GraphInstance::new(g, &cfg).run_sssp(src);
        assert!(r.iters.len() > 2);
        for (round, it) in r.iters.iter().enumerate() {
            let ball = level.iter().filter(|&&l| l <= round as u32 + 1).count() as u64;
            assert_eq!(it.visited, ball, "round {round}");
        }
    }

    #[test]
    fn priority_sssp_settles_and_beats_fifo_on_rerelaxations() {
        let g = gen::kronecker_weighted(10, 8, 42);
        let src = pick_source(&g);
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default()).with_seed(1);
        let fifo = GraphInstance::new(g.clone(), &cfg).run_sssp(src);
        let pq = GraphInstance::new(g.clone(), &cfg).run_sssp_priority(src);
        // Same reachable set.
        assert_eq!(
            pq.iters.last().unwrap().visited,
            fifo.iters.last().unwrap().visited
        );
        // Dijkstra settles each vertex once: fewer edges examined than the
        // label-correcting frontier, which re-relaxes.
        let fifo_examined: u64 = fifo.iters.iter().map(|i| i.examined_edges).sum();
        let pq_examined: u64 = pq.iters.iter().map(|i| i.examined_edges).sum();
        assert!(
            pq_examined <= fifo_examined,
            "pq {pq_examined} vs fifo {fifo_examined}"
        );
    }

    #[test]
    fn spatial_pq_localizes_queue_traffic() {
        let g = gen::kronecker_weighted(10, 8, 42);
        let src = pick_source(&g);
        let near = GraphInstance::new(
            g.clone(),
            &RunConfig::new(SystemConfig::NearL3).with_seed(1),
        )
        .run_sssp_priority(src);
        let aff = GraphInstance::new(
            g,
            &RunConfig::new(SystemConfig::aff_alloc_default()).with_seed(1),
        )
        .run_sssp_priority(src);
        assert!(
            aff.metrics.total_hop_flits < near.metrics.total_hop_flits,
            "spatial PQ must cut queue traffic: {} vs {}",
            aff.metrics.total_hop_flits,
            near.metrics.total_hop_flits
        );
    }

    #[test]
    fn occupancy_sampled_per_iteration() {
        let r = run(SystemConfig::aff_alloc_default(), |i| {
            i.run_bfs(0, DirectionPolicy::PushOnly)
        });
        assert!(!r.metrics.occupancy.is_empty());
        assert!(r.metrics.occupancy.len() <= r.iters.len());
    }

    #[test]
    fn closed_loop_recovers_graph_annotations() {
        use aff_sim_core::mine::CoAccessMiner;
        use affinity_alloc::AffinityProfile;
        use std::sync::{Arc, Mutex};

        // Phase 1: profile an unhinted pr_push recording into a miner.
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default()).with_seed(1);
        let miner = Arc::new(Mutex::new(CoAccessMiner::new()));
        let profiled = cfg.clone().with_hints(HintMode::NoHints);
        let none =
            GraphInstance::new(kron(), &profiled.with_recorder(Arc::clone(&miner))).run_pr_push();
        let profile = AffinityProfile::infer(&CoAccessMiner::finish_shared(&miner));

        // The mined structure matches the hand annotations: partitioned
        // properties, chained edge nodes.
        assert_eq!(
            profile.region_hint(0).map(|h| &h.hint),
            Some(&InferredHint::Partition),
            "scattered indirect targets must infer a partitioned prop array"
        );
        assert_eq!(
            profile.region_hint(1).map(|h| &h.hint),
            Some(&InferredHint::Chain),
            "edge-node traversal must infer a chain"
        );

        // Phase 2: replay — inferred matches annotated, both beat unhinted.
        let annotated = GraphInstance::new(kron(), &cfg).run_pr_push();
        let inferred = GraphInstance::new(
            kron(),
            &cfg.clone()
                .with_hints(HintMode::Inferred(Arc::new(profile))),
        )
        .run_pr_push();
        assert_eq!(
            inferred.metrics.cycles, annotated.metrics.cycles,
            "inferred hints must reproduce the annotated layout"
        );
        assert!(inferred.metrics.cycles < none.metrics.cycles);
        assert_eq!(inferred.metrics.hint_source.as_deref(), Some("inferred"));
        assert_eq!(annotated.metrics.hint_source, None);
    }

    #[test]
    fn chunk_oracle_improves_over_baseline_csr() {
        let cfg = RunConfig::new(SystemConfig::NearL3).with_seed(1);
        let base = GraphInstance::new(kron(), &cfg).run_pr_push();
        let cfg_aff = RunConfig::new(SystemConfig::aff_alloc_default()).with_seed(1);
        let fine = GraphInstance::with_chunk_oracle(kron(), &cfg_aff, 64).run_pr_push();
        let coarse = GraphInstance::with_chunk_oracle(kron(), &cfg_aff, 4096).run_pr_push();
        assert!(fine.metrics.total_hop_flits <= coarse.metrics.total_hop_flits);
        assert!(fine.metrics.total_hop_flits < base.metrics.total_hop_flits);
    }

    #[test]
    fn chunk_oracle_registers_the_edge_entry_size() {
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default()).with_seed(1);
        let plain = kron();
        let weighted = plain.with_weights(|| 1);
        let resident = |g: Graph| {
            let mut inst = GraphInstance::with_chunk_oracle(g, &cfg, 64);
            inst.engine.banks().total_resident()
        };
        let banks = u64::from(cfg.machine.num_banks());
        let edges = plain.num_edges() as u64;
        // 8 B weighted entries against 4 B plain ones, spread evenly with
        // each bank's share rounded down.
        let extra = banks * (edges * 8 / banks - edges * 4 / banks);
        assert!(extra > 0);
        assert_eq!(resident(weighted) - resident(plain), extra);
    }
}
