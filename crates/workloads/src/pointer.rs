//! Pointer-chasing workloads: link_list, hash_join, bin_tree (Table 3).
//!
//! These are latency-bound: the next access depends on the previous one, so
//! the cycle estimate is dominated by the serial-chain term. The model:
//!
//! * **In-Core**: each dereference is a full core↔bank round trip. The OOO
//!   window overlaps a few *independent* queries ([`IN_CORE_MLP`]) but never
//!   accelerates a single chain (§5.3: "run ahead distance is limited by the
//!   size of the ROB").
//! * **Near-L3**: the pointer-chasing stream *migrates* with the data — per
//!   node it pays only the migration hops plus the bank access, and each
//!   bank's SEL3 runs `MachineConfig::sel3_streams_per_bank` chains
//!   concurrently.
//!
//! Affinity alloc shortens (Hybrid) or eliminates (Min-Hop) the migration
//! hops — at the cost, for Min-Hop, of collapsing all parallelism onto one
//! bank, which is the Fig 13 `bin_tree` pathology this module reproduces.

use crate::config::{declare_region, HintMode, RunConfig, SystemConfig};
use aff_ds::hash::HashChainTable;
use aff_ds::layout::AllocMode;
use aff_ds::list::AffLinkedList;
use aff_ds::tree::{AffBinaryTree, TreeNode};
use aff_noc::topology::AxisHops;
use aff_nsc::engine::{Metrics, SimEngine};
use aff_sim_core::config::CACHE_LINE;
use aff_sim_core::mine::RegionKind;
use aff_sim_core::rng::SimRng;
use aff_sim_core::trace::Event;
use affinity_alloc::{AffinityAllocator, InferredHint};

/// Independent queries an OOO core overlaps (memory-level parallelism
/// across — never within — chains).
pub const IN_CORE_MLP: u64 = 4;

/// Parameters for `link_list` (Table 3: 8 B key, 512 nodes/list, 1k lists,
/// 1 query/list).
#[derive(Debug, Clone, Copy)]
pub struct LinkListParams {
    /// Number of independent lists.
    pub lists: usize,
    /// Nodes per list.
    pub nodes_per_list: usize,
}

impl Default for LinkListParams {
    fn default() -> Self {
        Self {
            lists: 1000,
            nodes_per_list: 512,
        }
    }
}

/// Parameters for `hash_join` (Table 3: 256k ⋈ 512k, hit rate 1/8).
#[derive(Debug, Clone, Copy)]
pub struct HashJoinParams {
    /// Keys in the build-side table.
    pub build_keys: usize,
    /// Probe lookups.
    pub probe_keys: usize,
    /// Buckets (sized so chains stay ≤ 8).
    pub buckets: u64,
    /// Fraction of probes that hit (paper: 1/8).
    pub hit_rate: f64,
}

impl Default for HashJoinParams {
    fn default() -> Self {
        Self {
            build_keys: 256 * 1024,
            probe_keys: 512 * 1024,
            buckets: 128 * 1024,
            hit_rate: 1.0 / 8.0,
        }
    }
}

/// Parameters for `bin_tree` (Table 3: 128k nodes, 512k uniform lookups).
#[derive(Debug, Clone, Copy)]
pub struct BinTreeParams {
    /// Tree nodes (random insertion order, unbalanced).
    pub nodes: usize,
    /// Uniform lookups.
    pub lookups: usize,
}

impl Default for BinTreeParams {
    fn default() -> Self {
        Self {
            nodes: 128 * 1024,
            lookups: 512 * 1024,
        }
    }
}

fn alloc_for(cfg: &RunConfig) -> AffinityAllocator {
    AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed)
}

fn node_mode(cfg: &RunConfig) -> AllocMode {
    if !cfg.system.uses_affinity_alloc() {
        return AllocMode::Baseline;
    }
    match &cfg.hints {
        HintMode::Annotated => AllocMode::Affinity,
        HintMode::NoHints => AllocMode::Unhinted,
        // A mined Chain hint re-enables the per-node affinity addresses —
        // predecessor, parent, or bucket head, realized by the structure's
        // own builder (the aff_addrs of Fig 10/11).
        HintMode::Inferred(p) => match p.region_hint(0).map(|h| &h.hint) {
            Some(InferredHint::Chain) => AllocMode::Affinity,
            _ => AllocMode::Unhinted,
        },
    }
}

/// Profiling: declare region 0, the run's `nodes` line-granular nodes.
fn declare_nodes(engine: &mut SimEngine, nodes: u64) {
    declare_region(engine, 0, RegionKind::Nodes, CACHE_LINE, nodes);
}

/// Profiling: one ProfileTouch per dereference of a sampled chain — region 0
/// is the node pool, elements are line-granular node identities.
fn emit_chain_touches(engine: &mut SimEngine, banks: impl IntoIterator<Item = u32>, step: u64) {
    for b in banks {
        engine.record(Event::ProfileTouch {
            region: 0,
            elem: u64::from(b),
            step,
        });
    }
}

/// One pointer run's chain dereferences, tallied into dense counts and
/// charged to the engine once per distinct charge.
///
/// A chain is a sequence of dereferences at `banks`; its first bank is
/// its entry. Near-L3 counts each dereference as a read at its bank and
/// each bank change as a `(prev, bank)` migration; In-Core counts each
/// dereference as a `(core, bank)` read. [`finish`](Self::finish) then
/// makes one engine call per non-zero count, with the summed count, and
/// folds the chains' serial latencies into the chain term.
///
/// Chains arrive through one of two feeds. [`chain`](Self::chain) takes
/// each chain's banks (link_list, hash_join). [`path_ends`](Self::path_ends)
/// takes root-to-node paths of a parent-linked tree by their end node
/// alone (bin_tree lookups): Near-L3 counts ends per node and settles them
/// in one pass over the nodes, In-Core walks the parent links per chain.
///
/// *Why it is exact.* Every counter these engine calls feed is additive,
/// and `record_n` of a summed count is exactly that many records (the
/// charge-table proptests pin this), so one call with the sum equals the
/// per-dereference calls — provided nothing changes how a charge applies
/// between the chains and `finish`. A pointer run opens no phase, so fault
/// epochs (chaos timelines included) fire only in the engine's own
/// `finish`, after the tally has settled; a caller that opens phases or
/// advances faults between chains must not use it. An attached recorder
/// sees fewer events, with summed counts: the co-access miner reads only
/// `ProfileTouch`, which the run still emits per dereference, and the sums
/// of its work counters.
#[derive(Debug)]
pub struct ChainTally {
    in_core: bool,
    num_banks: usize,
    axis: AxisHops,
    hop_latency: u64,
    l3_latency: u64,
    /// Near-L3 reads per bank.
    reads: Vec<u64>,
    /// `src · num_banks + dst` counts: Near-L3 `(prev, bank)` migrations, or
    /// In-Core `(core, bank)` reads.
    pairs: Vec<u64>,
    /// Indices of the non-zero `pairs`, in first-touch order, so settling a
    /// large machine walks only the pairs a run used.
    touched: Vec<usize>,
    /// Sum and maximum of the chains' serial latencies.
    serial_total: u64,
    serial_max: u64,
}

impl ChainTally {
    /// An empty tally for `engine`'s machine; `in_core` picks the In-Core
    /// model, otherwise Near-L3.
    pub fn new(engine: &SimEngine, in_core: bool) -> Self {
        let cfg = engine.config();
        let n = cfg.num_banks() as usize;
        Self {
            in_core,
            num_banks: n,
            axis: AxisHops::new(&engine.topo()),
            hop_latency: cfg.hop_latency,
            l3_latency: cfg.l3_latency,
            reads: vec![0; n],
            pairs: vec![0; n * n],
            touched: Vec::new(),
            serial_total: 0,
            serial_max: 0,
        }
    }

    fn count_pair(&mut self, src: u32, dst: u32, n: u64) {
        let i = src as usize * self.num_banks + dst as usize;
        if self.pairs[i] == 0 {
            self.touched.push(i);
        }
        self.pairs[i] += n;
    }

    /// Tally one chain traversal — dereferences at `banks`, issued by the
    /// core at tile `core` (In-Core) — and return its serial latency in
    /// cycles: per dereference, the hops from the previous bank (Near-L3)
    /// or the core round trip (In-Core), plus one L3 access.
    pub fn chain(&mut self, banks: impl IntoIterator<Item = u32>, core: u32) -> u64 {
        let (mut hops, mut derefs) = (0u64, 0u64);
        let mut banks = banks.into_iter().peekable();
        let mut prev = banks.peek().copied().unwrap_or(core);
        for b in banks {
            derefs += 1;
            if self.in_core {
                self.count_pair(core, b, 1);
                hops += 2 * u64::from(self.axis.hops(core, b));
            } else {
                self.reads[b as usize] += 1;
                if prev != b {
                    self.count_pair(prev, b, 1);
                }
                hops += u64::from(self.axis.hops(prev, b));
                prev = b;
            }
        }
        let serial = hops * self.hop_latency + derefs * self.l3_latency;
        self.serial_total += serial;
        self.serial_max = self.serial_max.max(serial);
        serial
    }

    /// Open the counted-ends feed over a parent-linked forest of `nodes`
    /// (an [`AffBinaryTree`]'s, or any whose parents precede their
    /// children). Each chain is a root-to-node path, named by its end
    /// node; see [`PathEnds`].
    pub fn path_ends<'t>(&'t mut self, nodes: &'t [TreeNode]) -> PathEnds<'t> {
        let ends = if self.in_core {
            Vec::new()
        } else {
            vec![0; nodes.len()]
        };
        PathEnds {
            tally: self,
            nodes,
            ends,
        }
    }

    /// Charge every tallied count once, then add the chain term: chains
    /// run `concurrency` at a time (the OOO window's [`IN_CORE_MLP`] per
    /// tile, or each bank's SEL3 streams), so the critical path is the
    /// larger of `total / concurrency` and the single longest chain.
    pub fn finish(self, engine: &mut SimEngine) {
        for (b, &n) in self.reads.iter().enumerate() {
            if n > 0 {
                engine.bank_read_lines(b as u32, n);
                engine.se_ops(b as u32, n);
            }
        }
        for &i in &self.touched {
            let (src, dst) = ((i / self.num_banks) as u32, (i % self.num_banks) as u32);
            let n = self.pairs[i];
            if self.in_core {
                engine.core_read_lines(src, dst, n);
            } else {
                engine.migrate(src, dst, n);
            }
        }
        let cfg = engine.config();
        let per_bank = if self.in_core {
            IN_CORE_MLP
        } else {
            u64::from(cfg.sel3_streams_per_bank)
        };
        let concurrency = (u64::from(cfg.num_banks()) * per_bank).max(1);
        engine.chain_cycles((self.serial_total / concurrency).max(self.serial_max));
    }
}

/// [`ChainTally`]'s second feed: chains that are root-to-node paths of a
/// parent-linked forest, each named by its end node. It feeds the same
/// counters as [`ChainTally::chain`] and tallies exactly what `chain` would
/// over each path's banks, root first.
///
/// * **Near-L3** counts chains per end node, in one per-node array.
///   [`settle`](Self::settle) turns the end counts into visit counts
///   (subtree sums) in one reverse pass, since parents precede their
///   children. Each node adds its visits to its bank's reads, and to the
///   `(parent bank, bank)` migration where the two differ. A forward pass
///   then charges each step (the hop and L3 latency onto a node from its
///   parent) once per visit to the serial total, and takes the serial
///   maximum over the nodes that end a chain.
/// * **In-Core** latency depends on the issuing core, so each chain walks
///   the parent links up from its end node into the `(core, bank)` counts
///   at once; the order of a chain's dereferences does not change them.
///
/// Settling costs O(nodes) and may happen at any chain boundary: a caller
/// that must charge at epoch points settles, then opens a new feed.
/// Dropping a feed unsettled loses its Near-L3 chains.
#[derive(Debug)]
pub struct PathEnds<'t> {
    tally: &'t mut ChainTally,
    nodes: &'t [TreeNode],
    /// Near-L3 chains per end node; empty under In-Core.
    ends: Vec<u64>,
}

impl PathEnds<'_> {
    /// Tally the chain from `end`'s root down to `end`, issued by the core
    /// at tile `core` (In-Core).
    pub fn end(&mut self, end: u32, core: u32) {
        if self.tally.in_core {
            let nodes = self.nodes;
            let up = std::iter::successors(Some(end), |&i| nodes[i as usize].parent);
            self.tally.chain(up.map(|i| nodes[i as usize].bank), core);
        } else {
            self.ends[end as usize] += 1;
        }
    }

    /// Fold the counted Near-L3 chains into the tally.
    pub fn settle(self) {
        let Self {
            tally,
            nodes,
            mut ends,
        } = self;
        if ends.is_empty() {
            return;
        }
        let ends_here: Vec<bool> = ends.iter().map(|&e| e > 0).collect();
        // Children first: end counts become visit counts.
        for (i, n) in nodes.iter().enumerate().rev() {
            let visits = ends[i];
            if visits == 0 {
                continue;
            }
            tally.reads[n.bank as usize] += visits;
            if let Some(p) = n.parent {
                debug_assert!((p as usize) < i, "parent {p} after child {i}");
                ends[p as usize] += visits;
                let prev = nodes[p as usize].bank;
                if prev != n.bank {
                    tally.count_pair(prev, n.bank, visits);
                }
            }
        }
        // Parents first: every chain pays each step on its path once, and
        // `ends` now takes each node's serial latency from its root; the
        // longest chain ends at one of `ends_here`. A chain's entry pays
        // only the L3 access.
        for (i, n) in nodes.iter().enumerate() {
            let (above, prev) = match n.parent {
                Some(p) => (ends[p as usize], nodes[p as usize].bank),
                None => (0, n.bank),
            };
            let step =
                u64::from(tally.axis.hops(prev, n.bank)) * tally.hop_latency + tally.l3_latency;
            tally.serial_total += ends[i] * step;
            ends[i] = above + step;
            if ends_here[i] {
                tally.serial_max = tally.serial_max.max(ends[i]);
            }
        }
    }
}

/// Run `link_list` under `cfg`.
pub fn run_link_list(params: LinkListParams, cfg: &RunConfig) -> Metrics {
    let mut alloc = alloc_for(cfg);
    let mode = node_mode(cfg);
    let mut engine = cfg.engine();
    let in_core = matches!(cfg.system, SystemConfig::InCore);
    let lists: Vec<AffLinkedList> = (0..params.lists)
        .map(|_| AffLinkedList::build(&mut alloc, params.nodes_per_list, mode).expect("list"))
        .collect();
    engine.import_residency(alloc.resident_per_bank());
    engine.offload_config_multicast(0, 1);
    let mining = cfg.profiling();
    if mining {
        declare_nodes(&mut engine, (params.lists * params.nodes_per_list) as u64);
    }
    let stride = (params.lists / 1024).max(1);

    let mut tally = ChainTally::new(&engine, in_core);
    for (i, list) in lists.iter().enumerate() {
        let banks = list.nodes().iter().map(|n| n.bank);
        if mining && i % stride == 0 {
            emit_chain_touches(&mut engine, banks.clone(), i as u64);
        }
        let core = (i % cfg.machine.num_banks() as usize) as u32;
        tally.chain(banks, core);
    }
    tally.finish(&mut engine);
    let mut m = engine.finish();
    m.degradation.merge(&alloc.degradation());
    cfg.hints.stamp(&mut m);
    m
}

/// Run `hash_join` under `cfg`.
pub fn run_hash_join(params: HashJoinParams, cfg: &RunConfig) -> Metrics {
    let mut alloc = alloc_for(cfg);
    let mode = node_mode(cfg);
    let mut rng = SimRng::new(cfg.seed ^ 0x44A5);
    let build: Vec<u64> = (0..params.build_keys).map(|_| rng.next_u64()).collect();
    let table =
        HashChainTable::build(&mut alloc, params.buckets, &build, mode).expect("hash table");
    let mut engine = cfg.engine();
    let in_core = matches!(cfg.system, SystemConfig::InCore);
    engine.import_residency(alloc.resident_per_bank());
    engine.offload_config_multicast(0, 2);
    let mining = cfg.profiling();
    if mining {
        declare_nodes(&mut engine, table.len() as u64);
    }
    let stride = (params.probe_keys / 1024).max(1);

    let mut tally = ChainTally::new(&engine, in_core);
    let mut banks: Vec<u32> = Vec::new();
    for i in 0..params.probe_keys {
        // Hit-rate-controlled probe key: hits reuse a stored key.
        let key = if rng.chance(params.hit_rate) {
            build[rng.index(build.len())]
        } else {
            rng.next_u64()
        };
        let (head_bank, _hit) = table.probe_into(key, &mut banks);
        let core = (i % cfg.machine.num_banks() as usize) as u32;
        // Probe = read head, then walk the chain.
        let probe = std::iter::once(head_bank).chain(banks.iter().copied());
        if mining && i % stride == 0 {
            emit_chain_touches(&mut engine, probe.clone(), i as u64);
        }
        tally.chain(probe, core);
    }
    tally.finish(&mut engine);
    let mut m = engine.finish();
    m.degradation.merge(&alloc.degradation());
    cfg.hints.stamp(&mut m);
    m
}

/// Run `bin_tree` under `cfg`.
pub fn run_bin_tree(params: BinTreeParams, cfg: &RunConfig) -> Metrics {
    let mut rng = SimRng::new(cfg.seed ^ 0xB17E);
    let keys: Vec<u64> = (0..params.nodes).map(|_| rng.next_u64()).collect();
    bin_tree_lookups(&keys, params.lookups, rng, cfg)
}

/// Build a bin_tree of `keys`, then look up `lookups` stored keys drawn
/// uniformly by `rng`. Each lookup is its end node's root path, charged
/// through [`ChainTally::path_ends`]; only the mining-sampled lookups walk
/// the tree, for their `ProfileTouch` events.
fn bin_tree_lookups(keys: &[u64], lookups: usize, mut rng: SimRng, cfg: &RunConfig) -> Metrics {
    let mut alloc = alloc_for(cfg);
    let mode = node_mode(cfg);
    let tree = AffBinaryTree::build(&mut alloc, keys, mode).expect("tree");
    let mut engine = cfg.engine();
    let in_core = matches!(cfg.system, SystemConfig::InCore);
    engine.import_residency(alloc.resident_per_bank());
    engine.offload_config_multicast(0, 1);
    let mining = cfg.profiling();
    if mining {
        declare_nodes(&mut engine, keys.len() as u64);
    }
    let stride = (lookups / 1024).max(1);

    let nodes = tree.nodes();
    let mut tally = ChainTally::new(&engine, in_core);
    let mut ends = tally.path_ends(nodes);
    let mut path: Vec<u32> = Vec::new();
    for i in 0..lookups {
        let j = rng.index(keys.len());
        if mining && i % stride == 0 {
            tree.lookup_path_banks_into(keys[j], &mut path);
            emit_chain_touches(&mut engine, path.iter().copied(), i as u64);
        }
        let core = (i % cfg.machine.num_banks() as usize) as u32;
        ends.end(nodes[j].lookup_end, core);
    }
    ends.settle();
    tally.finish(&mut engine);
    let mut m = engine.finish();
    m.degradation.merge(&alloc.degradation());
    cfg.hints.stamp(&mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_alloc::BankSelectPolicy;

    fn small_list() -> LinkListParams {
        LinkListParams {
            lists: 64,
            nodes_per_list: 128,
        }
    }

    fn small_tree() -> BinTreeParams {
        BinTreeParams {
            nodes: 4096,
            lookups: 8192,
        }
    }

    fn small_join() -> HashJoinParams {
        HashJoinParams {
            build_keys: 4096,
            probe_keys: 8192,
            buckets: 2048,
            hit_rate: 0.125,
        }
    }

    #[test]
    fn ndc_beats_in_core_on_pointer_chasing() {
        let p = small_list();
        let incore = run_link_list(p, &RunConfig::new(SystemConfig::InCore));
        let aff = run_link_list(p, &RunConfig::new(SystemConfig::aff_alloc_default()));
        assert!(
            aff.cycles < incore.cycles,
            "aff {} vs incore {}",
            aff.cycles,
            incore.cycles
        );
    }

    #[test]
    fn affinity_beats_baseline_layout_on_lists() {
        let p = small_list();
        let near = run_link_list(p, &RunConfig::new(SystemConfig::NearL3));
        let aff = run_link_list(p, &RunConfig::new(SystemConfig::aff_alloc_default()));
        assert!(aff.cycles < near.cycles);
        assert!(aff.total_hop_flits < near.total_hop_flits);
    }

    #[test]
    fn min_hop_bin_tree_pathology() {
        // Fig 13: Min-Hop piles the tree on one bank — eliminating migration
        // traffic but destroying bank parallelism and blowing the bank's
        // capacity; Hybrid-5 must win.
        let p = small_tree();
        let minhop = run_bin_tree(
            p,
            &RunConfig::new(SystemConfig::AffAlloc(BankSelectPolicy::MinHop)),
        );
        let hybrid = run_bin_tree(p, &RunConfig::new(SystemConfig::aff_alloc_default()));
        assert!(
            minhop.total_hop_flits < hybrid.total_hop_flits,
            "min-hop kills traffic"
        );
        assert!(
            hybrid.cycles < minhop.cycles,
            "...but hybrid still wins on time"
        );
        assert!(minhop.bank_imbalance > hybrid.bank_imbalance);
    }

    #[test]
    fn hash_join_runs_all_systems() {
        let p = small_join();
        for sys in [
            SystemConfig::InCore,
            SystemConfig::NearL3,
            SystemConfig::aff_alloc_default(),
        ] {
            let m = run_hash_join(p, &RunConfig::new(sys));
            assert!(m.cycles > 0, "{}", sys.label());
        }
    }

    #[test]
    fn hash_join_affinity_localizes_probes() {
        let p = small_join();
        let near = run_hash_join(p, &RunConfig::new(SystemConfig::NearL3));
        let aff = run_hash_join(p, &RunConfig::new(SystemConfig::aff_alloc_default()));
        assert!(aff.total_hop_flits < near.total_hop_flits);
    }

    #[test]
    fn closed_loop_recovers_chain_hints() {
        use aff_sim_core::mine::CoAccessMiner;
        use affinity_alloc::AffinityProfile;
        use std::sync::{Arc, Mutex};

        // Phase 1: profile an unhinted link_list run.
        let p = small_list();
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default());
        let miner = Arc::new(Mutex::new(CoAccessMiner::new()));
        let profiled = cfg.clone().with_hints(HintMode::NoHints);
        let none = run_link_list(p, &profiled.with_recorder(Arc::clone(&miner)));
        let profile = AffinityProfile::infer(&CoAccessMiner::finish_shared(&miner));
        assert_eq!(
            profile.region_hint(0).map(|h| &h.hint),
            Some(&InferredHint::Chain),
            "a 128-deref traversal per step must infer a chain"
        );

        // Phase 2: the Chain hint restores the predecessor affinity and the
        // annotated performance.
        let annotated = run_link_list(p, &cfg);
        let inferred = run_link_list(
            p,
            &cfg.clone()
                .with_hints(HintMode::Inferred(Arc::new(profile))),
        );
        assert_eq!(inferred.cycles, annotated.cycles);
        assert!(
            inferred.cycles < none.cycles,
            "chain hint must beat no hints"
        );
        assert_eq!(inferred.hint_source.as_deref(), Some("inferred"));
    }

    #[test]
    fn defaults_match_table3() {
        let l = LinkListParams::default();
        assert_eq!((l.lists, l.nodes_per_list), (1000, 512));
        let h = HashJoinParams::default();
        assert_eq!(h.build_keys, 256 * 1024);
        assert_eq!(h.probe_keys, 512 * 1024);
        assert!((h.hit_rate - 0.125).abs() < 1e-12);
        let b = BinTreeParams::default();
        assert_eq!((b.nodes, b.lookups), (128 * 1024, 512 * 1024));
    }

    /// `run_bin_tree`'s lookup loop before [`PathEnds`]: every lookup
    /// walks the tree by key compares and feeds its bank path to
    /// [`ChainTally::chain`].
    fn bin_tree_walked(keys: &[u64], lookups: usize, mut rng: SimRng, cfg: &RunConfig) -> Metrics {
        let mut alloc = alloc_for(cfg);
        let mode = node_mode(cfg);
        let tree = AffBinaryTree::build(&mut alloc, keys, mode).expect("tree");
        let mut engine = cfg.engine();
        let in_core = matches!(cfg.system, SystemConfig::InCore);
        engine.import_residency(alloc.resident_per_bank());
        engine.offload_config_multicast(0, 1);
        let mining = cfg.profiling();
        if mining {
            declare_nodes(&mut engine, keys.len() as u64);
        }
        let stride = (lookups / 1024).max(1);

        let mut tally = ChainTally::new(&engine, in_core);
        let mut banks: Vec<u32> = Vec::new();
        for i in 0..lookups {
            let key = keys[rng.index(keys.len())];
            tree.lookup_path_banks_into(key, &mut banks);
            if mining && i % stride == 0 {
                emit_chain_touches(&mut engine, banks.iter().copied(), i as u64);
            }
            let core = (i % cfg.machine.num_banks() as usize) as u32;
            tally.chain(banks.iter().copied(), core);
        }
        tally.finish(&mut engine);
        let mut m = engine.finish();
        m.degradation.merge(&alloc.degradation());
        cfg.hints.stamp(&mut m);
        m
    }

    #[test]
    fn path_ends_over_an_empty_tree_charge_nothing() {
        for in_core in [true, false] {
            let mut want = RunConfig::new(SystemConfig::NearL3).engine();
            fold_serial_ref(&mut want, &[], in_core);
            let mut got = RunConfig::new(SystemConfig::NearL3).engine();
            let mut tally = ChainTally::new(&got, in_core);
            tally.path_ends(&[]).settle();
            tally.finish(&mut got);
            assert_eq!(
                format!("{:?}", want.finish()),
                format!("{:?}", got.finish())
            );
        }
    }

    fn bin_tree_systems() -> [SystemConfig; 4] {
        [
            SystemConfig::InCore,
            SystemConfig::NearL3,
            SystemConfig::aff_alloc_default(),
            SystemConfig::AffAlloc(BankSelectPolicy::MinHop),
        ]
    }

    #[test]
    fn bin_tree_charges_what_walking_every_lookup_does() {
        use aff_sim_core::config::MachineConfig;
        use aff_sim_core::fault::FaultPlan;
        let dead = MachineConfig {
            faults: FaultPlan::none().fail_bank(3).fail_bank(40),
            ..MachineConfig::paper_default()
        };
        for (seed, machine) in [(2023, MachineConfig::paper_default()), (8191, dead)] {
            let mut rng = SimRng::new(seed);
            // Distinct keys, and keys from 64 values (mostly duplicates).
            let distinct: Vec<u64> = (0..1500).map(|_| rng.next_u64()).collect();
            let dups: Vec<u64> = (0..1500).map(|_| rng.next_u64() % 64).collect();
            for keys in [&distinct, &dups] {
                for sys in bin_tree_systems() {
                    let cfg = RunConfig::new(sys)
                        .with_machine(machine.clone())
                        .with_seed(seed);
                    let lookups = SimRng::new(seed ^ 0xB17E);
                    let want = bin_tree_walked(keys, 3000, lookups.clone(), &cfg);
                    let got = bin_tree_lookups(keys, 3000, lookups, &cfg);
                    assert_eq!(format!("{want:?}"), format!("{got:?}"), "{}", sys.label());
                }
            }
        }
    }

    #[test]
    fn bin_tree_mining_infers_the_walked_profile() {
        use aff_sim_core::mine::CoAccessMiner;
        use affinity_alloc::AffinityProfile;
        use std::sync::{Arc, Mutex};

        let mut rng = SimRng::new(2023);
        let keys: Vec<u64> = (0..2000).map(|_| rng.next_u64() % 64).collect();
        let profile = |walked: bool| {
            let miner = Arc::new(Mutex::new(CoAccessMiner::new()));
            let cfg = RunConfig::new(SystemConfig::aff_alloc_default())
                .with_hints(HintMode::NoHints)
                .with_recorder(Arc::clone(&miner));
            let lookups = SimRng::new(0xB17E);
            let m = if walked {
                bin_tree_walked(&keys, 4096, lookups, &cfg)
            } else {
                bin_tree_lookups(&keys, 4096, lookups, &cfg)
            };
            let profile = AffinityProfile::infer(&CoAccessMiner::finish_shared(&miner));
            (format!("{m:?}"), profile)
        };
        let (want, got) = (profile(true), profile(false));
        assert_eq!(want, got);
        assert_eq!(
            got.1.region_hint(0).map(|h| &h.hint),
            Some(&InferredHint::Chain)
        );
    }

    /// The per-dereference charging [`ChainTally`] replaced: three or four
    /// engine calls per dereference, the chain entering at `entry`.
    fn charge_chain_ref(
        engine: &mut SimEngine,
        banks: &[u32],
        entry: u32,
        in_core: bool,
        core: u32,
    ) -> u64 {
        let cfg = engine.config();
        let (hop_lat, l3_lat) = (cfg.hop_latency, cfg.l3_latency);
        let mut serial = 0u64;
        let mut prev = entry;
        for &b in banks {
            if in_core {
                engine.core_read_lines(core, b, 1);
                serial += 2 * u64::from(engine.topo().manhattan(core, b)) * hop_lat + l3_lat;
            } else {
                engine.bank_read_lines(b, 1);
                engine.se_ops(b, 1);
                if prev != b {
                    engine.migrate(prev, b, 1);
                }
                serial += u64::from(engine.topo().manhattan(prev, b)) * hop_lat + l3_lat;
                prev = b;
            }
        }
        serial
    }

    /// The serial fold [`ChainTally::finish`] replaced.
    fn fold_serial_ref(engine: &mut SimEngine, per_chain: &[u64], in_core: bool) {
        let cfg = engine.config();
        let per_bank = if in_core {
            IN_CORE_MLP
        } else {
            u64::from(cfg.sel3_streams_per_bank)
        };
        let concurrency = u64::from(cfg.num_banks()) * per_bank;
        let total: u64 = per_chain.iter().sum();
        let longest = per_chain.iter().copied().max().unwrap_or(0);
        engine.chain_cycles((total / concurrency.max(1)).max(longest));
    }

    proptest::proptest! {
        /// [`ChainTally`] charges exactly what the per-dereference loop
        /// does: the same serial latency per chain, the same link flits and
        /// every `Metrics` field, on healthy and faulted machines. Every call
        /// site enters a chain at its first bank, so the reference does too.
        #[test]
        fn chain_tally_matches_the_per_dereference_loop(
            geometry in 0usize..3,
            in_core in proptest::prelude::any::<bool>(),
            chains in proptest::collection::vec(
                (proptest::collection::vec(proptest::prelude::any::<u32>(), 0..41),
                 proptest::prelude::any::<u32>()),
                0..2000,
            ),
            dead in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..4),
        ) {
            use aff_sim_core::config::MachineConfig;
            use aff_sim_core::fault::FaultPlan;
            let (mesh, faulted) = [(8, false), (8, true), (16, false)][geometry];
            let mut cfg = MachineConfig {
                mesh_x: mesh,
                mesh_y: mesh,
                ..MachineConfig::paper_default()
            };
            let n = cfg.num_banks();
            if faulted {
                cfg.faults = dead
                    .iter()
                    .fold(FaultPlan::none(), |plan, &b| plan.fail_bank(b % n));
            }
            let chains: Vec<(Vec<u32>, u32)> = chains
                .into_iter()
                .map(|(banks, core)| (banks.into_iter().map(|b| b % n).collect(), core % n))
                .collect();

            let mut want = SimEngine::new(cfg.clone());
            let serials: Vec<u64> = chains
                .iter()
                .map(|(banks, core)| {
                    let entry = banks.first().copied().unwrap_or(*core);
                    charge_chain_ref(&mut want, banks, entry, in_core, *core)
                })
                .collect();
            fold_serial_ref(&mut want, &serials, in_core);

            let mut got = SimEngine::new(cfg);
            let mut tally = ChainTally::new(&got, in_core);
            for ((banks, core), &serial) in chains.iter().zip(&serials) {
                proptest::prop_assert_eq!(tally.chain(banks.iter().copied(), *core), serial);
            }
            tally.finish(&mut got);

            proptest::prop_assert_eq!(
                want.traffic_mut().link_flits(),
                got.traffic_mut().link_flits()
            );
            let (want, got) = (want.finish(), got.finish());
            proptest::prop_assert_eq!(want.cycles, got.cycles);
            proptest::prop_assert_eq!(want.breakdown, got.breakdown);
            proptest::prop_assert_eq!(want.hop_flits, got.hop_flits);
            proptest::prop_assert_eq!(want.energy, got.energy);
            proptest::prop_assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());
            proptest::prop_assert_eq!(want.degradation, got.degradation);
            proptest::prop_assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }

        /// [`PathEnds`] charges exactly what the per-dereference loop does
        /// over each lookup's root path: the same serial total, link flits
        /// and every `Metrics` field, on healthy and faulted machines.
        /// Node `i`'s parent is drawn below `i` (a forest when drawn
        /// absent), and lookups name random `(end, core)` pairs.
        #[test]
        fn path_ends_match_the_per_dereference_loop(
            geometry in 0usize..3,
            in_core in proptest::prelude::any::<bool>(),
            links in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), 0u32..8, proptest::prelude::any::<u32>()),
                0..2000,
            ),
            lookups in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>()),
                0..2000,
            ),
            dead in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..4),
        ) {
            use aff_sim_core::config::MachineConfig;
            use aff_sim_core::fault::FaultPlan;
            let (mesh, faulted) = [(8, false), (8, true), (16, false)][geometry];
            let mut cfg = MachineConfig {
                mesh_x: mesh,
                mesh_y: mesh,
                ..MachineConfig::paper_default()
            };
            let n = cfg.num_banks();
            if faulted {
                cfg.faults = dead
                    .iter()
                    .fold(FaultPlan::none(), |plan, &b| plan.fail_bank(b % n));
            }
            // One root in eight (node 0 always); the rest hang below.
            let nodes: Vec<TreeNode> = links
                .iter()
                .enumerate()
                .map(|(i, &(p, root, b))| TreeNode {
                    key: 0,
                    left: None,
                    right: None,
                    parent: (i > 0 && root > 0).then(|| p % i as u32),
                    lookup_end: i as u32,
                    va: aff_mem::addr::VAddr(0),
                    bank: b % n,
                })
                .collect();
            let lookups: Vec<(u32, u32)> = if nodes.is_empty() {
                Vec::new()
            } else {
                lookups
                    .into_iter()
                    .map(|(end, core)| (end % nodes.len() as u32, core % n))
                    .collect()
            };

            let mut want = SimEngine::new(cfg.clone());
            let serials: Vec<u64> = lookups
                .iter()
                .map(|&(end, core)| {
                    let mut path: Vec<u32> =
                        std::iter::successors(Some(end), |&i| nodes[i as usize].parent)
                            .map(|i| nodes[i as usize].bank)
                            .collect();
                    path.reverse();
                    charge_chain_ref(&mut want, &path, path[0], in_core, core)
                })
                .collect();
            fold_serial_ref(&mut want, &serials, in_core);

            let mut got = SimEngine::new(cfg);
            let mut tally = ChainTally::new(&got, in_core);
            let mut ends = tally.path_ends(&nodes);
            for &(end, core) in &lookups {
                ends.end(end, core);
            }
            ends.settle();
            proptest::prop_assert_eq!(tally.serial_total, serials.iter().sum::<u64>());
            tally.finish(&mut got);

            proptest::prop_assert_eq!(
                want.traffic_mut().link_flits(),
                got.traffic_mut().link_flits()
            );
            let (want, got) = (want.finish(), got.finish());
            proptest::prop_assert_eq!(want.cycles, got.cycles);
            proptest::prop_assert_eq!(want.breakdown, got.breakdown);
            proptest::prop_assert_eq!(want.hop_flits, got.hop_flits);
            proptest::prop_assert_eq!(want.energy, got.energy);
            proptest::prop_assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());
            proptest::prop_assert_eq!(want.degradation, got.degradation);
            proptest::prop_assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }
    }
}
