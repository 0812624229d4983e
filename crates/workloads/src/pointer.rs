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
use aff_ds::tree::AffBinaryTree;
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
fn emit_chain_touches(engine: &mut SimEngine, banks: &[u32], step: u64) {
    for &b in banks {
        engine.record(Event::ProfileTouch {
            region: 0,
            elem: u64::from(b),
            step,
        });
    }
}

/// Charge one chain traversal (a sequence of dereferences at `banks`) and
/// return its serial latency in cycles.
fn charge_chain(
    engine: &mut SimEngine,
    banks: &[u32],
    entry_bank: u32,
    in_core: bool,
    core: u32,
) -> u64 {
    let cfg = engine.config();
    let (hop_lat, l3_lat) = (cfg.hop_latency, cfg.l3_latency);
    let mut serial = 0u64;
    let mut prev = entry_bank;
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

/// Aggregate the per-chain serial latencies into the engine's chain term,
/// given how many chains run concurrently.
fn fold_serial(engine: &mut SimEngine, per_chain: &[u64], concurrency: u64) {
    let total: u64 = per_chain.iter().sum();
    let longest = per_chain.iter().copied().max().unwrap_or(0);
    // Chains execute `concurrency` at a time; the critical path is the
    // larger of (work / concurrency) and the single longest chain.
    engine.chain_cycles((total / concurrency.max(1)).max(longest));
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

    let mut serials = Vec::with_capacity(params.lists);
    let mut banks: Vec<u32> = Vec::new();
    for (i, list) in lists.iter().enumerate() {
        banks.clear();
        banks.extend(list.nodes().iter().map(|n| n.bank));
        if mining && i % stride == 0 {
            emit_chain_touches(&mut engine, &banks, i as u64);
        }
        let core = (i % cfg.machine.num_banks() as usize) as u32;
        let entry = if banks.is_empty() { core } else { banks[0] };
        serials.push(charge_chain(&mut engine, &banks, entry, in_core, core));
    }
    let concurrency = if in_core {
        u64::from(cfg.machine.num_banks()) * IN_CORE_MLP
    } else {
        u64::from(cfg.machine.num_banks()) * u64::from(cfg.machine.sel3_streams_per_bank)
    };
    fold_serial(&mut engine, &serials, concurrency);
    let mut m = engine.try_finish().unwrap_or_else(|e| panic!("{e}"));
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

    let mut serials = Vec::with_capacity(params.probe_keys);
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
        banks.insert(0, head_bank);
        if mining && i % stride == 0 {
            emit_chain_touches(&mut engine, &banks, i as u64);
        }
        serials.push(charge_chain(&mut engine, &banks, head_bank, in_core, core));
    }
    let concurrency = if in_core {
        u64::from(cfg.machine.num_banks()) * IN_CORE_MLP
    } else {
        u64::from(cfg.machine.num_banks()) * u64::from(cfg.machine.sel3_streams_per_bank)
    };
    fold_serial(&mut engine, &serials, concurrency);
    let mut m = engine.try_finish().unwrap_or_else(|e| panic!("{e}"));
    m.degradation.merge(&alloc.degradation());
    cfg.hints.stamp(&mut m);
    m
}

/// Run `bin_tree` under `cfg`.
pub fn run_bin_tree(params: BinTreeParams, cfg: &RunConfig) -> Metrics {
    let mut alloc = alloc_for(cfg);
    let mode = node_mode(cfg);
    let mut rng = SimRng::new(cfg.seed ^ 0xB17E);
    let keys: Vec<u64> = (0..params.nodes).map(|_| rng.next_u64()).collect();
    let tree = AffBinaryTree::build(&mut alloc, &keys, mode).expect("tree");
    let mut engine = cfg.engine();
    let in_core = matches!(cfg.system, SystemConfig::InCore);
    engine.import_residency(alloc.resident_per_bank());
    engine.offload_config_multicast(0, 1);
    let mining = cfg.profiling();
    if mining {
        declare_nodes(&mut engine, params.nodes as u64);
    }
    let stride = (params.lookups / 1024).max(1);

    let mut serials = Vec::with_capacity(params.lookups);
    let mut banks: Vec<u32> = Vec::new();
    for i in 0..params.lookups {
        let key = keys[rng.index(keys.len())];
        tree.lookup_path_banks_into(key, &mut banks);
        if mining && i % stride == 0 {
            emit_chain_touches(&mut engine, &banks, i as u64);
        }
        let core = (i % cfg.machine.num_banks() as usize) as u32;
        let entry = banks.first().copied().unwrap_or(core);
        serials.push(charge_chain(&mut engine, &banks, entry, in_core, core));
    }
    let concurrency = if in_core {
        u64::from(cfg.machine.num_banks()) * IN_CORE_MLP
    } else {
        u64::from(cfg.machine.num_banks()) * u64::from(cfg.machine.sel3_streams_per_bank)
    };
    fold_serial(&mut engine, &serials, concurrency);
    let mut m = engine.try_finish().unwrap_or_else(|e| panic!("{e}"));
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
}
