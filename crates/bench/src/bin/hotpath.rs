//! Hot-path microbenchmark: times the per-message accounting layers in
//! isolation — route store, heap translation, engine charge
//! accumulation, folded remote atomics, pointer-chain tallies, bin_tree
//! lookup charging and the Eq-4 argmin kernel, over many addresses and over
//! one — plus Kronecker input generation, Fig 6's chunk oracle and the
//! stencil charge walk, each against the
//! scalar/hash-map/write-through/rebuild/per-pair/walk baseline it replaced,
//! and writes `BENCH_hotpath.json` (schema `aff-bench/hotpath-v10`). Each
//! side of a layer is the median of [`REPEATS`] runs, alternating with the
//! other side's.
//! The route layer runs at 8×8 *and* 16×16 (both hold every source row in
//! the route store's 1 MiB budget, so neither evicts), and a `route_memory`
//! section records the resident route-store bytes at 1024 banks, where the
//! budget holds 64 of 1024 rows, against the dense `n²` entry-array curve.
//!
//! Schema v10 (from v9): the `stencil_walk` layer is new; its `ops` are
//! stencil elements run (hotspot and pathfinder).
//! Schema v9 (from v8): the `tree_lookups` layer is new; its `ops` are
//! lookups (both models).
//! Schema v8 (from v7): the `chunk_oracle` layer is new; its `ops` are
//! edges placed, over a 64 B-chunk and a one-edge-chunk placement.
//! Schema v7 (from v6): the `chain_charge` and `eq4_single` layers are new;
//! `chain_charge`'s `ops` are dereferences (both models), `eq4_single`'s
//! are one-address picks.
//! Schema v6 (from v5): the `occupancy_scan` layer is gone with the
//! lane-chunked counter scans it timed; the counters are plain iterator
//! sums and maxima.
//! Schema v5 (from v4): the `kron_gen` layer is new; its `ops` are
//! generated undirected edges, `--ops / 16` rounded down to a power of two.
//! Schema v4 (from v3): the `primitive_fold` layer is new, every speedup is
//! a ratio of medians rather than of single runs, and `dense_entry_bytes`
//! counts the 16 B route entry the store actually keeps (v3 counted 8 B).
//!
//! ```text
//! cargo run --release -p aff-bench --bin hotpath -- [--ops N] [--out PATH]
//! ```
//!
//! The access streams are seeded [`SimRng`] draws, so the measured work is
//! identical run to run; only the wall-clock varies.

use aff_ds::csr::reference::manhattan_chunk_banks;
use aff_ds::csr::ChunkedCsr;
use aff_ds::graph::Graph;
use aff_ds::layout::AllocMode;
use aff_ds::tree::AffBinaryTree;
use aff_mem::space::{AddressSpace, HeapMapping};
use aff_noc::topology::{AxisHops, Topology};
use aff_noc::traffic::{TrafficClass, TrafficMatrix};
use aff_nsc::engine::SimEngine;
use aff_sim_core::config::{MachineConfig, PAGE_SIZE};
use aff_sim_core::rng::SimRng;
use aff_workloads::affine::reference::run_stencil_walked;
use aff_workloads::affine::{run_stencil, Stencil};
use aff_workloads::config::{RunConfig, SystemConfig};
use aff_workloads::gen::reference::weighted_by_edge_list;
use aff_workloads::gen::{self, KRON_A, KRON_B, KRON_C};
use aff_workloads::pointer::reference::charge_chains_per_deref;
use aff_workloads::pointer::ChainTally;
use aff_workloads::suite::KRON_EDGE_FACTOR;
use affinity_alloc::{AffinityAllocator, BankSelectPolicy};
use std::collections::HashMap;
use std::fmt::Debug;
use std::time::Instant;

/// Timed runs of each side of a layer; the reported time is their median.
const REPEATS: usize = 5;

/// Remote atomics per occupancy phase in the `primitive_fold` layer.
const FOLD_PHASE_OPS: usize = 50_000;

/// One measured layer: the optimized path and its baseline, in Mops/sec.
struct Layer {
    name: &'static str,
    ops: u64,
    fast_mops: f64,
    base_mops: f64,
    /// Checksum equality witness: both paths did the same accounting.
    checksum: u64,
}

impl Layer {
    fn new(name: &'static str, ops: u64, (fast, base): (f64, f64), checksum: u64) -> Self {
        let mops = |secs: f64| ops as f64 / 1e6 / secs.max(1e-12);
        Self {
            name,
            ops,
            fast_mops: mops(fast),
            base_mops: mops(base),
            checksum,
        }
    }
}

/// Median seconds of [`REPEATS`] runs of `fast` and of `base`, alternating,
/// each on a fresh untimed `setup()` state, plus the witness both sides
/// returned. Panics with `what` if any run's witness differs from the
/// first fast run's.
fn time_pair<S, T: PartialEq + Debug>(
    setup: impl Fn() -> S,
    fast: impl Fn(&mut S) -> T,
    base: impl Fn(&mut S) -> T,
    what: &str,
) -> ((f64, f64), T) {
    let mut witness = None;
    let mut run = |side: &dyn Fn(&mut S) -> T, times: &mut Vec<f64>| {
        let mut state = setup();
        let t0 = Instant::now();
        let out = side(&mut state);
        times.push(t0.elapsed().as_secs_f64());
        match &witness {
            None => witness = Some(out),
            Some(w) => assert_eq!(*w, out, "{what}"),
        }
    };
    let (mut fast_s, mut base_s) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        run(&fast, &mut fast_s);
        run(&base, &mut base_s);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (
        (median(fast_s), median(base_s)),
        witness.expect("REPEATS > 0"),
    )
}

/// Seeded `(src, dst)` message stream with same-pair runs of up to
/// `max_run` — the shape a vertex's neighbor sweep produces (a linked-CSR
/// chain node covers a run of edges on one bank).
fn pair_stream(ops: usize, banks: u32, max_run: u64) -> Vec<(u32, u32)> {
    let mut rng = SimRng::new(0xB0B);
    let mut pairs = Vec::with_capacity(ops);
    while pairs.len() < ops {
        let src = rng.below(u64::from(banks)) as u32;
        let dst = rng.below(u64::from(banks)) as u32;
        let run = 1 + rng.below(max_run) as usize;
        for _ in 0..run.min(ops - pairs.len()) {
            pairs.push((src, dst));
        }
    }
    pairs
}

/// Layer 1: `TrafficMatrix::record_n` through the route store's per-source
/// rows versus the old shape — a `HashMap<(src, dst), Vec<link>>` cache
/// probed per message.
fn bench_route_table(ops: u64, name: &'static str, mesh: u32) -> Layer {
    let topo = Topology::new(mesh, mesh);
    let pairs = pair_stream(ops as usize, topo.num_banks(), 4);
    let cfg = MachineConfig::paper_default();

    let matrix = || TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes);
    let flits = matrix().flits_for(64);
    let (times, sum) = time_pair(
        || (),
        |_| {
            let mut m = matrix();
            for &(s, d) in &pairs {
                m.record_n(s, d, 64, TrafficClass::Data, 1);
            }
            m.sum_link_flits()
        },
        |_| {
            let mut cache: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
            let mut link_flits = vec![0u64; topo.num_links()];
            for &(s, d) in &pairs {
                let links = cache.entry((s, d)).or_insert_with(|| {
                    topo.xy_route(s, d)
                        .into_iter()
                        .map(|l| topo.link_index(l) as u32)
                        .collect()
                });
                for &idx in links.iter() {
                    link_flits[idx as usize] += flits;
                }
            }
            link_flits.iter().sum::<u64>()
        },
        "route layers must account identically",
    );
    Layer::new(name, ops, times, sum)
}

/// Route-store memory at scale: resident bytes after a realistic message
/// stream on a 32×32 mesh (1024 banks), against what a dense `n²` entry
/// array alone would cost at that size. The store's byte budget bounds its
/// resident rows, so its footprint must stay far below the dense curve.
struct RouteMemory {
    banks: u32,
    on_demand_bytes: usize,
    dense_entry_bytes: usize,
}

fn measure_route_memory(ops: u64) -> RouteMemory {
    let topo = Topology::new(32, 32);
    let n = topo.num_banks();
    let cfg = MachineConfig::paper_default();
    let pairs = pair_stream((ops as usize).min(1 << 20), n, 4);
    let mut m = TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes);
    for &(s, d) in &pairs {
        m.record_n(s, d, 64, TrafficClass::Data, 1);
    }
    RouteMemory {
        banks: n,
        on_demand_bytes: m.route_table_bytes(),
        // A dense array of the store's 16 B route entries, n² × 16 B
        // before any link arena — the curve budgeted rows avoid.
        dense_entry_bytes: n as usize * n as usize * 16,
    }
}

/// Layer 2: `AddressSpace::bank_of` under `HeapMapping::Random` — flat page
/// table plus last-translation cache versus a `HashMap` page map.
fn bench_translation(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    let heap_bytes = 8u64 << 20;

    let banks = u64::from(cfg.num_banks());
    let (times, sum) = time_pair(
        || {
            let mut space = AddressSpace::new(cfg.clone());
            space.set_heap_mapping(HeapMapping::Random { seed: 7 });
            let base_va = space.heap_alloc(heap_bytes, PAGE_SIZE);
            (space, base_va)
        },
        // Sequential element scan: consecutive hits on each page, like a
        // property-array sweep.
        |(space, base_va)| {
            let mut sum = 0u64;
            for i in 0..ops {
                let va = *base_va + (i * 8) % heap_bytes;
                sum += u64::from(space.bank_of(va));
            }
            sum
        },
        // The old shape: per-lookup HashMap probe of vpn -> ppn with the
        // same lazy first-touch frame draws.
        |_| {
            let mut page_map: HashMap<u64, u64> = HashMap::new();
            let mut rng = SimRng::new(7);
            let mut sum = 0u64;
            for i in 0..ops {
                let off = (i * 8) % heap_bytes;
                let (vpn, in_page) = (off / PAGE_SIZE, off % PAGE_SIZE);
                let ppn = *page_map.entry(vpn).or_insert_with(|| rng.below(1 << 24));
                let pa = ppn * PAGE_SIZE + in_page;
                sum += (pa / cfg.default_interleave) % banks;
            }
            sum
        },
        "translation layers must agree",
    );
    Layer::new("translation", ops, times, sum)
}

/// Layer 3: the same engine charge primitives with charge accumulation on
/// versus write-through (one `TrafficMatrix::record_n` per message, the
/// old engine behavior).
fn bench_coalescing(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    // One linked-CSR chain node serves a run of edges from one bank.
    let pairs = pair_stream(ops as usize, cfg.num_banks(), 16);

    let run = |coalesce: bool| {
        let mut engine = SimEngine::new(cfg.clone());
        engine.set_coalescing(coalesce);
        for &(s, d) in &pairs {
            engine.indirect(s, d, 8, 1);
        }
        engine.traffic_mut().sum_link_flits()
    };
    let (times, sum) = time_pair(
        || (),
        |_| run(true),
        |_| run(false),
        "coalescing layers must agree",
    );
    Layer::new("coalescing", ops, times, sum)
}

/// Layer 4: a graph kernel's remote-atomic stream on 8×8, one occupancy
/// phase per [`FOLD_PHASE_OPS`] atomics, with whole primitives folded into
/// the charge table versus write-through (every event of every atomic
/// applied per call). The witness is the full
/// [`Metrics`](aff_nsc::engine::Metrics) of the run,
/// occupancy timeline included.
fn bench_primitive_fold(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    // Edge banks sweep a chain node's run of edges; property banks are
    // random.
    let pairs = pair_stream(ops as usize, cfg.num_banks(), 16);
    let run = |coalesce: bool| {
        let mut engine = SimEngine::new(cfg.clone());
        engine.set_coalescing(coalesce);
        for phase in pairs.chunks(FOLD_PHASE_OPS) {
            engine.begin_phase();
            for &(s, d) in phase {
                engine.remote_atomic(s, d, 1);
            }
            engine.end_phase();
        }
        let m = engine.finish();
        (m.total_hop_flits, format!("{m:?}"))
    };
    let (times, (hop_flits, _)) = time_pair(
        || (),
        |_| run(true),
        |_| run(false),
        "folded atomics must account identically",
    );
    Layer::new("primitive_fold", ops, times, hop_flits)
}

/// Layer 5: the Eq-4 bank-select argmin — `lanes::eq4_argmin`, the kernel
/// `select_bank` runs on the candidates' hop sums (an integer Min-Hop
/// argmin, or the fused Hybrid score + total-order argmin with exact
/// bound pruning), on a 32×32 mesh with three affinity addresses, versus
/// the old shape: an iterator `min_by` over lazily computed scalar scores
/// with a `total_cmp` comparator closure. Both start from the same
/// per-candidate hop counts, computed once.
fn bench_argmin(ops: u64) -> Layer {
    use affinity_alloc::lanes::{eq4_argmin, Eq4Candidate, HopSums};
    use affinity_alloc::policy::{argmin_score, score};

    let topo = Topology::new(32, 32);
    let axis = AxisHops::new(&topo);
    let candidates = topo.num_banks() as usize; // the largest swept geometry
    let calls = (ops as usize / candidates).max(1);
    let ops = (calls * candidates) as u64;
    let mut rng = SimRng::new(0xE94);
    let aff: Vec<u32> = (0..3)
        .map(|_| rng.below(candidates as u64) as u32)
        .collect();
    let ids: Vec<u32> = (0..candidates as u32).collect();
    let cands: Vec<Eq4Candidate> = ids
        .iter()
        .map(|&b| Eq4Candidate::new(&axis, b, 1))
        .collect();
    let mut hops = HopSums::default();
    hops.compute(&axis, &cands, &aff);
    let avg_hops: Vec<f64> = hops
        .sums()
        .iter()
        .map(|&s| f64::from(s) / aff.len() as f64)
        .collect();
    let loads: Vec<u64> = (0..candidates).map(|_| rng.below(4096)).collect();
    // The mean of `loads`, as `select_bank` would see it.
    let avg_load = loads.iter().sum::<u64>() as f64 / candidates as f64;
    let h = 5.0;

    let (times, sum) = time_pair(
        || (),
        |_| {
            let mut sum = 0u64;
            for call in 0..calls {
                // Perturb the average like successive allocations do, so
                // the score computation cannot be hoisted out of the loop.
                let avg = avg_load + (call % 7) as f64;
                let best = eq4_argmin(&cands, &hops, &loads, avg, h);
                sum += u64::from(best.expect("non-empty"));
            }
            sum
        },
        |_| {
            let mut sum = 0u64;
            for call in 0..calls {
                let avg = avg_load + (call % 7) as f64;
                let best = argmin_score(
                    ids.iter()
                        .map(|&i| (i, score(avg_hops[i as usize], loads[i as usize], avg, h))),
                );
                sum += u64::from(best.expect("non-empty"));
            }
            sum
        },
        "argmin layers must pick identical banks",
    );
    Layer::new("argmin_simd", ops, times, sum)
}

/// Layer 6: a bin_tree run's chain charging on 8×8, In-Core and Near-L3 —
/// [`ChainTally`], one engine call per distinct charge with its summed
/// count, versus the per-dereference loop it replaced
/// ([`charge_chains_per_deref`]).
/// The stream is the lookup paths of a Hybrid-5 tree, cores cycling over
/// the tiles as `run_bin_tree` assigns them. The witness is both runs'
/// full [`Metrics`](aff_nsc::engine::Metrics).
fn bench_chain_charge(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    let banks = cfg.num_banks();
    let mut rng = SimRng::new(0xB17E);
    let keys: Vec<u64> = (0..16_384).map(|_| rng.next_u64()).collect();
    let mut alloc = AffinityAllocator::new(cfg.clone(), BankSelectPolicy::Hybrid { h: 5.0 });
    let tree = AffBinaryTree::build(&mut alloc, &keys, AllocMode::Affinity).expect("tree");
    // Lookup paths until each model charges about `ops / 2` dereferences.
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut derefs = 0u64;
    while derefs * 2 < ops {
        let mut path = Vec::new();
        tree.lookup_path_banks_into(keys[rng.index(keys.len())], &mut path);
        derefs += path.len() as u64;
        paths.push(path);
    }
    let core = |i: usize| (i % banks as usize) as u32;
    let run = |tallied: bool| {
        let mut out = Vec::new();
        for in_core in [true, false] {
            let mut engine = SimEngine::new(cfg.clone());
            if tallied {
                let mut tally = ChainTally::new(&engine, in_core);
                for (i, path) in paths.iter().enumerate() {
                    tally.chain(path.iter().copied(), core(i));
                }
                tally.finish(&mut engine);
            } else {
                let chains = paths.iter().enumerate();
                let chains = chains.map(|(i, path)| (path.as_slice(), core(i)));
                charge_chains_per_deref(&mut engine, chains, in_core);
            }
            let m = engine.finish();
            out.push((m.total_hop_flits, format!("{m:?}")));
        }
        out
    };
    let (times, witness) = time_pair(
        || (),
        |_| run(true),
        |_| run(false),
        "chain tallies must charge what the per-dereference loop does",
    );
    let hop_flits = witness.iter().map(|(f, _)| f).sum();
    Layer::new("chain_charge", 2 * derefs, times, hop_flits)
}

/// Layer 7: a Hybrid-5 bin_tree's lookup charging on 8×8, In-Core and
/// Near-L3 — each lookup named by its end node and charged through
/// [`ChainTally::path_ends`], versus walking it by key compares
/// (`lookup_path_banks_into`) into [`ChainTally::chain`], the loop
/// `run_bin_tree` ran before. Cores cycle over the tiles as in
/// `run_bin_tree`. The witness is both runs' full
/// [`Metrics`](aff_nsc::engine::Metrics).
fn bench_tree_lookups(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    let banks = cfg.num_banks() as usize;
    let mut rng = SimRng::new(0xB17E);
    let keys: Vec<u64> = (0..32_768).map(|_| rng.next_u64()).collect();
    let mut alloc = AffinityAllocator::new(cfg.clone(), BankSelectPolicy::Hybrid { h: 5.0 });
    let tree = AffBinaryTree::build(&mut alloc, &keys, AllocMode::Affinity).expect("tree");
    let lookups: Vec<usize> = (0..ops / 2).map(|_| rng.index(keys.len())).collect();
    let run = |counted: bool| {
        let mut out = Vec::new();
        for in_core in [true, false] {
            let mut engine = SimEngine::new(cfg.clone());
            let mut tally = ChainTally::new(&engine, in_core);
            if counted {
                let nodes = tree.nodes();
                let mut ends = tally.path_ends(nodes);
                for (i, &j) in lookups.iter().enumerate() {
                    ends.end(nodes[j].lookup_end, (i % banks) as u32);
                }
                ends.settle();
            } else {
                let mut path = Vec::new();
                for (i, &j) in lookups.iter().enumerate() {
                    tree.lookup_path_banks_into(keys[j], &mut path);
                    tally.chain(path.iter().copied(), (i % banks) as u32);
                }
            }
            tally.finish(&mut engine);
            let m = engine.finish();
            out.push((m.total_hop_flits, format!("{m:?}")));
        }
        out
    };
    let (times, witness) = time_pair(
        || (),
        |_| run(true),
        |_| run(false),
        "counted lookup ends must charge what walking every lookup does",
    );
    let hop_flits = witness.iter().map(|(f, _)| f).sum();
    Layer::new("tree_lookups", 2 * lookups.len() as u64, times, hop_flits)
}

/// Layer 8: one-address Eq-4 picks on 8×8 under Hybrid-5, the shape of a
/// link_list build: each node's affinity is its predecessor's bank, every
/// pick loads its bank, and a new list starts every 512 nodes at a random
/// bank. `lanes::eq4_argmin_ordered` over the cached [`HopOrders`] of the
/// affinity bank versus `HopSums::compute` + `eq4_argmin` over every
/// candidate, the path every pick took before. The witness is a digest of
/// the picks.
///
/// [`HopOrders`]: affinity_alloc::lanes::HopOrders
fn bench_eq4_single(ops: u64) -> Layer {
    use affinity_alloc::lanes::{eq4_argmin, eq4_argmin_ordered, Eq4Candidate, HopOrders, HopSums};

    let topo = Topology::new(8, 8);
    let axis = AxisHops::new(&topo);
    let banks = topo.num_banks();
    let cands: Vec<Eq4Candidate> = (0..banks).map(|b| Eq4Candidate::new(&axis, b, 1)).collect();
    let h = 5.0;
    let starts: Vec<u32> = {
        let mut rng = SimRng::new(0x11575);
        (0..ops.div_ceil(512))
            .map(|_| rng.below(u64::from(banks)) as u32)
            .collect()
    };
    // Build `ops` nodes with `pick(prev bank, loads, avg load)`.
    let build = |pick: &mut dyn FnMut(u32, &[u64], f64) -> u32| {
        let mut loads = vec![0u64; banks as usize];
        let (mut total, mut prev, mut digest) = (0u64, 0u32, 0xCBF2_9CE4_8422_2325u64);
        for i in 0..ops {
            if i % 512 == 0 {
                prev = starts[(i / 512) as usize];
            }
            let bank = pick(prev, &loads, total as f64 / f64::from(banks));
            loads[bank as usize] += 1;
            total += 1;
            prev = bank;
            digest = (digest ^ u64::from(bank)).wrapping_mul(0x0100_0000_01B3);
        }
        digest
    };
    let (times, digest) = time_pair(
        || (),
        |_| {
            let mut orders = HopOrders::default();
            build(&mut |a, loads, avg| {
                let order = orders.order(&axis, &cands, a);
                eq4_argmin_ordered(&cands, order, loads, avg, h).expect("non-empty")
            })
        },
        |_| {
            let mut hops = HopSums::default();
            build(&mut |a, loads, avg| {
                hops.compute(&axis, &cands, &[a]);
                eq4_argmin(&cands, &hops, loads, avg, h).expect("non-empty")
            })
        },
        "one-address picks must agree",
    );
    Layer::new("eq4_single", ops, times, digest)
}

/// Layer 9: Kronecker input generation, plain and sssp-weighted —
/// `gen::kronecker` + `gen::weight_kronecker` versus the generator they
/// replaced: a branchy quadrant descent, a directed CSR rebuilt over every
/// edge plus its reverse, and weights sent back through the tuple-list
/// builder ([`weighted_by_edge_list`]). The witness is a digest of both
/// graphs, so the two paths must generate identical inputs. `ops` is the
/// undirected edge count.
fn bench_kron_gen(ops: u64) -> Layer {
    let scale = (ops / u64::from(KRON_EDGE_FACTOR)).max(2).ilog2();
    let seed = 2023;
    let ops = u64::from(KRON_EDGE_FACTOR) << scale;
    let (times, digest) = time_pair(
        || (),
        |_| {
            let plain = gen::kronecker(scale, KRON_EDGE_FACTOR, seed);
            let weighted = gen::weight_kronecker(&plain, seed);
            graph_digest(&[plain, weighted])
        },
        |_| {
            let plain = branchy_symmetrized_kronecker(scale, KRON_EDGE_FACTOR, seed);
            let weighted = weighted_by_edge_list(&plain, SimRng::new(seed ^ 0x5550));
            graph_digest(&[plain, weighted])
        },
        "Kronecker generators must build identical graphs",
    );
    Layer::new("kron_gen", ops, times, digest)
}

/// The replaced R-MAT generator: a four-way branch per recursion level,
/// then `from_edges` on the directed edges and again on every edge plus
/// its reverse.
fn branchy_symmetrized_kronecker(scale: u32, edge_factor: u32, seed: u64) -> Graph {
    let n = 1u32 << scale;
    let mut rng = SimRng::new(seed);
    let m = (u64::from(edge_factor) * u64::from(n)) as usize;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut lo_s, mut lo_d) = (0u32, 0u32);
        let mut span = n;
        while span > 1 {
            span /= 2;
            let r = rng.unit_f64();
            let (ds, dd) = if r < KRON_A {
                (0, 0)
            } else if r < KRON_A + KRON_B {
                (0, 1)
            } else if r < KRON_A + KRON_B + KRON_C {
                (1, 0)
            } else {
                (1, 1)
            };
            lo_s += ds * span;
            lo_d += dd * span;
        }
        edges.push((lo_s, lo_d));
    }
    let mut perm: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut perm);
    for e in &mut edges {
        e.0 = perm[e.0 as usize];
        e.1 = perm[e.1 as usize];
    }
    let directed = Graph::from_edges(n, &edges);
    let mut both = Vec::with_capacity(2 * directed.num_edges());
    for v in 0..n {
        for &t in directed.neighbors(v) {
            both.push((v, t));
            both.push((t, v));
        }
    }
    Graph::from_edges(n, &both)
}

/// FNV-1a over every graph's degrees, targets and weights.
fn graph_digest(graphs: &[Graph]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
    for g in graphs {
        for v in 0..g.num_vertices() {
            eat(g.degree(v));
            g.neighbors(v).iter().for_each(|&t| eat(u64::from(t)));
            let weights = g.weights_of(v).unwrap_or(&[]);
            weights.iter().for_each(|&w| eat(u64::from(w)));
        }
    }
    h
}

/// Layer 10: Fig 6's chunk oracle on 8×8, placing one Kronecker graph's
/// edge array in 64 B chunks and in one-edge chunks (`Ind-Ideal`) over a
/// 1 KiB-interleaved property array. The public `ChunkedCsr::build`, which
/// scores each chunk with `lanes::HopSums`, versus the build it replaced:
/// one `Topology::manhattan` call per (edge, bank)
/// ([`manhattan_chunk_banks`]). The witness is a digest of every edge's
/// bank in both placements. `ops` is the edges placed, both placements
/// counted.
fn bench_chunk_oracle(ops: u64) -> Layer {
    let topo = Topology::new(8, 8);
    let scale = (ops / 16 / u64::from(KRON_EDGE_FACTOR)).max(2).ilog2();
    let graph = gen::kronecker(scale, KRON_EDGE_FACTOR, 2023);
    // 8 B properties, 128 to a 1 KiB interleave block.
    let vertex_banks: Vec<u32> = (0..graph.num_vertices())
        .map(|v| (v / 128) % topo.num_banks())
        .collect();
    let chunks = [64, graph.edge_bytes()];
    let eat = |bank_of_edge: &dyn Fn(u64) -> u32, h: &mut u64| {
        for e in 0..graph.num_edges() as u64 {
            *h = (*h ^ u64::from(bank_of_edge(e))).wrapping_mul(0x0100_0000_01B3);
        }
    };
    let (times, digest) = time_pair(
        || (),
        |_| {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for chunk_bytes in chunks {
                let placed = ChunkedCsr::build(topo, &graph, &vertex_banks, chunk_bytes, 0.02);
                eat(&|e| placed.bank_of_edge(e), &mut h);
            }
            h
        },
        |_| {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for chunk_bytes in chunks {
                let chunk_edges = (chunk_bytes / graph.edge_bytes()) as usize;
                let banks = manhattan_chunk_banks(topo, &graph, &vertex_banks, chunk_edges, 0.02);
                eat(&|e| banks[e as usize / chunk_edges], &mut h);
            }
            h
        },
        "chunk oracles must place every edge alike",
    );
    Layer::new("chunk_oracle", 2 * graph.num_edges() as u64, times, digest)
}

/// Layer 11: Hybrid-5 stencil runs on 8×8, hotspot (1024-element rows)
/// and pathfinder, `--ops / 2` elements each. The public `run_stencil`,
/// which charges each stencil's interior one bank period at a time, versus
/// the same run with every segment walked and charged
/// ([`run_stencil_walked`], the loop it replaced). The witness is both
/// runs' full [`Metrics`](aff_nsc::engine::Metrics). `ops` is the elements
/// run.
fn bench_stencil_walk(ops: u64) -> Layer {
    let cols = 1024;
    let half = (ops / 2).max(4 * cols);
    let stencils = [
        Stencil::hotspot(half / cols, cols),
        Stencil::pathfinder(half),
    ];
    let cfg = RunConfig::new(SystemConfig::AffAlloc(BankSelectPolicy::Hybrid { h: 5.0 }));
    let run = |windowed: bool| {
        let runs = stencils.iter().map(|s| {
            let m = if windowed {
                run_stencil(s, &cfg)
            } else {
                run_stencil_walked(s, &cfg)
            };
            (m.total_hop_flits, format!("{m:?}"))
        });
        runs.collect::<Vec<_>>()
    };
    let (times, witness) = time_pair(
        || (),
        |_| run(true),
        |_| run(false),
        "the period window must charge what walking every segment does",
    );
    let hop_flits = witness.iter().map(|(f, _)| f).sum();
    let elems = stencils.iter().map(|s| s.elems).sum();
    Layer::new("stencil_walk", elems, times, hop_flits)
}

fn render_json(layers: &[Layer], mem: &RouteMemory) -> String {
    let mut out = String::from("{\n  \"schema\": \"aff-bench/hotpath-v10\",\n  \"layers\": [\n");
    for (i, l) in layers.iter().enumerate() {
        let speedup = l.fast_mops / l.base_mops.max(1e-12);
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"fast_mops_per_sec\": {:.3}, \
             \"baseline_mops_per_sec\": {:.3}, \"speedup\": {:.3}, \"checksum\": {}}}{}\n",
            l.name,
            l.ops,
            l.fast_mops,
            l.base_mops,
            speedup,
            l.checksum,
            if i + 1 < layers.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"route_memory\": {{\"banks\": {}, \"on_demand_bytes\": {}, \
         \"dense_entry_bytes\": {}, \"dense_over_on_demand\": {:.2}}}\n}}\n",
        mem.banks,
        mem.on_demand_bytes,
        mem.dense_entry_bytes,
        mem.dense_entry_bytes as f64 / mem.on_demand_bytes.max(1) as f64,
    ));
    out
}

fn main() {
    let mut ops: u64 = 4_000_000;
    let mut out_path = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ops" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(n) => ops = n,
                    Err(_) => {
                        eprintln!("--ops wants an integer, got '{v}'");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out wants a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}' (use --ops N / --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let layers = [
        bench_route_table(ops, "route_table", 8),
        bench_route_table(ops, "route_table_16x16", 16),
        bench_translation(ops),
        bench_coalescing(ops),
        bench_primitive_fold(ops),
        bench_argmin(ops),
        bench_chain_charge(ops),
        bench_tree_lookups(ops),
        bench_eq4_single(ops),
        bench_kron_gen(ops),
        bench_chunk_oracle(ops),
        bench_stencil_walk(ops),
    ];
    for l in &layers {
        println!(
            "{:<18} {:>7.1} Mops/s vs baseline {:>7.1} Mops/s  ({:.2}x)",
            l.name,
            l.fast_mops,
            l.base_mops,
            l.fast_mops / l.base_mops.max(1e-12)
        );
    }
    let mem = measure_route_memory(ops);
    println!(
        "route_memory @ {} banks: {} B resident vs {} B dense entries ({:.1}x smaller)",
        mem.banks,
        mem.on_demand_bytes,
        mem.dense_entry_bytes,
        mem.dense_entry_bytes as f64 / mem.on_demand_bytes.max(1) as f64
    );
    let json = render_json(&layers, &mem);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(3);
    }
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layers that time a counted or closed-form charge against the
    /// loop it replaced, run end to end: `time_pair` asserts each layer's
    /// witness, so a reference that drifts from its fast path fails here.
    #[test]
    fn reference_layers_agree_at_small_ops() {
        let ops = 20_000;
        bench_chain_charge(ops);
        bench_tree_lookups(ops);
        bench_kron_gen(ops);
        bench_chunk_oracle(ops);
        bench_stencil_walk(ops);
    }
}
