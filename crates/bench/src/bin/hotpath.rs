//! Hot-path microbenchmark: times the per-message accounting layers in
//! isolation — dense route table, heap translation, engine charge
//! accumulation, the Eq-4 argmin kernel, and the per-bank occupancy scans —
//! each against the scalar/hash-map/write-through baseline it replaced, and
//! writes `BENCH_hotpath.json` (schema `aff-bench/hotpath-v3`).
//! The route layer runs at 8×8 *and* 16×16 (both dense CSR since the
//! 256-bank threshold raise), and a `route_memory` section records the
//! resident route-store bytes at 1024 banks against the dense `n²`
//! entry-array curve.
//!
//! ```text
//! cargo run --release -p aff-bench --bin hotpath -- [--ops N] [--out PATH]
//! ```
//!
//! The access streams are seeded [`SimRng`] draws, so the measured work is
//! identical run to run; only the wall-clock varies.

use aff_mem::space::{AddressSpace, HeapMapping};
use aff_noc::topology::{AxisHops, Topology};
use aff_noc::traffic::{TrafficClass, TrafficMatrix};
use aff_nsc::engine::SimEngine;
use aff_sim_core::config::{MachineConfig, PAGE_SIZE};
use aff_sim_core::rng::SimRng;
use std::collections::HashMap;
use std::time::Instant;

/// One measured layer: the optimized path and its baseline, in Mops/sec.
struct Layer {
    name: &'static str,
    ops: u64,
    fast_mops: f64,
    base_mops: f64,
    /// Checksum equality witness: both paths did the same accounting.
    checksum: u64,
}

fn mops(ops: u64, secs: f64) -> f64 {
    ops as f64 / 1e6 / secs.max(1e-12)
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

/// Layer 1: `TrafficMatrix::record_n` through the route store (dense CSR at
/// 8×8, bounded on-demand rows at 16×16) versus the old shape — a
/// `HashMap<(src, dst), Vec<link>>` cache probed per message.
fn bench_route_table(ops: u64, name: &'static str, mesh: u32) -> Layer {
    let topo = Topology::new(mesh, mesh);
    let pairs = pair_stream(ops as usize, topo.num_banks(), 4);
    let cfg = MachineConfig::paper_default();

    let t0 = Instant::now();
    let mut dense = TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes);
    for &(s, d) in &pairs {
        dense.record_n(s, d, 64, TrafficClass::Data, 1);
    }
    let fast = t0.elapsed().as_secs_f64();
    let fast_sum = dense.sum_link_flits();

    let t0 = Instant::now();
    let mut cache: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    let mut link_flits = vec![0u64; topo.num_links()];
    let flits = dense.flits_for(64);
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
    let base = t0.elapsed().as_secs_f64();
    let base_sum: u64 = link_flits.iter().sum();
    assert_eq!(fast_sum, base_sum, "route layers must account identically");

    Layer {
        name,
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Route-store memory at scale: resident bytes after a realistic message
/// stream on a 32×32 mesh (1024 banks), against what the dense CSR entry
/// array alone would cost at that size. The on-demand store keeps a bounded
/// row arena, so its footprint must stay far below the dense `n²` curve.
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
        // The dense store's entry array is n² × 8 B (two u32s per pair)
        // before counting its link arena — the curve on-demand rows avoid.
        dense_entry_bytes: n as usize * n as usize * 8,
    }
}

/// Layer 2: `AddressSpace::bank_of` under `HeapMapping::Random` — flat page
/// table plus last-translation cache versus a `HashMap` page map.
fn bench_translation(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    let heap_bytes = 8u64 << 20;

    let mut space = AddressSpace::new(cfg.clone());
    space.set_heap_mapping(HeapMapping::Random { seed: 7 });
    let base_va = space.heap_alloc(heap_bytes, PAGE_SIZE);
    // Sequential element scan: consecutive hits on each page, like a
    // property-array sweep.
    let t0 = Instant::now();
    let mut fast_sum = 0u64;
    for i in 0..ops {
        let va = base_va + (i * 8) % heap_bytes;
        fast_sum += u64::from(space.bank_of(va));
    }
    let fast = t0.elapsed().as_secs_f64();

    // The old shape: per-lookup HashMap probe of vpn -> ppn with the same
    // lazy first-touch frame draws.
    let t0 = Instant::now();
    let mut page_map: HashMap<u64, u64> = HashMap::new();
    let mut rng = SimRng::new(7);
    let mut base_sum = 0u64;
    let banks = u64::from(cfg.num_banks());
    for i in 0..ops {
        let off = (i * 8) % heap_bytes;
        let (vpn, in_page) = (off / PAGE_SIZE, off % PAGE_SIZE);
        let ppn = *page_map
            .entry(vpn)
            .or_insert_with(|| rng.below(1 << 24));
        let pa = ppn * PAGE_SIZE + in_page;
        base_sum += (pa / cfg.default_interleave) % banks;
    }
    let base = t0.elapsed().as_secs_f64();
    assert_eq!(fast_sum, base_sum, "translation layers must agree");

    Layer {
        name: "translation",
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Layer 3: the same engine charge primitives with charge accumulation on
/// versus write-through (one `TrafficMatrix::record_n` per message, the
/// old engine behavior).
fn bench_coalescing(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    // One linked-CSR chain node serves a run of edges from one bank.
    let pairs = pair_stream(ops as usize, cfg.num_banks(), 16);

    let t0 = Instant::now();
    let mut engine = SimEngine::new(cfg.clone());
    for &(s, d) in &pairs {
        engine.indirect(s, d, 8, 1);
    }
    let fast = t0.elapsed().as_secs_f64();
    let fast_sum = engine.traffic_mut().sum_link_flits();

    let t0 = Instant::now();
    let mut engine = SimEngine::new(cfg.clone());
    engine.set_coalescing(false);
    for &(s, d) in &pairs {
        engine.indirect(s, d, 8, 1);
    }
    let base = t0.elapsed().as_secs_f64();
    let base_sum = engine.traffic_mut().sum_link_flits();
    assert_eq!(fast_sum, base_sum, "coalescing layers must agree");

    Layer {
        name: "coalescing",
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Layer 4: the Eq-4 bank-select argmin — `lanes::eq4_argmin`, the kernel
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

    let t0 = Instant::now();
    let mut fast_sum = 0u64;
    for call in 0..calls {
        // Perturb the average like successive allocations do, so the score
        // computation cannot be hoisted out of the loop.
        let avg = avg_load + (call % 7) as f64;
        let best = eq4_argmin(&cands, &hops, &loads, avg, h);
        fast_sum += u64::from(best.expect("non-empty"));
    }
    let fast = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut base_sum = 0u64;
    for call in 0..calls {
        let avg = avg_load + (call % 7) as f64;
        let best = argmin_score(
            ids.iter()
                .map(|&i| (i, score(avg_hops[i as usize], loads[i as usize], avg, h))),
        );
        base_sum += u64::from(best.expect("non-empty"));
    }
    let base = t0.elapsed().as_secs_f64();
    assert_eq!(fast_sum, base_sum, "argmin layers must pick identical banks");

    Layer {
        name: "argmin_simd",
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Layer 5: the per-bank counter scans behind every metrics read —
/// `aff_cache::lanes::{sum_u64, max_u64}` versus the scalar iterator
/// `sum`/`max` they replaced.
fn bench_occupancy_scan(ops: u64) -> Layer {
    const BANKS: usize = 1024;
    let rounds = (ops as usize / BANKS).max(1);
    let ops = (rounds * BANKS) as u64;
    let mut rng = SimRng::new(0x0CC);
    let mut counters: Vec<Vec<u64>> = (0..64)
        .map(|_| (0..BANKS).map(|_| rng.below(1 << 30)).collect())
        .collect();
    // Both passes mutate the rows; replay the baseline from the same
    // starting state so the checksums are comparable.
    let pristine = counters.clone();

    let t0 = Instant::now();
    let mut fast_sum = 0u64;
    for r in 0..rounds {
        let row = &mut counters[r % 64];
        row[r % BANKS] = (r as u64) << 10; // keep rounds from folding away
        fast_sum ^= aff_cache::lanes::sum_u64(row).wrapping_add(aff_cache::lanes::max_u64(row));
    }
    let fast = t0.elapsed().as_secs_f64();

    counters = pristine;
    let t0 = Instant::now();
    let mut base_sum = 0u64;
    for r in 0..rounds {
        let row = &mut counters[r % 64];
        row[r % BANKS] = (r as u64) << 10;
        let sum: u64 = row.iter().sum();
        let max = row.iter().copied().max().unwrap_or(0);
        base_sum ^= sum.wrapping_add(max);
    }
    let base = t0.elapsed().as_secs_f64();
    assert_eq!(fast_sum, base_sum, "occupancy scans must agree");

    Layer {
        name: "occupancy_scan",
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

fn render_json(layers: &[Layer], mem: &RouteMemory) -> String {
    let mut out = String::from("{\n  \"schema\": \"aff-bench/hotpath-v3\",\n  \"layers\": [\n");
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
        bench_argmin(ops),
        bench_occupancy_scan(ops),
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
