//! Quickstart: allocate with affinity, see where data lands, run a kernel.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use affinity_alloc_repro::alloc::{AffineArrayReq, AffinityAllocator, AffinityHint, BankSelectPolicy};
use affinity_alloc_repro::sim::config::MachineConfig;
use affinity_alloc_repro::workloads::affine::{run_stencil, Stencil};
use affinity_alloc_repro::workloads::config::{RunConfig, SystemConfig};

fn main() {
    // --- 1. The allocator interface (Fig 8 / Fig 10 of the paper) ---
    let machine = MachineConfig::paper_default();
    let mut alloc = AffinityAllocator::new(machine, BankSelectPolicy::paper_default());

    // Affine: float A[N], then double C[N] with C[i] next to A[i].
    let a = alloc
        .malloc_aff_affine(&AffineArrayReq::new(4, 4096))
        .expect("allocate A");
    let c = alloc
        .malloc_aff_affine(&AffineArrayReq::with_hint(
            8,
            4096,
            &AffinityHint::AlignTo { partner: a, p: 1, q: 1, x: 0 },
        ))
        .expect("allocate C");
    println!("A[100] lives on bank {}", alloc.bank_of(a + 100 * 4));
    println!("C[100] lives on bank {}", alloc.bank_of(c + 100 * 8));
    assert_eq!(alloc.bank_of(a + 100 * 4), alloc.bank_of(c + 100 * 8));

    // Irregular: a linked-list node near its predecessor (Fig 10).
    let head = alloc.malloc_aff(64, &[]).expect("allocate head");
    let next = alloc.malloc_aff(64, &[head]).expect("allocate next");
    println!(
        "list head on bank {}, next node on bank {}",
        alloc.bank_of(head),
        alloc.bank_of(next)
    );

    // --- 2. Run a kernel under the three system configurations ---
    let stencil = Stencil::pathfinder(1_500_000);
    println!("\npathfinder (1.5M entries, 8 iterations):");
    let mut near_l3_cycles = 0;
    for system in [
        SystemConfig::InCore,
        SystemConfig::NearL3,
        SystemConfig::aff_alloc_default(),
    ] {
        let metrics = run_stencil(&stencil, &RunConfig::new(system));
        if system == SystemConfig::NearL3 {
            near_l3_cycles = metrics.cycles;
        }
        println!(
            "  {:24} {:>10} cycles, {:>12} flit-hops, {:>6.1} uJ",
            system.label(),
            metrics.cycles,
            metrics.total_hop_flits,
            metrics.energy_pj / 1e6,
        );
    }
    println!(
        "\nAffinity alloc turned 'not-so near-data' computing into the real thing\n\
         (Near-L3 baseline: {near_l3_cycles} cycles)."
    );
}
