//! Degraded mesh: run one workload on an increasingly broken machine.
//!
//! ```text
//! cargo run --release --example degraded_mesh
//! ```
//!
//! Injects seeded fault plans of growing severity (dead banks, slowed banks,
//! dead and degraded links, slowed memory controllers) and shows that the
//! machine *limps rather than dies*: traversal results stay bit-identical to
//! the healthy run while cycles stretch and the degradation report fills in.

use affinity_alloc_repro::sim::fault::{FaultPlan, FaultSpec};
use affinity_alloc_repro::workloads::config::{RunConfig, SystemConfig};
use affinity_alloc_repro::workloads::suite::{self, WorkloadName};

fn main() {
    let system = SystemConfig::aff_alloc_default();
    let workload = WorkloadName::Bfs;
    let base = RunConfig::new(system).with_seed(7);

    let healthy = suite::run(workload, &base);
    println!(
        "bfs on a healthy 8x8 mesh ({}): {} cycles",
        system.label(),
        healthy.metrics.cycles
    );
    println!();
    println!(
        "{:>7} {:>12} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "faults", "cycles", "slowdown", "remapped", "rerouted", "fallbacks", "results"
    );

    for n in [1u32, 2, 4, 8] {
        let plan = FaultPlan::seeded(2023 + u64::from(n), &base.machine, FaultSpec::uniform(n));
        let injected = plan.failed_banks.len()
            + plan.slowed_banks.len()
            + plan.failed_links.len()
            + plan.degraded_links.len()
            + plan.slowed_mem_ctrls.len();
        let run = suite::run(workload, &base.clone().with_faults(plan));
        let d = run.metrics.degradation;
        println!(
            "{:>7} {:>12} {:>8.2}x {:>9} {:>9} {:>10} {:>9}",
            injected,
            run.metrics.cycles,
            run.metrics.cycles as f64 / healthy.metrics.cycles as f64,
            d.remapped_banks,
            d.rerouted_messages,
            d.fallback_allocations,
            if run.iters == healthy.iters {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        assert_eq!(
            run.iters, healthy.iters,
            "faults must never change functional results"
        );
    }

    println!();
    println!("Functional results were bit-identical on every degraded machine.");
}
