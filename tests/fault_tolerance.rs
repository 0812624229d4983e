//! Fault-injection invariants across the whole simulated machine.
//!
//! The contract of the fault subsystem (see DESIGN.md):
//!
//! 1. **Functional identity** — faults degrade *performance*, never
//!    *results*. Frontier traversal statistics are bit-identical between a
//!    healthy machine and any faulted one.
//! 2. **Empty-plan identity** — installing `FaultPlan::none()` leaves every
//!    metric byte-identical to never mentioning faults at all.
//! 3. **Monotonicity** — adding penalty faults (nested plans) never makes a
//!    run faster.
//! 4. **Graceful degradation** — dead banks remap to spares and the run
//!    completes, reporting what it had to work around.

use affinity_alloc_repro::sim::fault::{FaultPlan, FaultSpec, LinkRef};
use affinity_alloc_repro::workloads::config::{RunConfig, SystemConfig};
use affinity_alloc_repro::workloads::suite::{self, SuiteRun, WorkloadName};

fn cfg(system: SystemConfig) -> RunConfig {
    RunConfig::new(system).with_seed(99)
}

fn run_with(system: SystemConfig, w: WorkloadName, plan: FaultPlan) -> SuiteRun {
    suite::run(w, &cfg(system).with_faults(plan))
}

/// A plan exercising every fault category at once.
fn mixed_plan() -> FaultPlan {
    FaultPlan::none()
        .fail_bank(9)
        .fail_bank(27)
        .slow_bank(3, 4)
        .fail_link(LinkRef::between(0, 0, 1, 0).unwrap())
        .degrade_link(LinkRef::between(4, 4, 4, 5).unwrap(), 3)
        .slow_mem_ctrl(0, 4)
}

const SYSTEMS: [SystemConfig; 3] = [
    SystemConfig::InCore,
    SystemConfig::NearL3,
    SystemConfig::AffAlloc(affinity_alloc_repro::alloc::BankSelectPolicy::Hybrid { h: 5.0 }),
];

#[test]
fn empty_fault_plan_is_byte_identical() {
    for system in SYSTEMS {
        let healthy = suite::run(WorkloadName::Bfs, &cfg(system));
        let with_empty = run_with(system, WorkloadName::Bfs, FaultPlan::none());
        assert_eq!(
            healthy.metrics.cycles, with_empty.metrics.cycles,
            "{system:?}"
        );
        assert_eq!(
            healthy.metrics.total_hop_flits,
            with_empty.metrics.total_hop_flits
        );
        assert_eq!(healthy.metrics.hop_flits, with_empty.metrics.hop_flits);
        assert_eq!(
            healthy.metrics.dram_accesses,
            with_empty.metrics.dram_accesses
        );
        assert!((healthy.metrics.energy_pj - with_empty.metrics.energy_pj).abs() < 1e-9);
        assert_eq!(healthy.iters, with_empty.iters);
        assert!(healthy.metrics.degradation.is_zero());
        assert!(with_empty.metrics.degradation.is_zero());
    }
}

#[test]
fn faults_never_change_functional_results() {
    for system in SYSTEMS {
        for w in [WorkloadName::Bfs, WorkloadName::Sssp] {
            let healthy = suite::run(w, &cfg(system));
            let faulted = run_with(system, w, mixed_plan());
            assert!(!healthy.iters.is_empty(), "{w:?} should report iterations");
            assert_eq!(
                healthy.iters, faulted.iters,
                "{system:?}/{w:?}: traversal must be bit-identical under faults"
            );
            assert!(faulted.metrics.cycles > 0);
        }
    }
}

#[test]
fn seeded_plans_preserve_results() {
    let machine = cfg(SystemConfig::NearL3).machine;
    for seed in 1..=4u64 {
        let plan = FaultPlan::seeded(seed, &machine, FaultSpec::uniform(2));
        assert_eq!(
            plan,
            FaultPlan::seeded(seed, &machine, FaultSpec::uniform(2)),
            "seeded plans must be deterministic"
        );
        for system in [SystemConfig::NearL3, SystemConfig::aff_alloc_default()] {
            let healthy = suite::run(WorkloadName::Bfs, &cfg(system));
            let faulted = run_with(system, WorkloadName::Bfs, plan.clone());
            assert_eq!(healthy.iters, faulted.iters, "seed {seed}, {system:?}");
        }
    }
}

/// Penalty-only faults (slow controllers, degraded links) do not perturb
/// placement, so nesting them can only stretch the roofline: cycles are
/// monotonically non-decreasing in the fault plan.
#[test]
fn cycles_are_monotone_in_penalty_faults() {
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().slow_mem_ctrl(0, 2),
        FaultPlan::none()
            .slow_mem_ctrl(0, 2)
            .degrade_link(LinkRef::between(3, 3, 4, 3).unwrap(), 2),
        FaultPlan::none()
            .slow_mem_ctrl(0, 4)
            .slow_mem_ctrl(1, 2)
            .degrade_link(LinkRef::between(3, 3, 4, 3).unwrap(), 4),
    ];
    for w in [WorkloadName::Pathfinder, WorkloadName::Bfs] {
        let mut last = 0u64;
        for plan in &plans {
            let run = run_with(SystemConfig::aff_alloc_default(), w, plan.clone());
            assert!(
                run.metrics.cycles >= last,
                "{w:?}: cycles dropped from {last} to {} under a strictly larger plan",
                run.metrics.cycles
            );
            last = run.metrics.cycles;
        }
    }
}

/// Near-L3 allocation is layout-oblivious, so slowing banks cannot shift
/// placement either — nested slow-bank plans are monotone there.
#[test]
fn cycles_are_monotone_in_slowed_banks_near_l3() {
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().slow_bank(5, 2),
        FaultPlan::none().slow_bank(5, 2).slow_bank(21, 2),
        FaultPlan::none()
            .slow_bank(5, 4)
            .slow_bank(21, 4)
            .slow_bank(40, 2),
    ];
    let mut last = 0u64;
    for plan in &plans {
        let run = run_with(SystemConfig::NearL3, WorkloadName::Sssp, plan.clone());
        assert!(
            run.metrics.cycles >= last,
            "cycles dropped from {last} to {} under a strictly larger plan",
            run.metrics.cycles
        );
        last = run.metrics.cycles;
    }
}

#[test]
fn dead_banks_degrade_gracefully() {
    let plan = FaultPlan::none().fail_bank(9).fail_bank(10);
    let healthy = suite::run(WorkloadName::Bfs, &cfg(SystemConfig::NearL3));
    let faulted = run_with(SystemConfig::NearL3, WorkloadName::Bfs, plan);
    let d = faulted.metrics.degradation;
    assert_eq!(healthy.iters, faulted.iters);
    assert!(!d.is_zero(), "dead banks must show up in the report");
    let bank_bytes = cfg(SystemConfig::NearL3).machine.l3_bank_bytes;
    assert_eq!(d.masked_capacity_bytes, 2 * bank_bytes);
    assert!(
        faulted.metrics.cycles >= healthy.metrics.cycles,
        "losing capacity must not speed the machine up"
    );
}

#[test]
fn affinity_alloc_survives_dead_banks_and_excludes_them() {
    let plan = FaultPlan::none()
        .fail_bank(0)
        .fail_bank(63)
        .slow_bank(32, 4);
    for w in [
        WorkloadName::Bfs,
        WorkloadName::LinkList,
        WorkloadName::HashJoin,
    ] {
        let run = run_with(SystemConfig::aff_alloc_default(), w, plan.clone());
        assert!(
            run.metrics.cycles > 0,
            "{w:?} must complete on the degraded machine"
        );
    }
}
