//! End-to-end suite runs: every Table 3 workload under every system
//! configuration at a small scale, asserting the paper's headline orderings.

use affinity_alloc_repro::sim::stats::geomean;
use affinity_alloc_repro::workloads::config::{RunConfig, SystemConfig};
use affinity_alloc_repro::workloads::suite::{self, WorkloadName};

fn cfg(system: SystemConfig) -> RunConfig {
    RunConfig::new(system).with_seed(99)
}

#[test]
fn every_workload_runs_under_every_system() {
    for w in WorkloadName::FIG12 {
        for system in [
            SystemConfig::InCore,
            SystemConfig::NearL3,
            SystemConfig::aff_alloc_default(),
        ] {
            let r = suite::run(w, &cfg(system));
            assert!(r.metrics.cycles > 0, "{}/{}", w.label(), system.label());
            assert!(
                r.metrics.energy_pj > 0.0,
                "{}/{}",
                w.label(),
                system.label()
            );
            if w.is_frontier() {
                assert!(!r.iters.is_empty(), "{} records iterations", w.label());
            }
        }
    }
}

#[test]
fn headline_geomeans_hold() {
    let mut aff_speedups = Vec::new();
    let mut traffic_ratios = Vec::new();
    for w in WorkloadName::FIG12 {
        let near = suite::run(w, &cfg(SystemConfig::NearL3)).metrics;
        let aff = suite::run(w, &cfg(SystemConfig::aff_alloc_default())).metrics;
        aff_speedups.push(aff.speedup_over(&near));
        traffic_ratios.push(aff.traffic_vs(&near));
    }
    let speedup = geomean(&aff_speedups).expect("positive speedups");
    let traffic = traffic_ratios.iter().sum::<f64>() / traffic_ratios.len() as f64;
    // Paper: 2.26x speedup, 72% traffic reduction over Near-L3. Require the
    // reproduction to land in the same regime.
    assert!(
        speedup > 1.5,
        "Aff-Alloc geomean speedup over Near-L3 too low: {speedup:.2}"
    );
    assert!(
        traffic < 0.5,
        "Aff-Alloc must cut NoC traffic by more than half: kept {traffic:.2}"
    );
}

#[test]
fn ndc_beats_in_core_overall() {
    let mut speedups = Vec::new();
    for w in WorkloadName::FIG12 {
        let incore = suite::run(w, &cfg(SystemConfig::InCore)).metrics;
        let aff = suite::run(w, &cfg(SystemConfig::aff_alloc_default())).metrics;
        speedups.push(aff.speedup_over(&incore));
    }
    let g = geomean(&speedups).expect("positive");
    assert!(g > 2.0, "Aff-Alloc geomean over In-Core too low: {g:.2}");
}

#[test]
fn runs_are_deterministic() {
    let a = suite::run(WorkloadName::Bfs, &cfg(SystemConfig::aff_alloc_default()));
    let b = suite::run(WorkloadName::Bfs, &cfg(SystemConfig::aff_alloc_default()));
    assert_eq!(a.metrics.cycles, b.metrics.cycles);
    assert_eq!(a.metrics.total_hop_flits, b.metrics.total_hop_flits);
    assert_eq!(a.iters.len(), b.iters.len());
}

#[test]
fn seeds_change_inputs_but_not_the_story() {
    let near = suite::run(
        WorkloadName::PrPush,
        &cfg(SystemConfig::NearL3).with_seed(7),
    )
    .metrics;
    let aff = suite::run(
        WorkloadName::PrPush,
        &cfg(SystemConfig::aff_alloc_default()).with_seed(7),
    )
    .metrics;
    assert!(
        aff.speedup_over(&near) > 1.0,
        "pr_push win must be seed-robust"
    );
}

#[test]
fn scaling_up_inputs_scales_work() {
    let small = suite::run(WorkloadName::Pathfinder, &cfg(SystemConfig::NearL3)).metrics;
    let big = suite::run(
        WorkloadName::Pathfinder,
        &cfg(SystemConfig::NearL3).with_scale(2),
    )
    .metrics;
    assert!(big.cycles > small.cycles);
    assert!(big.total_hop_flits > small.total_hop_flits);
}
