//! End-to-end acceptance for the affinity-inference loop: the full
//! `inference` figure family over every Table 3 workload, checking that
//! mined profiles genuinely substitute for the hand annotations.
//!
//! The full family runs the whole suite three ways (annotated, closed-loop
//! inferred, hint-free), which is too slow for a debug test binary — like
//! the geometry goldens, it is skipped under debug builds unless forced
//! (`INFERENCE_E2E=1`) and relies on CI's release-mode pass for coverage.
//! A debug-affordable two-workload smoke lives in
//! `aff_bench::inference::tests`.

use aff_bench::figures::{HarnessOpts, FIG13_WORKLOADS};
use aff_bench::inference::{inference_plan, inference_plan_for};
use aff_bench::sweep::{run_plans_opts, RunOpts};
use affinity_alloc_repro::workloads::suite::WorkloadName;

fn skip_in_debug(test: &str) -> bool {
    if cfg!(debug_assertions) && std::env::var_os("INFERENCE_E2E").is_none() {
        eprintln!("{test}: skipped under a debug build (set INFERENCE_E2E=1 to force)");
        return true;
    }
    false
}

/// The paper's recoverability claim, quantified: on every Table 3 workload
/// the closed loop must succeed, and on at least half of the suite — and at
/// least half of the irregular Fig 13 subset it shares workloads with — the
/// inferred hints must reproduce ≥ 90% of the annotated run's near-bank
/// access ratio.
#[test]
fn inferred_hints_recover_annotated_locality_suite_wide() {
    if skip_in_debug("inferred_hints_recover_annotated_locality_suite_wide") {
        return;
    }
    let opts = HarnessOpts::default();
    let (figs, report) = run_plans_opts(vec![inference_plan(opts)], &RunOpts::new(4, opts.seed));
    assert_eq!(
        report.failures().count(),
        0,
        "no closed-loop cell may fail: {:?}",
        report.failures().collect::<Vec<_>>()
    );
    let fig = &figs[0];
    let rec = fig.col("nbr_recovery");
    let hints = fig.col("inferred_hints");
    let mut recovered = 0usize;
    for w in WorkloadName::FIG12 {
        let row = fig
            .rows
            .iter()
            .find(|r| r.label == format!("{}/inferred", w.label()))
            .unwrap_or_else(|| panic!("missing inferred row for {}", w.label()));
        assert!(
            row.values[rec].is_finite(),
            "{}: recovery must be measurable",
            w.label()
        );
        assert!(
            row.values[hints] > 0.0,
            "{}: the mined profile must contribute hints",
            w.label()
        );
        if row.values[rec] >= 0.9 {
            recovered += 1;
        }
    }
    assert!(
        recovered * 2 >= WorkloadName::FIG12.len(),
        "only {recovered}/{} workloads recovered >= 90% of annotated locality",
        WorkloadName::FIG12.len()
    );
    // The geomean row aggregates the same signal.
    let gm = fig
        .rows
        .iter()
        .find(|r| r.label == "geomean/inferred")
        .expect("geomean row");
    assert!(
        gm.values[rec] >= 0.9,
        "geomean recovery {} below 0.9",
        gm.values[rec]
    );
}

/// The irregular (Fig 13) subset — pointer chasing, frontiers, hash and tree
/// probes — is where inference is hardest; each of its workloads must clear
/// the 90% bar individually.
#[test]
fn inferred_hints_recover_irregular_workloads_individually() {
    if skip_in_debug("inferred_hints_recover_irregular_workloads_individually") {
        return;
    }
    let opts = HarnessOpts::default();
    let (figs, report) = run_plans_opts(
        vec![inference_plan_for(&FIG13_WORKLOADS, opts)],
        &RunOpts::new(4, opts.seed),
    );
    assert_eq!(report.failures().count(), 0);
    let fig = &figs[0];
    let rec = fig.col("nbr_recovery");
    for w in FIG13_WORKLOADS {
        let row = fig
            .rows
            .iter()
            .find(|r| r.label == format!("{}/inferred", w.label()))
            .unwrap_or_else(|| panic!("missing inferred row for {}", w.label()));
        assert!(
            row.values[rec] >= 0.9,
            "{}: recovery {} below 0.9",
            w.label(),
            row.values[rec]
        );
    }
}

/// Scheduling independence for the new family: the full three-way sweep is
/// byte-identical between a serial and a 4-worker run.
#[test]
fn inference_family_bytes_are_jobs_invariant() {
    if skip_in_debug("inference_family_bytes_are_jobs_invariant") {
        return;
    }
    let opts = HarnessOpts::default();
    let (serial, _) = run_plans_opts(vec![inference_plan(opts)], &RunOpts::new(1, opts.seed));
    let (par, _) = run_plans_opts(vec![inference_plan(opts)], &RunOpts::new(4, opts.seed));
    assert_eq!(serial[0].to_json(), par[0].to_json());
}
