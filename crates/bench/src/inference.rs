//! The `inference` figure family: automatic affinity inference, evaluated
//! as a three-way comparison over the Table 3 suite.
//!
//! Every workload runs under `Aff-Alloc(Hybrid-5)` three ways:
//!
//! * **annotated** — the hand-written `malloc_aff` / `align_to` / partition
//!   annotations as coded into each workload (every pre-existing figure);
//! * **none** — the same structures allocated with no affinity knowledge at
//!   all: the annotation-free floor, and the profiling configuration;
//! * **inferred** — the closed loop: profile the annotation-free run
//!   recording into a co-access miner ([`profile_workload`]), infer an
//!   [`AffinityProfile`] from the mined trace, and replay with the inferred
//!   hints substituted for the hand annotations.
//!
//! Both phases of an inferred run live inside one cell, so the family keeps
//! every sweep-engine guarantee: byte-identical output for any `--jobs`,
//! memo/journal caching of the whole loop as one outcome, fail-soft cells.
//! The three cells of a graph workload read one shared generated input, and
//! the inferred cell runs both phases on its one copy.
//!
//! The headline metric is **near-bank-ratio recovery**: how much of the
//! annotated run's data locality the inferred hints reproduce. The paper's
//! claim that affinity structure is mechanically recoverable holds when
//! recovery is ≥ 0.9 on the irregular suite (see the release-gated test
//! below, and the CI `inference-smoke` job).

use std::sync::{Arc, Mutex};

use crate::figures::{run_claimed, GraphInputs, HarnessOpts};
use crate::report::Figure;
use crate::sweep::{CellCtx, Claim, PlanBuilder, SweepPlan};
use aff_ds::graph::Graph;
use aff_nsc::engine::Metrics;
use aff_sim_core::mine::CoAccessMiner;
use aff_sim_core::stats::geomean;
use aff_workloads::config::{HintMode, RunConfig, SystemConfig};
use aff_workloads::suite::{self, WorkloadName};
use affinity_alloc::AffinityProfile;

/// Fraction of shared-L3 line accesses served without moving data across
/// the NoC: `l3 / (l3 + data_flit_hops)`. 1.0 means every access ran on its
/// line's own bank; the more data-class flits a run pays per access, the
/// lower it drops. `NaN` when the run made no L3 accesses.
pub fn near_bank_ratio(m: &Metrics) -> f64 {
    let l3 = m.energy.l3_accesses as f64;
    let data_hops = m.hop_flits[1] as f64;
    if l3 <= 0.0 {
        return f64::NAN;
    }
    l3 / (l3 + data_hops)
}

/// Profile `w` annotation-free, recording into a fresh co-access miner, and
/// infer its affinity profile — phase 1 of the closed loop, used by the
/// inferred cells and by `affsim --profile-out`. The miner belongs to this
/// call alone: concurrent calls on any threads mine only their own runs.
///
/// `input` is the graph a graph workload reads ([`suite::gen_input`]); pass
/// the copy the replay will run on, or `None` to generate it here.
pub fn profile_workload(
    w: WorkloadName,
    cfg: &RunConfig,
    input: Option<Arc<Graph>>,
) -> AffinityProfile {
    let miner = Arc::new(Mutex::new(CoAccessMiner::new()));
    let profiled = cfg.clone().with_hints(HintMode::NoHints);
    let _ = suite::run_on(w, &profiled.with_recorder(Arc::clone(&miner)), input);
    AffinityProfile::infer(&CoAccessMiner::finish_shared(&miner))
}

fn aff_cfg(ctx: &mut CellCtx, opts: HarnessOpts) -> RunConfig {
    opts.cfg(ctx, SystemConfig::aff_alloc_default())
}

/// The full family (`figures inference`): every Table 3 workload.
pub fn inference_plan(opts: HarnessOpts) -> SweepPlan {
    inference_plan_for(&WorkloadName::FIG12, opts)
}

/// The family restricted to `workloads` — smoke runs and tests.
pub fn inference_plan_for(workloads: &[WorkloadName], opts: HarnessOpts) -> SweepPlan {
    struct Group {
        w: WorkloadName,
        annotated: usize,
        inferred: usize,
        none: usize,
    }
    let mut b = PlanBuilder::new("inference");
    let mut inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    let mut groups = Vec::with_capacity(workloads.len());
    for &w in workloads {
        let input = inputs.claim_for(w);
        let annotated = b.cell(format!("{}/annotated", w.label()), move |ctx| {
            run_claimed(w, &aff_cfg(ctx, opts), input.as_ref())
                .metrics
                .into()
        });
        let input = inputs.claim_for(w);
        let inferred = b.cell(format!("{}/inferred", w.label()), move |ctx| {
            // Both phases run on this one copy of the input.
            let graph = input.as_ref().map(Claim::take);
            let cfg = aff_cfg(ctx, opts);
            let profile = Arc::new(profile_workload(w, &cfg, graph.clone()));
            let cfg = cfg.with_hints(HintMode::Inferred(profile));
            suite::run_on(w, &cfg, graph).metrics.into()
        });
        let input = inputs.claim_for(w);
        let none = b.cell(format!("{}/none", w.label()), move |ctx| {
            let cfg = aff_cfg(ctx, opts).with_hints(HintMode::NoHints);
            run_claimed(w, &cfg, input.as_ref()).metrics.into()
        });
        groups.push(Group {
            w,
            annotated,
            inferred,
            none,
        });
    }
    b.merge(move |o| {
        let mut fig = Figure::new(
            "inference",
            "Affinity inference: hand annotations vs mined profile vs none",
            vec![
                "speedup_vs_none",
                "near_bank_ratio",
                "nbr_recovery",
                "inferred_hints",
            ],
        );
        let mut sp_annot = Vec::new();
        let mut sp_inf = Vec::new();
        let mut recoveries = Vec::new();
        for g in &groups {
            let nbr_annot = o.field(g.annotated, near_bank_ratio);
            for (mode, id) in [
                ("annotated", g.annotated),
                ("inferred", g.inferred),
                ("none", g.none),
            ] {
                let nbr = o.field(id, near_bank_ratio);
                fig.push(
                    format!("{}/{}", g.w.label(), mode),
                    vec![
                        o.speedup(id, g.none),
                        nbr,
                        nbr / nbr_annot,
                        o.field(id, |m| m.inferred_hints as f64),
                    ],
                );
            }
            sp_annot.push(o.speedup(g.annotated, g.none));
            sp_inf.push(o.speedup(g.inferred, g.none));
            recoveries.push(o.field(g.inferred, near_bank_ratio) / nbr_annot);
        }
        let gm = |v: &[f64]| {
            let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
            geomean(&finite).unwrap_or(f64::NAN)
        };
        fig.push(
            "geomean/annotated",
            vec![gm(&sp_annot), f64::NAN, 1.0, f64::NAN],
        );
        fig.push(
            "geomean/inferred",
            vec![gm(&sp_inf), f64::NAN, gm(&recoveries), f64::NAN],
        );
        fig.note("speedup_vs_none: cycles(none) / cycles(mode), same workload");
        fig.note("near_bank_ratio: l3_accesses / (l3_accesses + data-class flit-hops)");
        fig.note("nbr_recovery: near_bank_ratio / annotated near_bank_ratio");
        fig
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_plans_opts, RunOpts};

    #[test]
    fn near_bank_ratio_is_a_locality_score() {
        // Aligned affinity layouts keep more accesses on their own bank than
        // hint-free layouts on the same workload.
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default());
        let annot = suite::run(WorkloadName::PrPush, &cfg).metrics;
        let none = suite::run(
            WorkloadName::PrPush,
            &cfg.clone().with_hints(HintMode::NoHints),
        )
        .metrics;
        let (ra, rn) = (near_bank_ratio(&annot), near_bank_ratio(&none));
        assert!(ra > 0.0 && ra <= 1.0, "annotated ratio {ra}");
        assert!(rn > 0.0 && rn <= 1.0, "none ratio {rn}");
        assert!(ra > rn, "annotations must improve locality: {ra} vs {rn}");
    }

    #[test]
    fn profiling_is_scoped_to_each_call_not_to_the_thread() {
        let cfg = RunConfig::new(SystemConfig::aff_alloc_default());
        let (a, b) = (WorkloadName::LinkList, WorkloadName::BinTree);
        // Back to back on one thread: each call mines only its own run.
        let serial_a = profile_workload(a, &cfg, None);
        let serial_b = profile_workload(b, &cfg, None);
        assert!(serial_a.hint_count() > 0, "link_list must mine chain hints");
        assert_ne!(serial_a, serial_b, "two workloads, two profiles");
        assert_eq!(
            profile_workload(a, &cfg, None),
            serial_a,
            "nothing carried over"
        );
        // Concurrently on two threads (a barrier starts both calls together
        // so their runs overlap): still each call's own run, and the
        // profiles equal the serial ones.
        let start = std::sync::Barrier::new(2);
        let profile = |w| {
            start.wait();
            profile_workload(w, &cfg, None)
        };
        let (par_a, par_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| profile(a));
            let hb = s.spawn(|| profile(b));
            (
                ha.join().expect("profiling a"),
                hb.join().expect("profiling b"),
            )
        });
        assert_eq!(par_a, serial_a);
        assert_eq!(par_b, serial_b);
    }

    /// Debug-affordable closed-loop smoke: two workloads, three modes each,
    /// checking the loop recovers locality end to end through the sweep
    /// engine (the full 7-workload pass lives in tests/inference_e2e.rs,
    /// release-gated).
    #[test]
    fn closed_loop_smoke_recovers_locality() {
        let opts = HarnessOpts::default();
        let smoke = [WorkloadName::LinkList, WorkloadName::BinTree];
        let (figs, report) = run_plans_opts(
            vec![inference_plan_for(&smoke, opts)],
            &RunOpts::new(1, opts.seed),
        );
        assert!(report.cells.iter().all(|c| c.ok), "{:?}", report.cells);
        let fig = &figs[0];
        let rec = fig.col("nbr_recovery");
        for w in smoke {
            let row = fig
                .rows
                .iter()
                .find(|r| r.label == format!("{}/inferred", w.label()))
                .expect("inferred row");
            assert!(
                row.values[rec] >= 0.9,
                "{} recovery {}",
                w.label(),
                row.values[rec]
            );
        }
    }

    #[test]
    fn inference_family_is_jobs_invariant() {
        let opts = HarnessOpts::default();
        let smoke = [WorkloadName::BinTree];
        let (a, _) = run_plans_opts(
            vec![inference_plan_for(&smoke, opts)],
            &RunOpts::new(1, opts.seed),
        );
        let (b, _) = run_plans_opts(
            vec![inference_plan_for(&smoke, opts)],
            &RunOpts::new(4, opts.seed),
        );
        assert_eq!(a[0].to_json(), b[0].to_json());
    }

    #[test]
    fn full_plan_covers_every_table3_workload_in_three_modes() {
        let plan = inference_plan(HarnessOpts::default());
        assert_eq!(plan.cell_labels().len(), WorkloadName::FIG12.len() * 3);
        for w in WorkloadName::FIG12 {
            for mode in ["annotated", "inferred", "none"] {
                let label = format!("{}/{}", w.label(), mode);
                assert!(
                    plan.cell_labels().iter().any(|l| *l == label),
                    "missing cell {label}"
                );
            }
        }
    }
}
