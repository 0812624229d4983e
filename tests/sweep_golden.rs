//! Golden-output regression tests for the deterministic sweep engine.
//!
//! A small, cheap subset of figures runs in-process and its JSON reports are
//! compared byte-for-byte against snapshots under `tests/golden/`, then a
//! serial (`jobs = 1`) run is compared byte-for-byte against a parallel
//! (`jobs = 4`) run. Together these pin down both *what* the harness
//! computes (speedups, energy, NoC traffic) and the engine's central
//! guarantee: scheduling never changes a single byte of figure output.
//!
//! To bless a new snapshot after an intentional metrics change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test sweep_golden
//! ```

use aff_bench::figures::{plan_figure, GeometrySpec, HarnessOpts};
use aff_bench::sweep::run_plans;
use aff_bench::SweepReport;

/// Figures cheap enough to replay on every test run (~seconds at scale 1):
/// the Δ-offset sweep (speedup + per-class NoC hops), the occupancy figure
/// (atomic-stream distributions), one frontier figure, and both tables.
const GOLDEN_FIGS: [&str; 5] = ["fig4", "fig14", "fig17", "table2", "table4"];

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Run the golden subset and render every figure as JSON (the byte-stable
/// machine-readable report; wall-time-bearing sweep stats are returned
/// separately and are *not* part of the comparison).
fn reports(jobs: usize) -> (String, SweepReport) {
    let opts = HarnessOpts::default();
    let plans = GOLDEN_FIGS
        .iter()
        .map(|id| plan_figure(id, opts).expect("golden figure id is known"))
        .collect();
    let (figures, report) = run_plans(plans, jobs, opts.seed);
    let mut out = String::new();
    for fig in &figures {
        out.push_str(&fig.to_json());
        out.push('\n');
    }
    (out, report)
}

#[test]
fn serial_report_matches_golden_snapshot() {
    let (got, report) = reports(1);
    assert_eq!(report.failures().count(), 0, "golden cells must not fail");
    let path = golden_dir().join("figures.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); run UPDATE_GOLDEN=1 cargo test --test \
             sweep_golden"
        )
    });
    assert_eq!(
        got, want,
        "figure reports drifted from tests/golden/figures.json; if intentional, re-bless with \
         UPDATE_GOLDEN=1"
    );
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let (serial, serial_report) = reports(1);
    let (parallel, parallel_report) = reports(4);
    assert_eq!(
        serial, parallel,
        "--jobs 4 changed figure bytes vs --jobs 1: the sweep engine's determinism guarantee is \
         broken"
    );
    // The *measured* stats may differ (wall time), but the deterministic
    // shape must not: same cells, same order, same simulated cycles.
    let shape = |r: &SweepReport| -> Vec<(String, String, bool, u64)> {
        r.cells
            .iter()
            .map(|c| (c.figure.clone(), c.label.clone(), c.ok, c.sim_cycles))
            .collect()
    };
    assert_eq!(shape(&serial_report), shape(&parallel_report));
    assert_eq!(parallel_report.jobs, 4);
}

/// The 16×16 sweep is release-speed work (49 fig13 cells × 256 banks, a
/// couple of minutes optimized, tens of minutes under a debug build), so
/// tier-1 `cargo test -q` skips it; CI's release-mode golden run
/// (`cargo test --release --test sweep_golden`) covers it on every push.
fn skip_geometry_in_debug(test: &str) -> bool {
    if cfg!(debug_assertions) && std::env::var_os("GEOMETRY_GOLDEN").is_none() {
        eprintln!("{test}: skipped under a debug build (set GEOMETRY_GOLDEN=1 to force)");
        return true;
    }
    false
}

/// Run the fig13 policy-sensitivity sweep on a 16×16 mesh (256 banks — past
/// the dense route-table threshold, so the on-demand store is live) and
/// render it as JSON. This is the scaled-geometry counterpart of
/// [`reports`]; it pins that the machine model is genuinely parameterized
/// past 8×8 rather than merely accepting the flag.
fn geometry_reports(jobs: usize) -> (String, SweepReport) {
    let opts = HarnessOpts {
        geometry: GeometrySpec::parse("16x16").expect("16x16 is a valid geometry"),
        ..HarnessOpts::default()
    };
    let plans = vec![plan_figure("fig13", opts).expect("fig13 is a known figure")];
    let (figures, report) = run_plans(plans, jobs, opts.seed);
    let mut out = String::new();
    for fig in &figures {
        out.push_str(&fig.to_json());
        out.push('\n');
    }
    (out, report)
}

#[test]
fn geometry_sweep_matches_golden_snapshot() {
    if skip_geometry_in_debug("geometry_sweep_matches_golden_snapshot") {
        return;
    }
    let (got, report) = geometry_reports(1);
    assert_eq!(report.failures().count(), 0, "16x16 cells must not fail");
    let path = golden_dir().join("figures_geometry.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write geometry golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); run UPDATE_GOLDEN=1 cargo test --test \
             sweep_golden"
        )
    });
    assert_eq!(
        got, want,
        "16x16 figure reports drifted from tests/golden/figures_geometry.json; if intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn geometry_sweep_is_byte_identical_across_jobs() {
    if skip_geometry_in_debug("geometry_sweep_is_byte_identical_across_jobs") {
        return;
    }
    let (serial, serial_report) = geometry_reports(1);
    let (parallel, parallel_report) = geometry_reports(4);
    assert_eq!(
        serial, parallel,
        "--jobs 4 changed 16x16 figure bytes vs --jobs 1: determinism must hold off the default \
         geometry too"
    );
    assert_eq!(serial_report.failures().count(), 0);
    assert_eq!(parallel_report.jobs, 4);
}

#[test]
fn run_to_completion_guards_do_not_change_golden_bytes() {
    // Same subset with the run-to-completion guard enabled: the checkpoint
    // journal. Every cell still runs once on its own RNG stream, so the
    // figure bytes must not move.
    use aff_bench::sweep::{run_plans_opts, RunOpts};
    let (plain, _) = reports(1);
    let opts = HarnessOpts::default();
    let plans = GOLDEN_FIGS
        .iter()
        .map(|id| plan_figure(id, opts).expect("golden figure id is known"))
        .collect();
    let journal =
        std::env::temp_dir().join(format!("aff-golden-guards-{}.journal", std::process::id()));
    let run_opts = RunOpts {
        journal: Some(journal.clone()),
        resume: false,
        ..RunOpts::new(2, opts.seed)
    };
    let (figures, report) = run_plans_opts(plans, &run_opts);
    std::fs::remove_file(&journal).ok();
    assert_eq!(report.failures().count(), 0, "golden cells must not fail");
    assert!(report.journal_error.is_none());
    assert!(report.cells.iter().all(|c| !c.cached));
    let mut got = String::new();
    for fig in &figures {
        got.push_str(&fig.to_json());
        got.push('\n');
    }
    assert_eq!(
        got, plain,
        "the journal changed figure bytes: the byte-identity guarantee is broken"
    );
}

#[test]
fn rendered_tables_are_jobs_invariant_too() {
    // `to_json` is what the golden file pins; the human-readable table path
    // must be schedule-invariant as well (it is what `figures all` prints).
    let opts = HarnessOpts::default();
    let run = |jobs: usize| -> String {
        let plans = vec![plan_figure("fig4", opts).expect("fig4 is known")];
        let (figs, _) = run_plans(plans, jobs, opts.seed);
        figs.iter().map(|f| f.render()).collect()
    };
    assert_eq!(run(1), run(4));
}
