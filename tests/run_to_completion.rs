//! Run-to-completion guarantees of the sweep engine (DESIGN.md §10):
//! crash-safe checkpoint/resume must be **byte-identical** to an
//! uninterrupted run, and journal corruption must degrade to re-running the
//! affected cells — never to corrupt figure output.
//!
//! The killed-process variant of the resume test (SIGKILL mid-sweep, then
//! `figures --resume`) runs in CI; here the interruption is simulated by
//! truncating / corrupting the journal file directly, which exercises the
//! identical replay path deterministically and without timing sensitivity.

use aff_bench::report::{Figure, Row};
use aff_bench::sweep::{run_plans_opts, CellData, PlanBuilder, RunOpts, SweepPlan};
use affinity_alloc_repro::sim::rng::SimRng;

const SEED: u64 = 0xC0FFEE;

/// Two deterministic multi-cell plans: every value is drawn from a stream
/// split from the seed per cell, so any replay divergence shows up in the
/// bytes.
fn plans() -> Vec<SweepPlan> {
    ["alpha", "beta"]
        .into_iter()
        .enumerate()
        .map(|(p, name)| {
            let mut b = PlanBuilder::new(name);
            let mut ids = Vec::new();
            for i in 0..6u64 {
                let mut rng = SimRng::split(SEED, p as u64 * 6 + i);
                ids.push(b.cell(format!("cell{i}"), move |_| CellData::Rows {
                    rows: vec![Row::new(
                        format!("cell{i}"),
                        vec![rng.next_u64() as f64, rng.next_u64() as f64],
                    )],
                    sim_cycles: i + 1,
                }));
            }
            b.merge(move |o| {
                let mut fig = Figure::new("plan", "run-to-completion", vec!["a", "b"]);
                for &i in &ids {
                    if let Some(rows) = o.rows(i) {
                        fig.rows.extend(rows.iter().cloned());
                    }
                }
                fig
            })
        })
        .collect()
}

fn figures_json(figs: &[Figure]) -> Vec<String> {
    figs.iter().map(Figure::to_json).collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("aff-run-to-completion");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(format!("{name}-{}.journal", std::process::id()))
}

fn opts_with_journal(path: &std::path::Path, resume: bool) -> RunOpts {
    RunOpts {
        journal: Some(path.to_path_buf()),
        resume,
        ..RunOpts::new(2, SEED)
    }
}

#[test]
fn resume_after_interruption_is_byte_identical() {
    let path = tmp("resume");
    let (baseline, _) = run_plans_opts(plans(), &RunOpts::new(1, SEED));
    let baseline = figures_json(&baseline);

    // Full journaled run, then simulate a kill by chopping the journal down
    // to its first few records (a torn half-record at the cut point).
    let (_, report) = run_plans_opts(plans(), &opts_with_journal(&path, false));
    assert!(report.journal_error.is_none());
    let full = std::fs::read(&path).expect("journal written");
    std::fs::write(&path, &full[..full.len() * 2 / 5]).expect("truncate journal");

    let (resumed, report) = run_plans_opts(plans(), &opts_with_journal(&path, true));
    assert!(report.journal_error.is_none());
    assert!(
        report.resumed_cells > 0,
        "the intact journal prefix must be replayed"
    );
    assert!(
        report.resumed_cells < 12,
        "the interrupted tail must re-run"
    );
    assert_eq!(
        report.cells.iter().filter(|c| c.cached).count(),
        report.resumed_cells
    );
    assert_eq!(figures_json(&resumed), baseline);

    // A second resume replays everything (the re-run cells were journaled).
    let (resumed, report) = run_plans_opts(plans(), &opts_with_journal(&path, true));
    assert_eq!(report.resumed_cells, 12);
    assert_eq!(figures_json(&resumed), baseline);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_journal_degrades_to_rerun_never_to_bad_output() {
    let path = tmp("corrupt");
    let (baseline, _) = run_plans_opts(plans(), &RunOpts::new(1, SEED));
    let baseline = figures_json(&baseline);

    let (_, _) = run_plans_opts(plans(), &opts_with_journal(&path, false));
    let mut bytes = std::fs::read(&path).expect("journal written");
    // Flip one payload bit in the middle of the file: the record and its
    // suffix lose their checksums and must be re-run, not trusted.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite journal");

    let (resumed, report) = run_plans_opts(plans(), &opts_with_journal(&path, true));
    assert!(
        report.resumed_cells < 12,
        "corrupt suffix must not be replayed"
    );
    assert_eq!(figures_json(&resumed), baseline);
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_journal_from_another_experiment_is_refused() {
    let path = tmp("stale");
    let (baseline, _) = run_plans_opts(plans(), &RunOpts::new(1, SEED));
    let baseline = figures_json(&baseline);

    // Journal written under a different seed: its cells are keyed by that
    // seed, so resuming must re-run all cells instead of merging another
    // experiment's bits.
    let other = RunOpts {
        seed: SEED + 1,
        ..opts_with_journal(&path, false)
    };
    let (_, _) = run_plans_opts(plans(), &other);

    let (resumed, report) = run_plans_opts(plans(), &opts_with_journal(&path, true));
    assert_eq!(report.resumed_cells, 0, "stale journal must be discarded");
    assert_eq!(figures_json(&resumed), baseline);
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_io_failure_degrades_to_an_unjournaled_run() {
    let path = std::env::temp_dir()
        .join("aff-run-to-completion-missing-dir")
        .join("does")
        .join("not")
        .join("exist.journal");
    let (baseline, _) = run_plans_opts(plans(), &RunOpts::new(1, SEED));
    let baseline = figures_json(&baseline);

    let (figs, report) = run_plans_opts(plans(), &opts_with_journal(&path, false));
    assert!(
        report.journal_error.as_deref().is_some_and(|e| {
            e.starts_with("journal: ")
                && e.contains("journal create failed")
                && e.contains("continuing without checkpoints")
        }),
        "journal failure must be recorded, got {:?}",
        report.journal_error
    );
    assert_eq!(figures_json(&figs), baseline, "the sweep itself completes");
}

#[test]
fn failed_cells_are_retried_on_resume() {
    let path = tmp("retry-failed");
    // First run: the "flaky" cell always fails, so the journal records an
    // error outcome for it.
    let flaky_plan = |fail: bool| -> Vec<SweepPlan> {
        let mut b = PlanBuilder::new("flaky");
        let id = b.cell("cell0", move |_| {
            if fail {
                panic!("transient failure");
            }
            CellData::Rows {
                rows: vec![Row::new("cell0", vec![SimRng::new(SEED).next_u64() as f64])],
                sim_cycles: 1,
            }
        });
        vec![b.merge(move |o| {
            let mut fig = Figure::new("flaky", "t", vec!["v"]);
            if let Some(rows) = o.rows(id) {
                fig.rows.extend(rows.iter().cloned());
            }
            fig
        })]
    };
    let (_, report) = run_plans_opts(flaky_plan(true), &opts_with_journal(&path, false));
    assert!(!report.cells[0].ok);

    // Resume with the failure gone: the journaled Err outcome must NOT be
    // reused — the cell re-runs and succeeds.
    let (figs, report) = run_plans_opts(flaky_plan(false), &opts_with_journal(&path, true));
    assert_eq!(report.resumed_cells, 0, "failed outcomes are not replayed");
    assert!(report.cells[0].ok);
    assert_eq!(figs[0].rows.len(), 1);

    // And the fresh success is journaled: a further resume replays it.
    let (_, report) = run_plans_opts(flaky_plan(false), &opts_with_journal(&path, true));
    assert_eq!(report.resumed_cells, 1);
    std::fs::remove_file(&path).ok();
}
