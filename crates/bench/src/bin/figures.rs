//! `figures` — regenerate the paper's evaluation figures.
//!
//! ```text
//! figures all                 # every figure, harness (scaled) inputs
//! figures fig12 fig13         # selected figures
//! figures --full fig12        # Table 3 input sizes (slow)
//! figures --seed 7 fig4       # change the experiment seed
//! figures --json fig12        # machine-readable output for plotting
//! figures --jobs 8 all        # parallel sweep (output byte-identical)
//! figures --sweep-json f.json # where to write the perf report
//! figures --journal j --resume all   # crash-safe: replay completed cells
//! figures --memo m all               # cross-run cell cache
//! figures --cell-timeout-ms 60000 --max-retries 1 all  # run-to-completion
//! figures --metrics fig13            # per-cell metrics in the sweep report
//! figures --trace t.json fig13       # + one traced cell as Chrome JSON
//! figures --chaos 7 fig13            # deterministic fault-timeline chaos
//! figures --chaos 7 --chaos-intensity 12 all   # denser fault schedules
//! figures inference                  # closed-loop affinity inference
//!                                    # (annotated vs inferred vs none;
//!                                    # opt-in — not part of `all`)
//! ```
//!
//! Figure tables/JSON go to **stdout** and are byte-identical for any
//! `--jobs` value — and, with `--resume`, byte-identical to an uninterrupted
//! run; timing and the sweep summary go to **stderr**; per-cell
//! wall-time/throughput counters land in `BENCH_sweep.json` (see
//! `--sweep-json`). Checkpoints append to `BENCH_sweep.journal` (see
//! `--journal`). The journal and the memo are the same content-addressed
//! cell store: each cell is keyed by a hash of the code build, the harness
//! config (scale, geometry, tenants), seed, chaos, figure, cell and label,
//! so a store written by another build is never replayed.
//!
//! Exit codes:
//!
//! * `0` — every cell completed;
//! * `2` — usage error (bad flag, unknown figure id);
//! * `3` — one or more cells failed (figures still produced, failed cells
//!   annotated as `NaN` rows / notes);
//! * `4` — one or more cells hit a run-to-completion limit (cycle/event
//!   budget, stall watchdog, or `--cell-timeout-ms`); takes precedence
//!   over 3 when both classes occur.

use aff_bench::figures::{plan_figure, traced_fig13_cell, GeometrySpec, HarnessOpts, ALL_FIGURES};
use aff_bench::report::AggregateRow;
use aff_bench::store::fnv1a;
use aff_bench::sweep::{run_plans_opts, RunOpts};

fn usage() {
    eprintln!(
        "usage: figures [--full] [--seed N] [--geometry WxH[:torus|:cmesh]] [--tenants N] \
         [--jobs N] [--json] \
         [--sweep-json PATH|none] [--journal PATH|none] [--resume] [--memo PATH] \
         [--aggregate-from PATH] [--cell-timeout-ms N] \
         [--max-retries N] [--metrics] [--trace PATH] [--chaos SEED] [--chaos-intensity N] \
         (all | figN...)"
    );
    eprintln!("known figures: {ALL_FIGURES:?}");
    eprintln!("  inference      opt-in figure id (not part of 'all'): every Table 3");
    eprintln!("                 workload annotated vs closed-loop-inferred vs hint-free");
    eprintln!("  --journal PATH cell store checkpointed as cells finish (default");
    eprintln!("                 BENCH_sweep.journal); emptied by every run without --resume");
    eprintln!("  --resume       replay the journal's cells instead of re-running them");
    eprintln!("  --memo PATH    cross-run cell store, never emptied: later runs replay");
    eprintln!("                 matching cells instead of re-running them");
    eprintln!("                 (both stores key cells by a hash of the code build, config,");
    eprintln!("                 seed, chaos, figure and cell; another build's store is refused)");
    eprintln!("  --aggregate-from PATH   merge the aggregate rows of a prior sweep report");
    eprintln!("                 (sweep-v6 or later) into this run's BENCH_sweep.json");
    eprintln!("                 aggregates array");
    eprintln!("  --geometry SPEC   machine geometry, e.g. 16x16, 32x32, 8x8:torus, 8x8:cmesh");
    eprintln!("                    (default 8x8 — the paper's mesh; output stays byte-identical)");
    eprintln!("  --tenants N    tenant count for the 'tenants' churn family (default 4;");
    eprintln!("                 inert for every other figure)");
    eprintln!("  --metrics      record per-cell simulation metrics in the sweep report");
    eprintln!("  --trace PATH   additionally run one traced fig13 cell and write a");
    eprintln!("                 chrome://tracing-loadable JSON trace to PATH");
    eprintln!("  --chaos SEED   run every cell under a deterministic fault timeline");
    eprintln!("                 sampled from SEED; online invariant checks fail cells");
    eprintln!("                 soft (exit 3) instead of aborting the sweep");
    eprintln!("  --chaos-intensity N   fault events per sampled timeline (default 4)");
    eprintln!("exit codes: 0 ok, 2 usage, 3 cell failures, 4 budget/timeout/stall failures");
}

fn main() {
    let mut opts = HarnessOpts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut json = false;
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep_json = Some("BENCH_sweep.json".to_string());
    let mut journal = Some("BENCH_sweep.journal".to_string());
    let mut resume = false;
    let mut memo: Option<String> = None;
    let mut aggregate_from: Option<String> = None;
    let mut cell_timeout_ms: Option<u64> = None;
    let mut max_retries: u32 = 0;
    let mut metrics = false;
    let mut trace_path: Option<String> = None;
    let mut chaos: Option<u64> = None;
    let mut chaos_intensity: u32 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.full = true,
            "--json" => json = true,
            "--resume" => resume = true,
            "--metrics" => metrics = true,
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("--trace needs a path");
                    std::process::exit(2);
                }
            },
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => opts.seed = v,
                _ => {
                    eprintln!("--seed needs an integer value");
                    std::process::exit(2);
                }
            },
            "--tenants" => match args.next().map(|v| v.parse::<u32>()) {
                Some(Ok(v)) if v >= 1 => opts.tenants = v,
                _ => {
                    eprintln!("--tenants needs an integer value >= 1");
                    std::process::exit(2);
                }
            },
            "--geometry" => match args.next().as_deref().map(GeometrySpec::parse) {
                Some(Ok(g)) => opts.geometry = g,
                Some(Err(e)) => {
                    eprintln!("--geometry: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--geometry needs a WxH[:torus|:cmesh] spec");
                    std::process::exit(2);
                }
            },
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) if v >= 1 => jobs = v,
                _ => {
                    eprintln!("--jobs needs an integer value >= 1");
                    std::process::exit(2);
                }
            },
            "--cell-timeout-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) if v >= 1 => cell_timeout_ms = Some(v),
                _ => {
                    eprintln!("--cell-timeout-ms needs an integer value >= 1");
                    std::process::exit(2);
                }
            },
            "--max-retries" => match args.next().map(|v| v.parse::<u32>()) {
                Some(Ok(v)) => max_retries = v,
                _ => {
                    eprintln!("--max-retries needs an integer value");
                    std::process::exit(2);
                }
            },
            "--chaos" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => chaos = Some(v),
                _ => {
                    eprintln!("--chaos needs an integer seed");
                    std::process::exit(2);
                }
            },
            "--chaos-intensity" => match args.next().map(|v| v.parse::<u32>()) {
                Some(Ok(v)) if v >= 1 => chaos_intensity = v,
                _ => {
                    eprintln!("--chaos-intensity needs an integer value >= 1");
                    std::process::exit(2);
                }
            },
            "--sweep-json" => match args.next() {
                Some(p) if p == "none" => sweep_json = None,
                Some(p) => sweep_json = Some(p),
                None => {
                    eprintln!("--sweep-json needs a path (or 'none')");
                    std::process::exit(2);
                }
            },
            "--journal" => match args.next() {
                Some(p) if p == "none" => journal = None,
                Some(p) => journal = Some(p),
                None => {
                    eprintln!("--journal needs a path (or 'none')");
                    std::process::exit(2);
                }
            },
            "--memo" => match args.next() {
                Some(p) if p == "none" => memo = None,
                Some(p) => memo = Some(p),
                None => {
                    eprintln!("--memo needs a path (or 'none')");
                    std::process::exit(2);
                }
            },
            "--aggregate-from" => match args.next() {
                Some(p) => aggregate_from = Some(p),
                None => {
                    eprintln!("--aggregate-from needs a path");
                    std::process::exit(2);
                }
            },
            "all" => ids.extend(ALL_FIGURES.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                usage();
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    // `inference` is dispatchable by id but deliberately absent from
    // ALL_FIGURES (and thus from `all`): it re-runs the whole suite 3 ways.
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| !ALL_FIGURES.contains(&id.as_str()) && id.as_str() != "inference")
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown figure id(s): {unknown:?}");
        usage();
        std::process::exit(2);
    }

    // The config hash covers the knobs that reshape cell *inputs* — scale,
    // geometry, tenant count — but deliberately NOT the figure-id list (a
    // `figures fig13` run reuses cells a `figures all` run stored) and NOT
    // seed/chaos (those are separate cell-key fields in the sweep).
    let mut memo_bytes: Vec<u8> = Vec::new();
    memo_bytes.push(u8::from(opts.full));
    memo_bytes.extend_from_slice(opts.geometry.label().as_bytes());
    memo_bytes.extend_from_slice(&opts.tenants.to_le_bytes());
    let memo_config = fnv1a(&memo_bytes);

    let start = std::time::Instant::now();
    let plans: Vec<_> = ids.iter().filter_map(|id| plan_figure(id, opts)).collect();
    let run_opts = RunOpts {
        jobs,
        seed: opts.seed,
        cell_timeout_ms,
        max_retries,
        journal: journal.map(std::path::PathBuf::from),
        resume,
        collect_metrics: metrics,
        chaos,
        chaos_intensity,
        memo: memo.as_ref().map(std::path::PathBuf::from),
        memo_config,
    };
    let (mut figures, mut report) = run_plans_opts(plans, &run_opts);
    if let Some(path) = &aggregate_from {
        match std::fs::read_to_string(path) {
            Ok(text) => report.extra_aggregates = AggregateRow::parse_report(&text),
            Err(e) => eprintln!("warning: --aggregate-from {path}: {e} (skipped)"),
        }
    }
    if !opts.geometry.is_default() {
        // Label off-default geometries in every figure; the default adds
        // nothing so 8×8 output bytes are untouched.
        for fig in &mut figures {
            fig.note(format!("geometry = {}", opts.geometry.label()));
        }
    }
    for fig in &figures {
        if json {
            println!("{}", fig.to_json());
        } else {
            println!("{}", fig.render());
        }
    }
    eprintln!("{}", report.render_summary());
    eprintln!("  (total {:.1?}, --jobs {jobs})", start.elapsed());
    if report.resumed_cells > 0 {
        eprintln!(
            "  resumed {} cell(s) from the journal",
            report.resumed_cells
        );
    }
    if let Some(m) = &memo {
        eprintln!(
            "  memo {m}: {} cell(s) replayed from cache",
            report.memo_hits
        );
    }
    if let Some(e) = &report.journal_error {
        eprintln!("  journal: {e}");
    }
    if let Some(path) = sweep_json {
        if let Err(e) = std::fs::write(&path, report.to_json() + "\n") {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("  wrote {path}");
    }
    if let Some(path) = trace_path {
        // Traced run happens after (and outside) the sweep so the recorder
        // overhead can never contaminate the sweep report's wall times.
        let trace_start = std::time::Instant::now();
        let (chrome_json, label) = traced_fig13_cell(opts);
        if let Err(e) = std::fs::write(&path, chrome_json + "\n") {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "  wrote {path} (traced fig13 cell {label}, {:.1?}; load in chrome://tracing)",
            trace_start.elapsed()
        );
    }
    if report.budget_failures().count() > 0 {
        // Run-to-completion limits (budgets, watchdog stalls, timeouts) get
        // their own exit code so CI can tell "the model is broken" (3) from
        // "the run needs a bigger budget" (4).
        std::process::exit(4);
    }
    if report.failures().count() > 0 {
        // Cells fail soft (recorded per cell, merged figures annotated), but
        // the process exit code still reports that something broke.
        std::process::exit(3);
    }
}
