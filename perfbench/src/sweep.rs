//! The two sweep workloads, run through the entry points `figures` users
//! call: `plan_figure` + `run_plans_opts` with the binary's defaults
//! (journal on to a fresh path, memo off, metrics off, two workers).
//!
//! * `table3` — the Fig 12 cell set: 10 Table-3 workloads × {In-Core,
//!   Near-L3, Aff-Alloc(Hybrid-5)}, 30 short cells touching every workload
//!   family once.
//! * `graph-scale` — the Fig 16 cell set: {pr_push, bfs, sssp} × |V|
//!   {1, 2, 4, 8}× × {Near-L3, Min-Hop, Hybrid-5} on the 128 KiB-bank L3,
//!   36 cells dominated by input generation, Eq-4 layout and graph kernels.
//!
//! The traced run repeats the cells serially, calling each layer's public
//! functions itself (the same calls `suite::run` makes) with a span around
//! each, and checks that every cell simulates the same cycles the sweep
//! recorded for it.

use crate::host::{geomean, median, peak_rss_mb, process_cpu_s, quantile, reset_peak_rss};
use crate::report::Report;
use crate::trace::Trace;
use aff_bench::figures::{plan_figure, HarnessOpts};
use aff_bench::sweep::{run_plans_opts, RunOpts};
use aff_bench::{Figure, SweepReport};
use aff_nsc::engine::Metrics;
use aff_sim_core::config::MachineConfig;
use aff_workloads::affine::{run_stencil, Stencil};
use aff_workloads::config::{RunConfig, SystemConfig};
use aff_workloads::graphs::{pick_source, DirectionPolicy, GraphInstance};
use aff_workloads::pointer::{
    run_bin_tree, run_hash_join, run_link_list, BinTreeParams, HashJoinParams, LinkListParams,
};
use aff_workloads::suite::{kron_input, kron_weighted_input, WorkloadName};
use affinity_alloc::BankSelectPolicy;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed `results_scaled.txt` was rendered with; at this seed every
/// rendered figure must match its block there byte for byte.
pub const GOLDEN_SEED: u64 = 2023;

/// Set-up repetitions before each pass; `setup_s` is the median of all of
/// them. Spreading them over the run keeps a few seconds of fast or slow
/// host from deciding a microsecond-scale figure.
const SETUP_REPS: usize = 41;

/// Fig 12's headline geomeans in the paper: Aff-Alloc speedup and energy
/// efficiency over Near-L3.
const PAPER_FIG12_SPEEDUP: f64 = 2.26;
const PAPER_FIG12_ENERGY: f64 = 1.76;

/// Which figure's cell set a sweep workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// The Fig 12 cell set.
    Table3,
    /// The Fig 16 cell set.
    GraphScale,
}

impl Sweep {
    /// The figure id `plan_figure` knows the cell set by.
    pub fn figure(self) -> &'static str {
        match self {
            Sweep::Table3 => "fig12",
            Sweep::GraphScale => "fig16",
        }
    }
}

/// One cell of the sweep as the traced run executes it.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The plan's cell label.
    pub label: String,
    /// The workload the cell runs.
    pub workload: WorkloadName,
    /// Its full run configuration.
    pub cfg: RunConfig,
}

/// The cells of `sweep` at `seed`, in plan order, with the configurations
/// `figures.rs` builds for them. The traced run checks that the labels match
/// the plan's and that every cell simulates the cycles the sweep recorded,
/// so a drift between this list and the plan shows up as a failure.
pub fn cells(sweep: Sweep, seed: u64) -> Vec<CellSpec> {
    let opts = HarnessOpts {
        seed,
        ..HarnessOpts::default()
    };
    let hybrid5 = SystemConfig::aff_alloc_default();
    let mut out = Vec::new();
    match sweep {
        Sweep::Table3 => {
            for w in WorkloadName::FIG12 {
                for s in [SystemConfig::InCore, SystemConfig::NearL3, hybrid5] {
                    out.push(CellSpec {
                        label: format!("{}/{}", w.label(), s.label()),
                        workload: w,
                        cfg: RunConfig::new(s)
                            .with_seed(seed)
                            .with_machine(opts.machine()),
                    });
                }
            }
        }
        Sweep::GraphScale => {
            let mut machine: MachineConfig = opts.machine();
            machine.l3_bank_bytes = 128 << 10;
            let systems = [
                ("Near-L3", SystemConfig::NearL3),
                ("Min-Hops", SystemConfig::AffAlloc(BankSelectPolicy::MinHop)),
                ("Hybrid-5", hybrid5),
            ];
            for w in [WorkloadName::PrPush, WorkloadName::Bfs, WorkloadName::Sssp] {
                for scale in [1u32, 2, 4, 8] {
                    for (label, s) in systems {
                        out.push(CellSpec {
                            label: format!("{}/{}/|V|x{}", w.label(), label, scale),
                            workload: w,
                            cfg: RunConfig::new(s)
                                .with_seed(seed)
                                .with_scale(scale)
                                .with_machine(machine.clone()),
                        });
                    }
                }
            }
        }
    }
    out
}

/// The block of `results_scaled.txt` holding `figure`'s rendering.
fn golden_block(figure: &str) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results_scaled.txt");
    let text = std::fs::read_to_string(path).ok()?;
    let start = text.find(&format!("== {figure}:"))?;
    let end = start + text[start..].find(&format!("  ({figure} took"))?;
    Some(text[start..end].trim_end().to_string())
}

/// One execution of the whole cell set through `run_plans_opts`.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    render_s: f64,
    rendered: String,
    figure: Figure,
    report: SweepReport,
}

/// Run the sweep once with `jobs` workers, journaling to a fresh file and
/// memoizing into `memo` when given.
fn run_pass(sweep: Sweep, seed: u64, jobs: usize, dir: &Path, memo: Option<&Path>) -> Pass {
    let opts = HarnessOpts {
        seed,
        ..HarnessOpts::default()
    };
    let journal = dir.join("journal");
    let _ = std::fs::remove_file(&journal);
    let run_opts = RunOpts {
        journal: Some(journal.clone()),
        memo: memo.map(Path::to_path_buf),
        ..RunOpts::new(jobs, seed)
    };
    let plans = vec![plan_figure(sweep.figure(), opts).expect("known figure id")];
    reset_peak_rss();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let (figures, report) = run_plans_opts(plans, &run_opts);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let peak_rss_mb = peak_rss_mb();
    let figure = figures
        .into_iter()
        .next()
        .expect("one plan renders one figure");
    let t1 = Instant::now();
    let rendered = figure.render();
    let json = report.to_json();
    let render_s = t1.elapsed().as_secs_f64();
    std::hint::black_box(json);
    let _ = std::fs::remove_file(&journal);
    Pass {
        wall_s,
        cpu_s,
        peak_rss_mb,
        render_s,
        rendered: rendered.trim_end().to_string(),
        figure,
        report,
    }
}

/// The correctness gate every pass goes through: failed cells count as
/// failed ops, and the rendering must equal the expected bytes.
fn check_pass(r: &mut Report, pass: &Pass, expected: &str, what: &str) {
    r.attempted += pass.report.cells.len() as u64;
    for c in pass.report.failures() {
        r.fail(format!("{what}: cell {} failed: {:?}", c.label, c.error));
    }
    if pass.rendered != expected {
        r.fail(format!(
            "{what}: rendered figure differs from the expected bytes"
        ));
    }
}

/// The bytes every pass must render: the golden block at [`GOLDEN_SEED`],
/// otherwise the first pass's own rendering (runs must repeat exactly).
fn expected_rendering(sweep: Sweep, seed: u64, first: &Pass, r: &mut Report) -> String {
    if seed != GOLDEN_SEED {
        return first.rendered.clone();
    }
    golden_block(sweep.figure()).unwrap_or_else(|| {
        r.fail(format!(
            "results_scaled.txt has no {} block",
            sweep.figure()
        ));
        String::new()
    })
}

/// [`SETUP_REPS`] timings of building the plan — the work `figures` does
/// before it hands the plan to `run_plans_opts`. The journal is opened (and
/// fsync'd) inside `run_plans_opts`, so that cost is part of `wall_s`.
fn measure_setup(sweep: Sweep, seed: u64, samples: &mut Vec<f64>) {
    let opts = HarnessOpts {
        seed,
        ..HarnessOpts::default()
    };
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let plan = plan_figure(sweep.figure(), opts).expect("known figure id");
        samples.push(t0.elapsed().as_secs_f64());
        drop(std::hint::black_box(plan));
    }
}

/// The untraced run: set up, then run whole passes until `seconds` have
/// elapsed, and report the end-to-end metrics.
pub fn run(sweep: Sweep, seed: u64, seconds: f64, jobs: usize, dir: &Path) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < crate::MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        measure_setup(sweep, seed, &mut setups);
        passes.push(run_pass(sweep, seed, jobs, dir, None));
    }
    let expected = expected_rendering(sweep, seed, &passes[0], &mut r);
    for (i, p) in passes.iter().enumerate() {
        check_pass(&mut r, p, &expected, &format!("pass {i}"));
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.report.cells.iter().map(|c| c.wall_ns as f64 / 1e6))
        .collect();
    let cells: usize = passes.iter().map(|p| p.report.cells.len()).sum();
    let mcps: Vec<f64> = passes
        .iter()
        .map(|p| p.report.total_sim_cycles() as f64 / p.wall_s / 1e6)
        .collect();
    r.set("wall_s", median(&walls));
    r.set(
        "cpu_s",
        median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
    );
    r.set(
        "ops_per_s",
        cells as f64 / passes.len() as f64 / median(&walls),
    );
    r.set("op_gmean_ms", geomean(cell_ms.iter().copied()));
    r.set("op_p90_ms", quantile(&cell_ms, 0.90));
    r.set(
        "peak_rss_mb",
        median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
    );
    r.set("setup_s", median(&setups));
    r.set("ok_ratio", 1.0 - r.failed_ratio());
    r.detail("sim_mcycles_per_s", median(&mcps), "Mcycles/s");
    r.detail("cell_p50_ms", median(&cell_ms), "ms");
    r.detail("cell_p99_ms", quantile(&cell_ms, 0.99), "ms");
    r.detail("failed_ratio", r.failed_ratio(), "ratio");
    r.detail("passes", passes.len() as f64, "count");
    r.detail("cells", cells as f64, "count");
    for (i, p) in passes.iter().enumerate() {
        r.detail(format!("pass{i}.wall_s"), p.wall_s, "s");
        r.detail(format!("pass{i}.cpu_s"), p.cpu_s, "s");
        r.detail(format!("pass{i}.peak_rss_mb"), p.peak_rss_mb, "MiB");
    }
    r
}

/// What the traced run learned about one cell.
struct TracedCell {
    label: String,
    metrics: Metrics,
    /// `(scale, weighted, edges)` of the input the cell generated.
    generated: Option<(u32, bool, u64)>,
}

fn system_tag(s: SystemConfig) -> &'static str {
    match s {
        SystemConfig::InCore => "incore",
        SystemConfig::NearL3 => "near",
        SystemConfig::AffAlloc(BankSelectPolicy::MinHop) => "minhop",
        SystemConfig::AffAlloc(BankSelectPolicy::Hybrid { h: 5.0 }) => "hybrid5",
        SystemConfig::AffAlloc(_) => "aff",
    }
}

/// Stencil sizes of `suite::run` at `scale`.
fn stencil(w: WorkloadName, scale: u64) -> Stencil {
    match w {
        WorkloadName::Pathfinder => Stencil::pathfinder(1_500_000 * scale),
        WorkloadName::Srad => Stencil::srad(1024 * scale, 2048),
        WorkloadName::Hotspot => Stencil::hotspot(2048 * scale, 1024),
        WorkloadName::Hotspot3D => Stencil::hotspot3d(256, 1024, 8 * scale),
        _ => unreachable!("not an affine workload"),
    }
}

/// Run one cell as `suite::run` would, with a span around every layer call.
fn traced_cell(spec: &CellSpec, tr: &mut Trace) -> TracedCell {
    let cfg = &spec.cfg;
    let system = system_tag(cfg.system);
    let label = tr.label(&spec.label);
    let cell = tr.enter("bench.cell", system, label);
    let mut generated = None;
    let scale = cfg.scale as usize;
    let w = match spec.workload {
        WorkloadName::Pr if cfg.system == SystemConfig::InCore => WorkloadName::PrPull,
        WorkloadName::Pr => WorkloadName::PrPush,
        w => w,
    };
    let metrics = match w {
        WorkloadName::Pathfinder
        | WorkloadName::Srad
        | WorkloadName::Hotspot
        | WorkloadName::Hotspot3D => {
            let s = stencil(w, u64::from(cfg.scale));
            tr.time("workloads.affine_run", w.label(), || run_stencil(&s, cfg))
        }
        WorkloadName::LinkList => {
            let p = LinkListParams {
                lists: 1000 * scale,
                nodes_per_list: 512,
            };
            tr.time("workloads.pointer_run", w.label(), || run_link_list(p, cfg))
        }
        WorkloadName::HashJoin => {
            let p = HashJoinParams {
                build_keys: 64 * 1024 * scale,
                probe_keys: 128 * 1024 * scale,
                buckets: 32 * 1024 * u64::from(cfg.scale),
                hit_rate: 1.0 / 8.0,
            };
            tr.time("workloads.pointer_run", w.label(), || run_hash_join(p, cfg))
        }
        WorkloadName::BinTree => {
            let p = BinTreeParams {
                nodes: 32 * 1024 * scale,
                lookups: 128 * 1024 * scale,
            };
            tr.time("workloads.pointer_run", w.label(), || run_bin_tree(p, cfg))
        }
        _ => {
            let weighted = w == WorkloadName::Sssp;
            let g = tr.time(
                "workloads.gen",
                if weighted { "weighted" } else { "plain" },
                || {
                    if weighted {
                        kron_weighted_input(cfg.scale, cfg.seed)
                    } else {
                        kron_input(cfg.scale, cfg.seed)
                    }
                },
            );
            generated = Some((cfg.scale, weighted, g.num_edges() as u64));
            let src = pick_source(&g);
            let inst = tr.time("ds.layout", system, || GraphInstance::new(g, cfg));
            tr.time("nsc.kernel", w.label(), || match w {
                WorkloadName::PrPush => inst.run_pr_push(),
                WorkloadName::PrPull => inst.run_pr_pull(),
                WorkloadName::Bfs => inst.run_bfs(src, DirectionPolicy::default_for(cfg.system)),
                WorkloadName::BfsPush => inst.run_bfs(src, DirectionPolicy::PushOnly),
                WorkloadName::BfsPull => inst.run_bfs(src, DirectionPolicy::PullOnly),
                WorkloadName::Sssp => inst.run_sssp(src),
                _ => unreachable!("every other workload is handled above"),
            })
            .metrics
        }
    };
    tr.exit(cell);
    TracedCell {
        label: spec.label.clone(),
        metrics,
        generated,
    }
}

/// Index of the `CycleBreakdown` term that binds: core, SE, bank, link,
/// DRAM (ties go to the earlier term).
fn binding_term(m: &Metrics) -> usize {
    let b = &m.breakdown;
    let terms = [b.core_compute, b.se_compute, b.bank_service, b.link, b.dram];
    let max = terms.iter().copied().max().unwrap_or(0);
    terms.iter().position(|&t| t == max).unwrap_or(0)
}

/// The traced run: the sweep again at two workers (sweep-pool metrics), the
/// serial traced pass, then a cold and a warm serial memoized sweep. The
/// cold one runs the same cells serially and untraced after the traced
/// pass, so the tracing-overhead ratio cannot credit warm-up to tracing.
pub fn traced(sweep: Sweep, seed: u64, jobs: usize, dir: &Path) -> (Report, Trace) {
    let mut r = Report::default();
    let mut tr = Trace::new(Instant::now(), 0);

    let span = tr.enter("bench.sweep", "", u32::MAX);
    let pool = run_pass(sweep, seed, jobs, dir, None);
    tr.exit(span);
    let expected = expected_rendering(sweep, seed, &pool, &mut r);
    check_pass(&mut r, &pool, &expected, "pooled sweep");

    let specs = cells(sweep, seed);
    let plan = plan_figure(
        sweep.figure(),
        HarnessOpts {
            seed,
            ..HarnessOpts::default()
        },
    )
    .expect("known figure id");
    if plan.cell_labels() != specs.iter().map(|c| c.label.as_str()).collect::<Vec<_>>() {
        r.fail("traced cell list differs from the plan's cells");
    }
    let span = tr.enter("bench.traced_pass", "", u32::MAX);
    let traced: Vec<TracedCell> = specs.iter().map(|c| traced_cell(c, &mut tr)).collect();
    tr.exit(span);
    r.attempted += traced.len() as u64;

    let memo: PathBuf = dir.join("memo");
    let _ = std::fs::remove_file(&memo);
    let span = tr.enter("bench.memo_cold", "", u32::MAX);
    let cold = run_pass(sweep, seed, 1, dir, Some(&memo));
    tr.exit(span);
    check_pass(&mut r, &cold, &expected, "cold memo sweep");
    let span = tr.enter("bench.memo_warm", "", u32::MAX);
    let warm = run_pass(sweep, seed, 1, dir, Some(&memo));
    tr.exit(span);
    check_pass(&mut r, &warm, &expected, "warm memo sweep");
    let _ = std::fs::remove_file(&memo);

    // The traced cells must simulate exactly what the sweep recorded.
    let recorded: BTreeMap<&str, u64> = pool
        .report
        .cells
        .iter()
        .map(|c| (c.label.as_str(), c.sim_cycles))
        .collect();
    for c in &traced {
        match recorded.get(c.label.as_str()) {
            Some(&cy) if cy == c.metrics.cycles => {}
            other => r.fail(format!(
                "traced cell {} simulated {} cycles, the sweep recorded {other:?}",
                c.label, c.metrics.cycles
            )),
        }
    }
    if let Err(e) = tr.check_nesting() {
        r.fail(format!("trace: {e}"));
    }

    layer_metrics(&mut r, &tr, &traced);
    bench_metrics(&mut r, sweep, jobs, &pool, &cold, &warm, &tr);
    (r, tr)
}

/// Per-layer metrics of the serial traced pass.
fn layer_metrics(r: &mut Report, tr: &Trace, traced: &[TracedCell]) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let gen_ns = tr.total_ns("workloads.gen", None);
    let gens: Vec<(u32, bool, u64)> = traced.iter().filter_map(|c| c.generated).collect();
    let unique: BTreeSet<(u32, bool)> = gens.iter().map(|&(s, w, _)| (s, w)).collect();
    let edges: u64 = gens.iter().map(|g| g.2).sum();
    r.set("workloads.gen_ms", ms(gen_ns));
    r.set("workloads.gen_calls", gens.len() as f64);
    r.set("workloads.gen_unique", unique.len() as f64);
    r.set(
        "workloads.gen_useful_ratio",
        unique.len() as f64 / gens.len().max(1) as f64,
    );
    r.set(
        "workloads.gen_medges_per_s",
        edges as f64 / gen_ns.max(1) as f64 * 1e3,
    );

    let layout_ns = tr.total_ns("ds.layout", None);
    r.set("ds.layout_ms", ms(layout_ns));
    for (name, tag) in [
        ("ds.layout_ms.near", "near"),
        ("ds.layout_ms.minhop", "minhop"),
        ("ds.layout_ms.hybrid5", "hybrid5"),
    ] {
        r.set(name, ms(tr.total_ns("ds.layout", Some(tag))));
    }
    r.set(
        "ds.layout_medges_per_s",
        edges as f64 / layout_ns.max(1) as f64 * 1e3,
    );
    r.set(
        "workloads.affine_run_ms",
        ms(tr.total_ns("workloads.affine_run", None)),
    );
    r.set(
        "workloads.pointer_run_ms",
        ms(tr.total_ns("workloads.pointer_run", None)),
    );

    let kernel_ns = tr.total_ns("nsc.kernel", None);
    r.set("nsc.kernel_ms", ms(kernel_ns));
    for (name, tag) in [
        ("nsc.kernel_ms.pr_push", "pr_push"),
        ("nsc.kernel_ms.bfs", "bfs"),
        ("nsc.kernel_ms.sssp", "sssp"),
    ] {
        r.set(name, ms(tr.total_ns("nsc.kernel", Some(tag))));
    }
    let graph_flits: u64 = traced
        .iter()
        .filter(|c| c.generated.is_some())
        .map(|c| c.metrics.total_hop_flits)
        .sum();
    r.set(
        "nsc.host_ns_per_flit_hop",
        kernel_ns as f64 / graph_flits.max(1) as f64,
    );

    let n = traced.len().max(1) as f64;
    let sum = |f: fn(&Metrics) -> f64| traced.iter().map(|c| f(&c.metrics)).sum::<f64>();
    r.set("nsc.sim_cycles", sum(|m| m.cycles as f64));
    let mut bound = [0u64; 5];
    for c in traced {
        bound[binding_term(&c.metrics)] += 1;
    }
    for (name, count) in [
        "nsc.bound_cells.core",
        "nsc.bound_cells.se",
        "nsc.bound_cells.bank",
        "nsc.bound_cells.link",
        "nsc.bound_cells.dram",
    ]
    .into_iter()
    .zip(bound)
    {
        r.set(name, count as f64);
    }
    r.set("noc.flit_hops", sum(|m| m.total_hop_flits as f64));
    r.set("noc.utilization_mean", sum(|m| m.noc_utilization) / n);
    r.set("cache.l3_miss_rate_mean", sum(|m| m.l3_miss_rate) / n);
    r.set("cache.dram_accesses", sum(|m| m.dram_accesses as f64));

    let cell_ns = tr.total_ns("bench.cell", None);
    let stage_ns: u64 = [
        "workloads.gen",
        "ds.layout",
        "nsc.kernel",
        "workloads.affine_run",
        "workloads.pointer_run",
    ]
    .iter()
    .map(|s| tr.total_ns(s, None))
    .sum();
    r.set(
        "trace.stage_coverage",
        stage_ns as f64 / cell_ns.max(1) as f64,
    );
}

/// Sweep-pool, memo, encode and model-fidelity metrics.
fn bench_metrics(
    r: &mut Report,
    sweep: Sweep,
    jobs: usize,
    pool: &Pass,
    cold: &Pass,
    warm: &Pass,
    tr: &Trace,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let cell_sum_ns = pool.report.total_cell_wall_ns();
    let traced_cell_ns = tr.total_ns("bench.cell", None);
    r.set("bench.sweep_ms", pool.wall_s * 1e3);
    r.set("bench.cell_sum_ms", ms(cell_sum_ns));
    r.set(
        "bench.cell_p50_ms",
        median(
            &pool
                .report
                .cells
                .iter()
                .map(|c| c.wall_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    r.set(
        "bench.sim_mcycles_per_s",
        pool.report.total_sim_cycles() as f64 / pool.wall_s / 1e6,
    );
    r.set(
        "bench.parallel_efficiency",
        cell_sum_ns as f64 / 1e9 / (pool.wall_s * jobs as f64),
    );
    r.set(
        "bench.cell_inflation",
        cell_sum_ns as f64 / traced_cell_ns.max(1) as f64,
    );
    r.set("bench.render_ms", pool.render_s * 1e3);
    r.set("bench.memo_cold_ms", cold.wall_s * 1e3);
    r.set("bench.memo_warm_ms", warm.wall_s * 1e3);
    r.set(
        "bench.memo_hit_ratio",
        warm.report.memo_hits as f64 / warm.report.cells.len().max(1) as f64,
    );
    // Tracing overhead: the traced serial cells against the same cells run
    // serially, untraced, through the sweep engine (the cold memo pass).
    r.set(
        "trace.overhead_ratio",
        traced_cell_ns as f64 / cold.report.total_cell_wall_ns().max(1) as f64,
    );
    r.detail("bench.jobs", jobs as f64, "count");
    if sweep == Sweep::Table3 {
        let geomean = |col: &str| {
            let c = pool.figure.col(col);
            pool.figure
                .rows
                .iter()
                .find(|row| row.label == "geomean/Aff-Alloc(Hybrid-5)")
                .map_or(f64::NAN, |row| row.values[c])
        };
        let speedup = geomean("speedup_vs_nearl3");
        let energy = geomean("energy_eff_vs_nearl3");
        r.set("bench.fig12_aff_speedup_vs_nearl3", speedup);
        r.set(
            "bench.fig12_aff_speedup_paper_err",
            (speedup / PAPER_FIG12_SPEEDUP).ln().abs(),
        );
        r.set("bench.fig12_energy_eff_vs_nearl3", energy);
        r.set(
            "bench.fig12_energy_eff_paper_err",
            (energy / PAPER_FIG12_ENERGY).ln().abs(),
        );
    }
}
