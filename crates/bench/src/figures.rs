//! Reproduction of every evaluation figure in the paper.
//!
//! Each figure is declared as a [`SweepPlan`]: a list of self-contained
//! (workload, config) cells plus a merge function that reassembles the
//! [`Figure`] from cell outcomes in declaration order. Plans execute on the
//! deterministic parallel engine in [`crate::sweep`]; the `figures` binary
//! schedules all requested plans across `--jobs N` workers with
//! byte-identical output.
//!
//! Default inputs are the scaled-down harness sizes (see
//! `aff_workloads::suite`); pass `HarnessOpts { full: true, .. }` for
//! Table 3 sizes.
//!
//! Determinism: every input is a pure function of `opts.seed` and the
//! input size (workload seeds intentionally stay figure-level so cells that
//! are normalized against each other — e.g. the six chunk configs of Fig 6 —
//! see the *same* generated graph), so no cell draws from state another
//! cell could have advanced.
//!
//! Because the inputs are deterministic, a plan generates each distinct
//! graph once and shares it read-only among the cells that read it (a
//! [`Shared`] input per graph, claimed by those cells while the plan is
//! built — see `GraphInputs`). A cell sees the same bits whether it
//! generated the graph itself or received the shared copy, so sharing
//! changes no output byte.

use std::sync::{Arc, Mutex, PoisonError};

use crate::report::{Figure, Row};
use crate::sweep::{CellCtx, CellData, Claim, PlanBuilder, Shared, SweepPlan};
use aff_ds::graph::Graph;
use aff_ds::layout::{AllocMode, VertexArray};
use aff_ds::linked_csr::LinkedCsr;
use aff_sim_core::config::{BankOrder, MachineConfig, TopologyKind};
use aff_sim_core::stats::geomean;
use aff_workloads::affine::{run_stencil, run_stencil_opts, run_vecadd_forced_delta};
use aff_workloads::config::{RunConfig, SystemConfig};
use aff_workloads::gen;
use aff_workloads::graphs::{pick_source, Direction, GraphInstance};
use aff_workloads::suite::{self, GraphInput, SuiteRun, WorkloadName};
use affinity_alloc::{AffinityAllocator, BankSelectPolicy};

/// One point on the `figures --geometry` sweep axis: mesh dimensions plus
/// topology kind. The default is the paper's 8×8 mesh, under which every
/// figure stays byte-identical to a harness without the axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometrySpec {
    /// Tile-grid width.
    pub x: u32,
    /// Tile-grid height.
    pub y: u32,
    /// Interconnect family laid over the grid.
    pub kind: TopologyKind,
}

impl Default for GeometrySpec {
    fn default() -> Self {
        Self {
            x: 8,
            y: 8,
            kind: TopologyKind::Mesh,
        }
    }
}

impl GeometrySpec {
    /// Parse a `WxH[:torus|:cmesh]` spec (e.g. `16x16`, `8x8:torus`).
    ///
    /// # Errors
    ///
    /// Rejects malformed specs, zero dimensions, unknown topology kinds, and
    /// odd-dimension concentrated meshes.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (dims, kind) = match s.split_once(':') {
            None => (s, TopologyKind::Mesh),
            Some((d, "torus")) => (d, TopologyKind::Torus),
            Some((d, "cmesh")) => (d, TopologyKind::CMesh),
            Some((_, k)) => return Err(format!("unknown topology kind {k:?} (torus|cmesh)")),
        };
        let (xs, ys) = dims
            .split_once('x')
            .ok_or_else(|| format!("geometry {s:?} is not WxH[:torus|:cmesh]"))?;
        let parse_dim = |v: &str| {
            v.parse::<u32>()
                .ok()
                .filter(|&d| d > 0)
                .ok_or_else(|| format!("geometry {s:?} needs positive integer dimensions"))
        };
        let (x, y) = (parse_dim(xs)?, parse_dim(ys)?);
        if kind == TopologyKind::CMesh && (x % 2 != 0 || y % 2 != 0) {
            return Err(format!(
                "concentrated mesh needs even dimensions, got {x}x{y}"
            ));
        }
        Ok(Self { x, y, kind })
    }

    /// The canonical spec string (`16x16`, `8x8:torus`, ...).
    pub fn label(&self) -> String {
        match self.kind {
            TopologyKind::Mesh => format!("{}x{}", self.x, self.y),
            k => format!("{}x{}:{}", self.x, self.y, k.label()),
        }
    }

    /// Whether this is the paper's default 8×8 mesh.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }

    /// Apply the geometry to a machine config.
    pub fn apply(&self, m: &mut MachineConfig) {
        m.mesh_x = self.x;
        m.mesh_y = self.y;
        m.topology = self.kind;
    }
}

/// Harness-wide options.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    /// Experiment seed.
    pub seed: u64,
    /// Use full Table 3 input sizes (slower) instead of the harness
    /// defaults.
    pub full: bool,
    /// Machine geometry to run every figure on (`--geometry`).
    pub geometry: GeometrySpec,
    /// Tenant count for the `tenants` churn family (`--tenants`). Only that
    /// family reads it, so the default is inert for every other figure.
    pub tenants: u32,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        Self {
            seed: 2023,
            full: false,
            geometry: GeometrySpec::default(),
            tenants: 4,
        }
    }
}

impl HarnessOpts {
    pub(crate) fn graph_scale(&self) -> u32 {
        if self.full {
            8 // 2^17 vertices, Table 3
        } else {
            1 // 2^14
        }
    }

    /// The machine every cell simulates: the paper default with the
    /// `--geometry` axis applied. Value-identical to
    /// [`MachineConfig::paper_default`] at the default 8×8 mesh, which keeps
    /// default-geometry figures byte-identical.
    pub fn machine(&self) -> MachineConfig {
        let mut m = MachineConfig::paper_default();
        self.geometry.apply(&mut m);
        m
    }

    /// The run configuration of a cell simulating `system` on
    /// [`Self::machine`], stamped by the cell's context.
    pub(crate) fn cfg(&self, ctx: &mut CellCtx, system: SystemConfig) -> RunConfig {
        RunConfig::new(system)
            .with_seed(self.seed)
            .with_scale(self.graph_scale())
            .with_machine(ctx.machine(self.machine()))
    }
}

fn hybrid5() -> SystemConfig {
    SystemConfig::aff_alloc_default()
}

/// One deterministic graph input of a plan, shared among the cells that
/// read it, plus the weighted variant sssp reads, derived from the same
/// generated graph on first demand.
pub(crate) struct GraphInputs {
    plain: Shared<Graph>,
    weighted: Option<Shared<Graph>>,
    weigh: fn(&Graph, u64) -> Graph,
    seed: u64,
}

impl GraphInputs {
    /// An input built by `make`, weighted for sssp by `weigh(&plain, seed)`.
    pub(crate) fn new(
        make: impl Fn() -> Graph + Send + Sync + 'static,
        weigh: fn(&Graph, u64) -> Graph,
        seed: u64,
    ) -> Self {
        Self {
            plain: Shared::new(make),
            weighted: None,
            weigh,
            seed,
        }
    }

    /// The Kronecker input of `suite` at `scale`: `kron_input` plain,
    /// `kron_weighted_input` weighted.
    pub(crate) fn kron(scale: u32, seed: u64) -> Self {
        Self::new(
            move || suite::kron_input(scale, seed),
            gen::weight_kronecker,
            seed,
        )
    }

    /// Claim the plain graph.
    pub(crate) fn plain(&self) -> Claim<Graph> {
        self.plain.claim()
    }

    /// Claim the weighted graph. Building it takes the plain graph once.
    pub(crate) fn weighted(&mut self) -> Claim<Graph> {
        let (plain, weigh, seed) = (&self.plain, self.weigh, self.seed);
        self.weighted
            .get_or_insert_with(|| {
                let base = plain.claim();
                Shared::new(move || weigh(&base.take(), seed))
            })
            .claim()
    }

    /// Claim the graph `w` reads (`None` for non-graph workloads): what
    /// [`suite::gen_input`] would generate for it at this input's scale.
    pub(crate) fn claim_for(&mut self, w: WorkloadName) -> Option<Claim<Graph>> {
        Some(match w.graph_input()? {
            GraphInput::Plain => self.plain(),
            GraphInput::Weighted => self.weighted(),
        })
    }
}

/// Run `w` under `cfg` on its claimed shared input, or through
/// [`suite::run`] when it reads none.
pub(crate) fn run_claimed(
    w: WorkloadName,
    cfg: &RunConfig,
    input: Option<&Claim<Graph>>,
) -> SuiteRun {
    suite::run_on(w, cfg, input.map(Claim::take))
}

/// Fig 4: vec-add speedup and NoC hops vs forced layout offset Δ.
///
/// Fig 4 as a sweep plan: one cell per Δ point.
pub fn fig4_plan(opts: HarnessOpts) -> SweepPlan {
    // Always Table 3's 1.5M entries: smaller inputs fit in the private L2
    // and leave the Fig 4 regime entirely (the sweep is cheap regardless).
    let n = 1_500_000;
    let _ = opts.full;
    let mut b = PlanBuilder::new("fig4");
    let incore = b.cell("In-Core", move |ctx| {
        let cfg = RunConfig::new(SystemConfig::InCore)
            .with_seed(opts.seed)
            .with_machine(ctx.machine(opts.machine()));
        run_vecadd_forced_delta(n, Some(0), &cfg).into()
    });
    // (label, cell id) in row order; the In-Core row reuses the In-Core cell.
    let mut cells: Vec<(String, usize)> = vec![("In-Core".into(), incore)];
    for delta in (0..=64u32).step_by(4) {
        let label = format!("Δ Bank {delta}");
        let id = b.cell(label.clone(), move |ctx| {
            let cfg = RunConfig::new(SystemConfig::NearL3)
                .with_seed(opts.seed)
                .with_machine(ctx.machine(opts.machine()));
            run_vecadd_forced_delta(n, Some(delta), &cfg).into()
        });
        cells.push((label, id));
    }
    let id = b.cell("Random", move |ctx| {
        let cfg = RunConfig::new(SystemConfig::NearL3)
            .with_seed(opts.seed)
            .with_machine(ctx.machine(opts.machine()));
        run_vecadd_forced_delta(n, None, &cfg).into()
    });
    cells.push(("Random".into(), id));
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig4",
            "Impact of affine data layout on vec add (normalized to In-Core)",
            vec![
                "speedup",
                "hops",
                "hops_offload",
                "hops_data",
                "hops_control",
            ],
        );
        let ih = o
            .metrics(incore)
            .map(|m| m.total_hop_flits.max(1) as f64)
            .unwrap_or(f64::NAN);
        for (label, id) in &cells {
            fig.push(
                label.clone(),
                vec![
                    o.speedup(*id, incore),
                    o.field(*id, |m| m.total_hop_flits as f64) / ih,
                    o.field(*id, |m| m.hop_flits[0] as f64) / ih,
                    o.field(*id, |m| m.hop_flits[1] as f64) / ih,
                    o.field(*id, |m| m.hop_flits[2] as f64) / ih,
                ],
            );
        }
        fig.note(format!("n = {n} floats, 8 iterations"));
        fig
    })
}

const FIG6_WORKLOADS: [WorkloadName; 5] = [
    WorkloadName::PrPush,
    WorkloadName::BfsPush,
    WorkloadName::Sssp,
    WorkloadName::PrPull,
    WorkloadName::BfsPull,
];
const FIG6_CONFIGS: [(&str, Option<u64>); 6] = [
    ("Base", None),
    ("Ind-4kB", Some(4096)),
    ("Ind-1kB", Some(1024)),
    ("Ind-256B", Some(256)),
    ("Ind-64B", Some(64)),
    ("Ind-Ideal", Some(0)), // chunk = one edge
];

/// Fig 6: irregular-layout potential — speedup/hops when CSR edge chunks of
/// various sizes are freely placed by the oracle (vs. the NSC baseline).
///
/// Fig 6 as a sweep plan: one cell per (workload, chunk config). The cells
/// share two generated inputs — the plain Kronecker graph and, for sssp,
/// its weighted variant — and own everything else (layout, engine).
pub fn fig6_plan(opts: HarnessOpts) -> SweepPlan {
    let mut b = PlanBuilder::new("fig6");
    let mut inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    // idx[wi][ci]: cell id backing row (workload, config); the "Base" config
    // reuses the workload's baseline cell.
    let mut idx: Vec<Vec<usize>> = Vec::new();
    for w in FIG6_WORKLOADS {
        let input = inputs.claim_for(w);
        let base = b.cell(format!("{}/Base", w.label()), move |ctx| {
            let cfg = opts.cfg(ctx, SystemConfig::NearL3);
            run_claimed(w, &cfg, input.as_ref()).metrics.into()
        });
        let mut row = vec![base];
        for (label, chunk) in FIG6_CONFIGS.iter().skip(1) {
            let bytes = chunk.unwrap_or(0);
            let input = inputs.claim_for(w).expect("fig6 workloads read a graph");
            let id = b.cell(format!("{}/{label}", w.label()), move |ctx| {
                let g = input.take();
                let cb = if bytes == 0 { g.edge_bytes() } else { bytes };
                let cfg = opts.cfg(ctx, hybrid5());
                GraphInstance::with_chunk_oracle(g, &cfg, cb)
                    .run(w)
                    .metrics
                    .into()
            });
            row.push(id);
        }
        idx.push(row);
    }
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig6",
            "Impact of irregular data layout (normalized to Base = Near-L3 CSR)",
            vec!["speedup", "hops"],
        );
        let mut per_config_speedups: Vec<Vec<f64>> = vec![Vec::new(); FIG6_CONFIGS.len()];
        for (wi, w) in FIG6_WORKLOADS.iter().enumerate() {
            let base = idx[wi][0];
            for (ci, (label, _)) in FIG6_CONFIGS.iter().enumerate() {
                let id = idx[wi][ci];
                let speedup = o.speedup(id, base);
                per_config_speedups[ci].push(speedup);
                fig.push(
                    format!("{}/{label}", w.label()),
                    vec![speedup, o.traffic(id, base)],
                );
            }
        }
        for (ci, (label, _)) in FIG6_CONFIGS.iter().enumerate() {
            fig.push(
                format!("geomean/{label}"),
                vec![geomean(&per_config_speedups[ci]).unwrap_or(1.0), f64::NAN],
            );
        }
        fig.note("chunks placed by min-hop oracle, 2% load-imbalance cap (paper footnote 2)");
        fig
    })
}

/// Fig 12: overall speedup / energy efficiency (vs Near-L3) and NoC hops
/// (vs In-Core) for the full suite.
///
/// Fig 12 as a sweep plan: one cell per (workload, system).
pub fn fig12_plan(opts: HarnessOpts) -> SweepPlan {
    let systems = [SystemConfig::InCore, SystemConfig::NearL3, hybrid5()];
    let mut b = PlanBuilder::new("fig12");
    let mut inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    let mut idx: Vec<Vec<usize>> = Vec::new();
    for &w in &WorkloadName::FIG12 {
        let row = systems
            .iter()
            .map(|&s| {
                let input = inputs.claim_for(w);
                b.cell(format!("{}/{}", w.label(), s.label()), move |ctx| {
                    run_claimed(w, &opts.cfg(ctx, s), input.as_ref())
                        .metrics
                        .into()
                })
            })
            .collect();
        idx.push(row);
    }
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig12",
            "Overall performance and traffic reduction",
            vec![
                "speedup_vs_nearl3",
                "energy_eff_vs_nearl3",
                "hops_vs_incore",
                "noc_util",
            ],
        );
        let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut energies: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for (wi, w) in WorkloadName::FIG12.iter().enumerate() {
            let incore = idx[wi][0];
            let near = idx[wi][1];
            for (si, s) in systems.iter().enumerate() {
                let id = idx[wi][si];
                let sp = o.speedup(id, near);
                let ee = o.energy_eff(id, near);
                speedups[si].push(sp);
                energies[si].push(ee);
                fig.push(
                    format!("{}/{}", w.label(), s.label()),
                    vec![
                        sp,
                        ee,
                        o.traffic(id, incore),
                        o.field(id, |m| m.noc_utilization),
                    ],
                );
            }
        }
        for (si, s) in systems.iter().enumerate() {
            fig.push(
                format!("geomean/{}", s.label()),
                vec![
                    geomean(&speedups[si]).unwrap_or(1.0),
                    geomean(&energies[si]).unwrap_or(1.0),
                    f64::NAN,
                    f64::NAN,
                ],
            );
        }
        fig
    })
}

/// The irregular workloads of Fig 13.
pub const FIG13_WORKLOADS: [WorkloadName; 7] = [
    WorkloadName::PrPush,
    WorkloadName::PrPull,
    WorkloadName::Bfs,
    WorkloadName::Sssp,
    WorkloadName::LinkList,
    WorkloadName::HashJoin,
    WorkloadName::BinTree,
];

/// The policies of Fig 13.
pub fn fig13_policies() -> Vec<BankSelectPolicy> {
    vec![
        BankSelectPolicy::Rnd,
        BankSelectPolicy::Lnr,
        BankSelectPolicy::MinHop,
        BankSelectPolicy::Hybrid { h: 1.0 },
        BankSelectPolicy::Hybrid { h: 3.0 },
        BankSelectPolicy::Hybrid { h: 5.0 },
        BankSelectPolicy::Hybrid { h: 7.0 },
    ]
}

/// Fig 13: bank-select policy sensitivity, normalized to Rnd.
///
/// Fig 13 as a sweep plan: the embarrassingly parallel
/// (workload × policy) grid, one cell each.
pub fn fig13_plan(opts: HarnessOpts) -> SweepPlan {
    let policies = fig13_policies();
    let mut b = PlanBuilder::new("fig13");
    let mut inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    let mut idx: Vec<Vec<usize>> = Vec::new();
    for &w in &FIG13_WORKLOADS {
        let row = policies
            .iter()
            .map(|&p| {
                let input = inputs.claim_for(w);
                b.cell(format!("{}/{}", w.label(), p.label()), move |ctx| {
                    let cfg = opts.cfg(ctx, SystemConfig::AffAlloc(p));
                    run_claimed(w, &cfg, input.as_ref()).metrics.into()
                })
            })
            .collect();
        idx.push(row);
    }
    let labels: Vec<String> = policies.iter().map(BankSelectPolicy::label).collect();
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig13",
            "Sensitivity to irregular layout policies (normalized to Rnd)",
            vec!["speedup", "hops", "noc_util"],
        );
        let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
        for (wi, w) in FIG13_WORKLOADS.iter().enumerate() {
            let rnd = idx[wi][0];
            for (pi, pl) in labels.iter().enumerate() {
                let id = idx[wi][pi];
                let sp = o.speedup(id, rnd);
                per_policy[pi].push(sp);
                fig.push(
                    format!("{}/{}", w.label(), pl),
                    vec![sp, o.traffic(id, rnd), o.field(id, |m| m.noc_utilization)],
                );
            }
        }
        for (pi, pl) in labels.iter().enumerate() {
            fig.push(
                format!("geomean/{pl}"),
                vec![geomean(&per_policy[pi]).unwrap_or(1.0), f64::NAN, f64::NAN],
            );
        }
        fig
    })
}

/// Fig 14: distribution of in-flight atomic streams per bank over the
/// bfs_push timeline, for Rnd / Min-Hop / Hybrid-5.
///
/// Fig 14 as a sweep plan: one bfs_push run per policy.
pub fn fig14_plan(opts: HarnessOpts) -> SweepPlan {
    let policies = [
        BankSelectPolicy::Rnd,
        BankSelectPolicy::MinHop,
        BankSelectPolicy::Hybrid { h: 5.0 },
    ];
    let mut b = PlanBuilder::new("fig14");
    let inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    let cells: Vec<(String, usize)> = policies
        .iter()
        .map(|&p| {
            let label = p.label();
            let input = inputs.plain();
            let id = b.cell(label.clone(), move |ctx| {
                let cfg = opts.cfg(ctx, SystemConfig::AffAlloc(p));
                suite::run_graph(WorkloadName::BfsPush, &cfg, input.take())
                    .metrics
                    .into()
            });
            (label, id)
        })
        .collect();
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig14",
            "Distribution of atomic streams in bfs_push (per normalized time)",
            vec!["min", "p25", "avg", "p75", "max"],
        );
        for (label, id) in &cells {
            if let Some(m) = o.metrics(*id) {
                for (t, fp) in m.occupancy.resample(10).into_iter().enumerate() {
                    fig.push(
                        format!("{label}/t{t}"),
                        vec![fp.min, fp.p25, fp.avg, fp.p75, fp.max],
                    );
                }
            }
        }
        fig.note("occupancy via Little's law over per-iteration atomic arrivals");
        fig
    })
}

/// Fig 15: affine workloads at 1×/2×/4×/8× input — speedup over In-Core and
/// L3 miss rate.
///
/// Fig 15 as a sweep plan: one cell per (stencil, input scale, system).
pub fn fig15_plan(opts: HarnessOpts) -> SweepPlan {
    const STENCILS: [WorkloadName; 4] = [
        WorkloadName::Pathfinder,
        WorkloadName::Hotspot,
        WorkloadName::Srad,
        WorkloadName::Hotspot3D,
    ];
    const SCALES: [u64; 4] = [1, 2, 4, 8];
    let mut b = PlanBuilder::new("fig15");
    // idx[(name, scale)] = [incore, near, aff] cell ids.
    let mut idx: Vec<(&'static str, u64, [usize; 3])> = Vec::new();
    for w in STENCILS {
        let name = w.label();
        for scale in SCALES {
            let mut cell_for = |sys_label: &str, system: SystemConfig| {
                b.cell(format!("{name}/{scale}x/{sys_label}"), move |ctx| {
                    let cfg = RunConfig::new(system)
                        .with_seed(opts.seed)
                        .with_machine(ctx.machine(opts.machine()));
                    run_stencil(&suite::stencil_for(w, scale), &cfg).into()
                })
            };
            let incore = cell_for("In-Core", SystemConfig::InCore);
            let near = cell_for("Near-L3", SystemConfig::NearL3);
            let aff = cell_for("Aff-Alloc", hybrid5());
            idx.push((name, scale, [incore, near, aff]));
        }
    }
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig15",
            "Affine layout on large inputs (speedup vs In-Core at same scale)",
            vec!["nearl3_speedup", "aff_speedup", "aff_l3_miss"],
        );
        let mut ge: Vec<Vec<f64>> = vec![Vec::new(); SCALES.len()];
        for &(name, scale, [incore, near, aff]) in &idx {
            let si = SCALES.iter().position(|&s| s == scale).unwrap_or(0);
            let sp = o.speedup(aff, incore);
            ge[si].push(sp);
            fig.push(
                format!("{name}/{scale}x"),
                vec![
                    o.speedup(near, incore),
                    sp,
                    o.field(aff, |m| m.l3_miss_rate),
                ],
            );
        }
        for (si, scale) in SCALES.into_iter().enumerate() {
            fig.push(
                format!("geomean/{scale}x"),
                vec![f64::NAN, geomean(&ge[si]).unwrap_or(1.0), f64::NAN],
            );
        }
        fig
    })
}

/// Fig 16: linked CSR on growing graphs — speedup over Near-L3 and L3 miss
/// rate. The L3 is shrunk so the scale-1 graph occupies ~half of it, which
/// preserves the paper's footprint/capacity ratios at harness sizes.
///
/// Fig 16 as a sweep plan: one cell per (workload, |V| scale, system), with
/// the capacity-matched L3 cloned into every cell.
pub fn fig16_plan(opts: HarnessOpts) -> SweepPlan {
    let mut machine = opts.machine();
    if !opts.full {
        // Preserve the paper's footprint/capacity ratios at harness sizes:
        // the scale-1 graph (≈2.5 MiB) fits at ~30% of an 8 MiB L3; the 2×
        // graph still fits; 4× and 8× spill for both edge formats.
        machine.l3_bank_bytes = 128 << 10;
    }
    // One copy for all cells keeps each cell's closure small.
    let machine = Arc::new(machine);
    let systems = [
        ("Near-L3", SystemConfig::NearL3),
        ("Min-Hops", SystemConfig::AffAlloc(BankSelectPolicy::MinHop)),
        ("Hybrid-5", hybrid5()),
    ];
    let mut b = PlanBuilder::new("fig16");
    const SCALES: [u32; 4] = [1, 2, 4, 8];
    let suite_scale = |scale: u32| scale * if opts.full { 8 } else { 1 };
    let mut inputs: Vec<GraphInputs> = SCALES
        .iter()
        .map(|&scale| GraphInputs::kron(suite_scale(scale), opts.seed))
        .collect();
    // One group per (workload, scale): its Near-L3 baseline cell plus the
    // cells of the systems normalized against it.
    struct ScaleGroup {
        w: WorkloadName,
        scale: u32,
        near: usize,
        rest: Vec<(&'static str, usize)>,
    }
    let mut idx: Vec<ScaleGroup> = Vec::new();
    for w in [WorkloadName::PrPush, WorkloadName::Bfs, WorkloadName::Sssp] {
        for (si, scale) in SCALES.into_iter().enumerate() {
            let cell_scale = suite_scale(scale);
            let mut cell_for = |label: &'static str, system: SystemConfig| {
                let m = Arc::clone(&machine);
                let input = inputs[si].claim_for(w);
                let id = b.cell(
                    format!("{}/{}/|V|x{}", w.label(), label, scale),
                    move |ctx| {
                        let cfg = RunConfig::new(system)
                            .with_seed(opts.seed)
                            .with_scale(cell_scale)
                            .with_machine(ctx.machine(MachineConfig::clone(&m)));
                        run_claimed(w, &cfg, input.as_ref()).metrics.into()
                    },
                );
                // Cells grow with |V|: start the big ones first so the last
                // cells to finish are small.
                b.cost(id, u64::from(scale));
                id
            };
            let near = cell_for("Near-L3", SystemConfig::NearL3);
            let rest: Vec<(&'static str, usize)> = systems
                .iter()
                .skip(1)
                .map(|&(label, s)| (label, cell_for(label, s)))
                .collect();
            idx.push(ScaleGroup {
                w,
                scale,
                near,
                rest,
            });
        }
    }
    let full = opts.full;
    let l3_kib = machine.l3_bank_bytes >> 10;
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig16",
            "Linked CSR on large graphs (speedup vs Near-L3 at same |V|)",
            vec!["speedup", "l3_miss"],
        );
        for g in &idx {
            for (label, id) in &g.rest {
                fig.push(
                    format!("{}/{}/|V|x{}", g.w.label(), label, g.scale),
                    vec![o.speedup(*id, g.near), o.field(*id, |m| m.l3_miss_rate)],
                );
            }
        }
        fig.note(format!(
            "L3 bank = {} KiB ({} mode)",
            l3_kib,
            if full { "full" } else { "scaled" }
        ));
        fig
    })
}

/// Fig 17: BFS per-iteration characteristics (visited / active / scout-edge
/// ratios).
///
/// Fig 17 as a sweep plan: a single bfs_push cell that renders its own
/// per-iteration rows.
pub fn fig17_plan(opts: HarnessOpts) -> SweepPlan {
    let mut b = PlanBuilder::new("fig17");
    let cell = b.cell("bfs_push", move |ctx| {
        let w = WorkloadName::BfsPush;
        let cfg = opts.cfg(ctx, hybrid5());
        let g = suite::gen_input(w, &cfg).expect("bfs reads a graph");
        let n = f64::from(g.num_vertices());
        let m = g.num_edges() as f64;
        let r = suite::run_graph(w, &cfg, Arc::new(g));
        let rows = r
            .iters
            .iter()
            .enumerate()
            .map(|(i, it)| {
                Row::new(
                    format!("iter{i}"),
                    vec![
                        it.visited as f64 / n,
                        it.active as f64 / n,
                        it.scout_edges as f64 / m,
                    ],
                )
            })
            .collect();
        CellData::Rows {
            rows,
            sim_cycles: r.metrics.cycles,
        }
    });
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig17",
            "BFS iteration characteristics",
            vec!["visited_nodes", "active_nodes", "scout_edges"],
        );
        if let Some(rows) = o.rows(cell) {
            fig.rows.extend(rows.iter().cloned());
        }
        fig
    })
}

/// Fig 18: BFS push/pull/switch timeline per system. Each row is one
/// iteration: direction (1 = push, 0 = pull) and its share of the run's
/// examined-edge work (the paper's bar widths).
///
/// Fig 18 as a sweep plan: one cell per (system, direction policy), each
/// rendering its own timeline rows.
pub fn fig18_plan(opts: HarnessOpts) -> SweepPlan {
    let systems = [
        ("In-Core", SystemConfig::InCore),
        ("Near-L3", SystemConfig::NearL3),
        ("Aff-Alloc", hybrid5()),
    ];
    let mut b = PlanBuilder::new("fig18");
    let inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    let mut ids: Vec<usize> = Vec::new();
    for (sl, system) in systems {
        let policies = [
            ("Pull", WorkloadName::BfsPull),
            ("Push", WorkloadName::BfsPush),
            ("Switch", WorkloadName::Bfs),
        ];
        for (pl, w) in policies {
            let input = inputs.plain();
            ids.push(b.cell(format!("{sl}/{pl}"), move |ctx| {
                let r = suite::run_graph(w, &opts.cfg(ctx, system), input.take());
                let total: u64 = r.iters.iter().map(|i| i.examined_edges.max(1)).sum();
                let rows = r
                    .iters
                    .iter()
                    .enumerate()
                    .map(|(i, it)| {
                        Row::new(
                            format!("{sl}/{pl}/iter{i}"),
                            vec![
                                if it.dir == Direction::Push { 1.0 } else { 0.0 },
                                it.examined_edges.max(1) as f64 / total as f64,
                            ],
                        )
                    })
                    .collect();
                CellData::Rows {
                    rows,
                    sim_cycles: r.metrics.cycles,
                }
            }));
        }
    }
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig18",
            "BFS push vs pull timeline",
            vec!["push", "time_share"],
        );
        for &id in &ids {
            if let Some(rows) = o.rows(id) {
                fig.rows.extend(rows.iter().cloned());
            }
        }
        fig
    })
}

const FIG19_WORKLOADS: [WorkloadName; 3] =
    [WorkloadName::PrPush, WorkloadName::Bfs, WorkloadName::Sssp];
const FIG19_DEGREES: [u32; 6] = [4, 8, 16, 32, 64, 128];

/// Fig 19: speedup vs average node degree on synthesized power-law graphs
/// with fixed |E| (normalized to Rnd).
///
/// Fig 19 as a sweep plan: one cell per (workload, degree, system). Every
/// cell at one degree reads the same power-law graph (weighted for sssp),
/// generated once per plan run.
pub fn fig19_plan(opts: HarnessOpts) -> SweepPlan {
    let total_edges: usize = if opts.full { 1 << 22 } else { 1 << 19 };
    let systems = [
        ("Near-L3", SystemConfig::NearL3),
        ("Min-Hops", SystemConfig::AffAlloc(BankSelectPolicy::MinHop)),
        ("Hybrid-5", hybrid5()),
    ];
    let mut b = PlanBuilder::new("fig19");
    let seed = opts.seed;
    let mut inputs: Vec<GraphInputs> = FIG19_DEGREES
        .iter()
        .map(|&d| {
            let n = (total_edges as u32 / d).max(64);
            GraphInputs::new(
                move || gen::power_law(n, total_edges, 0.8, seed),
                gen::with_uniform_weights,
                seed,
            )
        })
        .collect();
    // idx entries: (workload, degree, rnd-baseline cell, per-system cells).
    let mut idx: Vec<(&'static str, u32, usize, Vec<usize>)> = Vec::new();
    for w in FIG19_WORKLOADS {
        for (di, d) in FIG19_DEGREES.into_iter().enumerate() {
            let mut cell = |label: &str, s: SystemConfig| {
                let input = inputs[di].claim_for(w);
                b.cell(format!("{}/D={d}/{label}", w.label()), move |ctx| {
                    run_claimed(w, &opts.cfg(ctx, s), input.as_ref())
                        .metrics
                        .into()
                })
            };
            let rnd = cell("Rnd", SystemConfig::AffAlloc(BankSelectPolicy::Rnd));
            let row = systems.iter().map(|&(label, s)| cell(label, s)).collect();
            idx.push((w.label(), d, rnd, row));
        }
    }
    let n_systems = systems.len();
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig19",
            "Speedup vs average node degree (normalized to Rnd)",
            vec!["nearl3", "min_hops", "hybrid5"],
        );
        let mut ge: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n_systems]; FIG19_DEGREES.len()];
        for (w, d, rnd, row) in &idx {
            let di = FIG19_DEGREES.iter().position(|x| x == d).unwrap_or(0);
            let mut vals = Vec::new();
            for (si, id) in row.iter().enumerate() {
                let sp = o.speedup(*id, *rnd);
                ge[di][si].push(sp);
                vals.push(sp);
            }
            fig.push(format!("{w}/D={d}"), vals);
        }
        for (di, d) in FIG19_DEGREES.into_iter().enumerate() {
            fig.push(
                format!("geomean/D={d}"),
                (0..n_systems)
                    .map(|si| geomean(&ge[di][si]).unwrap_or(1.0))
                    .collect(),
            );
        }
        fig
    })
}

/// Fig 20 (+ Table 4): real-world graphs — speedup and traffic vs Near-L3.
///
/// Fig 20 as a sweep plan: one cell per (graph profile, workload, system).
/// The cells of one profile share its generated stand-in graph.
pub fn fig20_plan(opts: HarnessOpts) -> SweepPlan {
    let div = if opts.full { 1 } else { 16 };
    let profiles = [gen::TWITCH_GAMERS, gen::GPLUS];
    let systems = [
        ("Min-Hops", SystemConfig::AffAlloc(BankSelectPolicy::MinHop)),
        ("Hybrid-5", hybrid5()),
    ];
    let mut b = PlanBuilder::new("fig20");
    let seed = opts.seed;
    // idx entries: (profile name, workload, near cell, per-system cells).
    let mut idx: Vec<(&'static str, &'static str, usize, Vec<usize>)> = Vec::new();
    for profile in profiles {
        let mut inputs = GraphInputs::new(
            move || gen::real_world(profile, div, seed),
            gen::with_uniform_weights,
            seed,
        );
        for w in FIG19_WORKLOADS {
            let mut cell = |label: &str, s: SystemConfig| {
                let input = inputs.claim_for(w);
                b.cell(
                    format!("{}/{}/{}", profile.name, w.label(), label),
                    move |ctx| {
                        run_claimed(w, &opts.cfg(ctx, s), input.as_ref())
                            .metrics
                            .into()
                    },
                )
            };
            let near = cell("Near-L3", SystemConfig::NearL3);
            let row = systems.iter().map(|&(label, s)| cell(label, s)).collect();
            idx.push((profile.name, w.label(), near, row));
        }
    }
    let sys_labels: Vec<&'static str> = systems.iter().map(|&(l, _)| l).collect();
    b.merge(move |o| {
        let mut fig = Figure::new(
            "fig20",
            "Performance on real-world graphs (normalized to Near-L3)",
            vec!["speedup", "hops", "noc_util"],
        );
        let mut ge: Vec<Vec<f64>> = vec![Vec::new(); sys_labels.len()];
        for (pname, w, near, row) in &idx {
            for (si, (label, id)) in sys_labels.iter().zip(row).enumerate() {
                let sp = o.speedup(*id, *near);
                ge[si].push(sp);
                fig.push(
                    format!("{pname}/{w}/{label}"),
                    vec![
                        sp,
                        o.traffic(*id, *near),
                        o.field(*id, |m| m.noc_utilization),
                    ],
                );
            }
        }
        for (si, label) in sys_labels.iter().enumerate() {
            fig.push(
                format!("geomean/{label}"),
                vec![geomean(&ge[si]).unwrap_or(1.0), f64::NAN, f64::NAN],
            );
        }
        fig.note(format!(
            "synthetic stand-ins matching Table 4 |V|/|E|/degree-skew, scaled 1/{div}"
        ));
        fig
    })
}

/// Table 2: the simulated system parameters, as configured.
///
/// Table 2 as a (single-cell) sweep plan.
pub fn table2_plan(opts: HarnessOpts) -> SweepPlan {
    let mut b = PlanBuilder::new("table2");
    let cell = b.cell("params", move |_| {
        let m = opts.machine();
        let rows = [
            ("mesh", f64::from(m.mesh_x * 10 + m.mesh_y)),
            ("clock_mhz", f64::from(m.clock_mhz)),
            ("core_issue_width", f64::from(m.core_issue_width)),
            ("l3_banks", f64::from(m.num_banks())),
            ("l3_bank_KiB", (m.l3_bank_bytes >> 10) as f64),
            ("l3_total_MiB", (m.l3_total_bytes() >> 20) as f64),
            ("l3_latency_cy", m.l3_latency as f64),
            ("default_interleave_B", m.default_interleave as f64),
            ("l2_KiB", (m.l2_bytes >> 10) as f64),
            ("l1_KiB", (m.l1_bytes >> 10) as f64),
            ("link_bytes_per_cycle", m.link_bytes_per_cycle as f64),
            ("mem_ctrls", f64::from(m.num_mem_ctrls)),
            ("dram_bytes_per_cycle", m.dram_bytes_per_cycle as f64),
            (
                "sel3_streams_total",
                f64::from(m.sel3_streams_per_bank * m.num_banks()),
            ),
            ("iot_entries", f64::from(m.iot_entries)),
        ]
        .into_iter()
        .map(|(k, v)| Row::new(k, vec![v]))
        .collect();
        CellData::Rows {
            rows,
            sim_cycles: 0,
        }
    });
    b.merge(move |o| {
        let mut fig = Figure::new(
            "table2",
            "System and uarch parameters (Table 2)",
            vec!["value"],
        );
        if let Some(rows) = o.rows(cell) {
            fig.rows.extend(rows.iter().cloned());
        }
        fig
    })
}

/// Table 4: real-world graph profiles and their synthetic stand-ins.
///
/// Table 4 as a (single-cell) sweep plan.
pub fn table4_plan(opts: HarnessOpts) -> SweepPlan {
    let div = if opts.full { 1 } else { 16 };
    let mut b = PlanBuilder::new("table4");
    let cell = b.cell("profiles", move |_| {
        let mut rows = Vec::new();
        for p in [gen::TWITCH_GAMERS, gen::GPLUS] {
            rows.push(Row::new(
                format!("{} (paper)", p.name),
                vec![
                    f64::from(p.vertices),
                    p.edges as f64,
                    f64::from(p.avg_degree),
                ],
            ));
            let g = gen::real_world(p, div, opts.seed);
            rows.push(Row::new(
                format!("{} (synthetic /{div})", p.name),
                vec![
                    f64::from(g.num_vertices()),
                    g.num_edges() as f64,
                    g.avg_degree(),
                ],
            ));
        }
        CellData::Rows {
            rows,
            sim_cycles: 0,
        }
    });
    b.merge(move |o| {
        let mut fig = Figure::new(
            "table4",
            "Real-world graphs (paper values and generated stand-ins)",
            vec!["vertices", "edges", "avg_degree"],
        );
        if let Some(rows) = o.rows(cell) {
            fig.rows.extend(rows.iter().cloned());
        }
        fig.note("stand-ins match |V|/|E|/degree skew; see DESIGN.md SS2");
        fig
    })
}

/// The bank-numbering ablation (§4.1, "Other Interleave Patterns") as a
/// sweep plan: one vec-add cell per (bank order, forced Δ) over Fig 4's Δ
/// sweep. Snake numbering makes every consecutive bank pair mesh-adjacent
/// but loses row-major's row-multiple offsets, which run straight down a
/// column with no flow overlap.
pub fn abl_bank_order_plan(opts: HarnessOpts) -> SweepPlan {
    const ORDERS: [(&str, BankOrder); 2] = [
        ("row_major", BankOrder::RowMajor),
        ("snake", BankOrder::Snake),
    ];
    let n = 1_500_000;
    let mut b = PlanBuilder::new("abl_bank_order");
    let rows: Vec<(u32, Vec<usize>)> = (0..=64u32)
        .step_by(4)
        .map(|delta| {
            let ids = ORDERS
                .iter()
                .map(|&(label, order)| {
                    b.cell(format!("{label}/Δ {delta}"), move |ctx| {
                        let mut machine = opts.machine();
                        machine.bank_order = order;
                        let cfg = RunConfig::new(SystemConfig::NearL3)
                            .with_seed(opts.seed)
                            .with_machine(ctx.machine(machine));
                        run_vecadd_forced_delta(n, Some(delta), &cfg).into()
                    })
                })
                .collect();
            (delta, ids)
        })
        .collect();
    b.merge(move |o| {
        let mut fig = Figure::new(
            "abl_bank_order",
            "Ablation: bank numbering order (vec-add cycles vs forced Δ)",
            ORDERS.iter().map(|&(label, _)| label).collect(),
        );
        for (delta, ids) in &rows {
            fig.push(
                format!("Δ {delta}"),
                ids.iter()
                    .map(|&id| o.field(id, |m| m.cycles as f64))
                    .collect(),
            );
        }
        fig.note(format!("n = {n} floats under Near-L3"));
        fig
    })
}

/// The linked-CSR node-capacity ablation as a sweep plan: one cell per
/// capacity (edges per node) building the Kronecker input's linked CSR
/// under Hybrid-5. Smaller nodes place finer but chase more pointers; the
/// 64 B line (14 edges) is the design point.
pub fn abl_node_capacity_plan(opts: HarnessOpts) -> SweepPlan {
    let mut b = PlanBuilder::new("abl_node_capacity");
    let inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    let ids: Vec<usize> = [2usize, 4, 7, 14, 28]
        .into_iter()
        .map(|capacity| {
            let input = inputs.plain();
            let label = format!("{capacity} edges/node");
            b.cell(label.clone(), move |ctx| {
                let g = input.take();
                let mut alloc = AffinityAllocator::with_seed(
                    ctx.machine(opts.machine()),
                    BankSelectPolicy::paper_default(),
                    opts.seed,
                );
                let props = VertexArray::new(
                    &mut alloc,
                    u64::from(g.num_vertices()),
                    8,
                    AllocMode::Affinity,
                )
                .expect("vertex properties fit the L3");
                let linked = LinkedCsr::build_with_capacity(&mut alloc, &g, &props, capacity)
                    .expect("linked CSR fits the L3");
                let values = vec![
                    linked.num_nodes() as f64,
                    linked.mean_indirect_hops(alloc.topo(), &g, &props),
                ];
                CellData::Rows {
                    rows: vec![Row::new(label, values)],
                    sim_cycles: 0,
                }
            })
        })
        .collect();
    b.merge(move |o| {
        let mut fig = Figure::new(
            "abl_node_capacity",
            "Ablation: linked-CSR node capacity",
            vec!["nodes", "mean_indirect_hops"],
        );
        for &id in &ids {
            if let Some(rows) = o.rows(id) {
                fig.rows.extend(rows.iter().cloned());
            }
        }
        fig
    })
}

/// The sssp frontier ablation (§4.2's MultiQueues suggestion) as a sweep
/// plan: the FIFO frontier against a relaxed priority queue, under Near-L3
/// (one global heap) and Aff-Alloc (a bank-local heap per partition), all
/// on the plan's shared weighted input.
pub fn abl_priority_queue_plan(opts: HarnessOpts) -> SweepPlan {
    let configs = [
        ("Near-L3/FIFO", SystemConfig::NearL3, false),
        ("Near-L3/global heap", SystemConfig::NearL3, true),
        ("Aff-Alloc/FIFO", hybrid5(), false),
        ("Aff-Alloc/spatial PQ", hybrid5(), true),
    ];
    let mut b = PlanBuilder::new("abl_priority_queue");
    let mut inputs = GraphInputs::kron(opts.graph_scale(), opts.seed);
    let cells: Vec<(&str, usize)> = configs
        .into_iter()
        .map(|(label, system, priority)| {
            let input = inputs.weighted();
            let id = b.cell(label, move |ctx| {
                let g = input.take();
                let src = pick_source(&g);
                let inst = GraphInstance::new(g, &opts.cfg(ctx, system));
                let run = if priority {
                    inst.run_sssp_priority(src)
                } else {
                    inst.run_sssp(src)
                };
                SuiteRun::from(run).into()
            });
            (label, id)
        })
        .collect();
    b.merge(move |o| {
        let mut fig = Figure::new(
            "abl_priority_queue",
            "Ablation: sssp frontier structure (FIFO vs priority queue)",
            vec!["cycles", "flit_hops", "edges_examined"],
        );
        for &(label, id) in &cells {
            let examined = o.run(id).map_or(f64::NAN, |r| {
                r.iters.iter().map(|i| i.examined_edges).sum::<u64>() as f64
            });
            fig.push(
                label,
                vec![
                    o.field(id, |m| m.cycles as f64),
                    o.field(id, |m| m.total_hop_flits as f64),
                    examined,
                ],
            );
        }
        fig
    })
}

/// The In-Core private-cache reuse-filter ablation as a sweep plan: two
/// Fig 15 stencils at 1× under In-Core, with the L1/L2 filter on and off.
/// Unfiltered, every element access crosses the NoC; the slowdown is how
/// much of the baseline's competitiveness its private caches provide.
pub fn abl_reuse_plan(opts: HarnessOpts) -> SweepPlan {
    let mut b = PlanBuilder::new("abl_reuse");
    // (stencil, filtered cell, unfiltered cell)
    let mut idx: Vec<(&str, usize, usize)> = Vec::new();
    for w in [WorkloadName::Pathfinder, WorkloadName::Hotspot] {
        let name = w.label();
        let mut cell = |label: &str, filter: bool| {
            b.cell(format!("{name}/{label}"), move |ctx| {
                let cfg = RunConfig::new(SystemConfig::InCore)
                    .with_seed(opts.seed)
                    .with_machine(ctx.machine(opts.machine()));
                run_stencil_opts(&suite::stencil_for(w, 1), &cfg, filter).into()
            })
        };
        let filtered = cell("filtered", true);
        let unfiltered = cell("unfiltered", false);
        idx.push((name, filtered, unfiltered));
    }
    b.merge(move |o| {
        let mut fig = Figure::new(
            "abl_reuse",
            "Ablation: In-Core private-cache reuse filter",
            vec!["cycles", "flit_hops", "slowdown"],
        );
        for &(name, filtered, unfiltered) in &idx {
            let base = o.field(filtered, |m| m.cycles as f64);
            for (label, id) in [("filtered", filtered), ("unfiltered", unfiltered)] {
                let cycles = o.field(id, |m| m.cycles as f64);
                fig.push(
                    format!("{name}/{label}"),
                    vec![
                        cycles,
                        o.field(id, |m| m.total_hop_flits as f64),
                        cycles / base,
                    ],
                );
            }
        }
        fig.note("slowdown: cycles over the filtered run of the same stencil");
        fig
    })
}

/// The multi-tenant churn family (`figures --tenants N`) as a sweep plan:
/// one steady-state churn cell per tenant count up to `opts.tenants`, an
/// overload cell (tight admission window, deterministic retry/backoff), a
/// quota cell (tiny byte quotas), and the isolation cell that *enforces*
/// the tenant-containment invariant online — it runs tenant 2's churn both
/// amid faulted neighbors and solo, and panics (→ soft cell failure, like
/// the chaos invariants) if the two output digests differ.
pub fn tenants_plan(opts: HarnessOpts) -> SweepPlan {
    use crate::tenants::{churn_metrics, isolation_digests, run_churn, ChurnSpec};
    use aff_sim_core::fault::FaultChange;

    let machine = opts.machine();
    let max_tenants = opts.tenants.clamp(1, machine.num_banks());
    let ops: u64 = if opts.full { 4000 } else { 800 };
    let seed = opts.seed;
    let mut b = PlanBuilder::new("tenants");

    let mut counts: Vec<u32> = [1u32, 2, 4, 8]
        .into_iter()
        .filter(|&c| c < max_tenants)
        .collect();
    counts.push(max_tenants);
    let churn_cells: Vec<(u32, usize)> = counts
        .iter()
        .map(|&c| {
            let m = machine.clone();
            let idx = b.cell(format!("churn/{c}t"), move |ctx| {
                let m = ctx.machine(m);
                let spec = ChurnSpec {
                    machine: m.clone(),
                    ..ChurnSpec::new(c, ops, seed)
                };
                let out = run_churn(&spec);
                assert_eq!(
                    out.resident_truth, out.resident_ledger,
                    "residency conservation violated"
                );
                CellData::Metrics(Box::new(churn_metrics(&m, &out)))
            });
            (c, idx)
        })
        .collect();

    let m = machine.clone();
    let overload = b.cell("overload", move |ctx| {
        let m = ctx.machine(m);
        let spec = ChurnSpec {
            machine: m.clone(),
            window: Some((64, 8, 8)),
            retry: true,
            ..ChurnSpec::new(4.min(max_tenants), ops, seed)
        };
        let out = run_churn(&spec);
        CellData::Metrics(Box::new(churn_metrics(&m, &out)))
    });

    let m = machine.clone();
    let quota = b.cell("quota", move |ctx| {
        let m = ctx.machine(m);
        let spec = ChurnSpec {
            machine: m.clone(),
            quota_bytes: Some(64 << 10),
            ..ChurnSpec::new(4.min(max_tenants), ops, seed)
        };
        let out = run_churn(&spec);
        CellData::Metrics(Box::new(churn_metrics(&m, &out)))
    });

    let m = machine.clone();
    let isolation = b.cell("isolation", move |ctx| {
        let m = ctx.machine(m);
        let tenants = 4.min(max_tenants);
        let mut spec = ChurnSpec {
            machine: m.clone(),
            ..ChurnSpec::new(tenants, ops, seed)
        };
        // Kill two of tenant 0's banks mid-run (partitions are carved
        // contiguously, so tenant 0 owns the lowest bank numbers).
        let victim_banks = m.num_banks() / tenants;
        spec.faults = vec![
            (ops / 3, FaultChange::BankFail(victim_banks / 2)),
            (2 * ops / 3, FaultChange::BankFail(victim_banks - 1)),
        ];
        let observer = tenants - 1;
        let (multi, solo) = isolation_digests(&spec, observer);
        assert_eq!(
            multi, solo,
            "ISOLATION VIOLATED: faults in tenant 0's banks changed tenant \
             {observer}'s output digest ({multi:#x} vs solo {solo:#x})"
        );
        let out = run_churn(&spec);
        CellData::Metrics(Box::new(churn_metrics(&m, &out)))
    });

    b.merge(move |o| {
        let mut fig = Figure::new(
            "tenants",
            "Multi-tenant churn: admission, quotas, isolation",
            vec![
                "admitted",
                "shed",
                "quota_rejects",
                "evac_lines",
                "frag_ratio",
                "jain",
            ],
        );
        let mut push = |label: &str, i: usize| {
            let (mut admitted, mut shed, mut rejects, mut evac) = (0.0, 0.0, 0.0, 0.0);
            let mut shares = Vec::new();
            if let Some(m) = o.metrics(i) {
                for u in &m.tenants {
                    admitted += u.admitted as f64;
                    shed += u.shed as f64;
                    rejects += u.quota_rejects as f64;
                    evac += u.evacuated_lines as f64;
                    shares.push(u.admitted);
                }
            }
            fig.push(
                label,
                vec![
                    admitted,
                    shed,
                    rejects,
                    evac,
                    o.field(i, |m| m.fragmentation_ratio),
                    aff_sim_core::tenant::jain_fairness(&shares),
                ],
            );
        };
        for (c, idx) in &churn_cells {
            push(&format!("churn/{c}t"), *idx);
        }
        push("overload", overload);
        push("quota", quota);
        push("isolation", isolation);
        fig.note(
            "isolation cell fails soft if any neighbor fault leaks into another tenant's digest",
        );
        fig
    })
}

/// All figure ids `all` expands to, in paper order, then the four design
/// ablations and the post-paper `tenants` multi-tenant churn family. The
/// `inference` family is dispatchable by id (see [`plan_figure`]) but
/// intentionally **not** part of `all`: it re-runs the whole Table 3 suite
/// three ways, so it stays opt-in.
pub const ALL_FIGURES: [&str; 18] = [
    "fig4",
    "fig6",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "table2",
    "table4",
    "abl_bank_order",
    "abl_node_capacity",
    "abl_priority_queue",
    "abl_reuse",
    "tenants",
];

/// The sweep plan for one figure by id, or `None` for an unknown id.
pub fn plan_figure(id: &str, opts: HarnessOpts) -> Option<SweepPlan> {
    match id {
        "fig4" => Some(fig4_plan(opts)),
        "fig6" => Some(fig6_plan(opts)),
        "fig12" => Some(fig12_plan(opts)),
        "fig13" => Some(fig13_plan(opts)),
        "fig14" => Some(fig14_plan(opts)),
        "fig15" => Some(fig15_plan(opts)),
        "fig16" => Some(fig16_plan(opts)),
        "fig17" => Some(fig17_plan(opts)),
        "fig18" => Some(fig18_plan(opts)),
        "fig19" => Some(fig19_plan(opts)),
        "fig20" => Some(fig20_plan(opts)),
        "table2" => Some(table2_plan(opts)),
        "table4" => Some(table4_plan(opts)),
        "abl_bank_order" => Some(abl_bank_order_plan(opts)),
        "abl_node_capacity" => Some(abl_node_capacity_plan(opts)),
        "abl_priority_queue" => Some(abl_priority_queue_plan(opts)),
        "abl_reuse" => Some(abl_reuse_plan(opts)),
        "tenants" => Some(tenants_plan(opts)),
        "inference" => Some(crate::inference::inference_plan(opts)),
        _ => None,
    }
}

/// Run one representative Fig 13 cell (`pr_push` under `Hybrid-5`) with a
/// trace recorder attached and return `(chrome_json, label)`.
///
/// This is the `figures --trace <path>` backend: the trace rides in the
/// cell's [`RunConfig`], every [`SimEngine`](aff_nsc::engine::SimEngine) the
/// workload builds records into it, and the result serializes as Chrome
/// `trace_event` JSON loadable in
/// `chrome://tracing` / Perfetto — one counter track per L3 bank and DRAM
/// controller, one span track per NoC router the cell exercised.
///
/// Runs outside the sweep engine (inline, single-threaded) so the recorder
/// overhead can never contaminate `BENCH_sweep.json` wall times.
pub fn traced_fig13_cell(opts: HarnessOpts) -> (String, String) {
    use aff_sim_core::trace::{TraceRecorder, DEFAULT_TRACE_CAPACITY};
    let w = WorkloadName::PrPush;
    let p = BankSelectPolicy::Hybrid { h: 5.0 };
    let trace = Arc::new(Mutex::new(TraceRecorder::new(DEFAULT_TRACE_CAPACITY)));
    let mut calm = CellCtx::default();
    let cfg = opts
        .cfg(&mut calm, SystemConfig::AffAlloc(p))
        .with_recorder(Arc::clone(&trace));
    let _run = suite::run(w, &cfg);
    let json = trace
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .to_chrome_json();
    (json, format!("{}/{}", w.label(), p.label()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_plans_opts, RunOpts};

    #[test]
    fn geometry_spec_parses_every_form() {
        assert_eq!(GeometrySpec::parse("8x8"), Ok(GeometrySpec::default()));
        assert_eq!(
            GeometrySpec::parse("16x16"),
            Ok(GeometrySpec {
                x: 16,
                y: 16,
                kind: TopologyKind::Mesh
            })
        );
        assert_eq!(
            GeometrySpec::parse("8x8:torus"),
            Ok(GeometrySpec {
                x: 8,
                y: 8,
                kind: TopologyKind::Torus
            })
        );
        assert_eq!(
            GeometrySpec::parse("4x2:cmesh"),
            Ok(GeometrySpec {
                x: 4,
                y: 2,
                kind: TopologyKind::CMesh
            })
        );
        for bad in [
            "",
            "8",
            "8x",
            "x8",
            "0x8",
            "8x0",
            "8x8:ring",
            "5x5:cmesh",
            "ax8",
        ] {
            assert!(
                GeometrySpec::parse(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn geometry_label_roundtrips_through_parse() {
        for s in ["8x8", "16x16", "32x8", "8x8:torus", "16x16:cmesh"] {
            let g = GeometrySpec::parse(s).expect("valid spec");
            assert_eq!(g.label(), s);
            assert_eq!(GeometrySpec::parse(&g.label()), Ok(g));
        }
    }

    /// The byte-identity keystone: at the default geometry, the harness
    /// machine IS the paper default, so installing it via `with_machine`
    /// cannot change any figure.
    #[test]
    fn default_geometry_machine_is_the_paper_default() {
        let opts = HarnessOpts::default();
        assert!(opts.geometry.is_default());
        assert_eq!(opts.machine(), MachineConfig::paper_default());
    }

    #[test]
    fn off_default_geometry_reshapes_the_machine() {
        let opts = HarnessOpts {
            geometry: GeometrySpec::parse("16x16:torus").expect("valid"),
            ..HarnessOpts::default()
        };
        let m = opts.machine();
        assert_eq!((m.mesh_x, m.mesh_y), (16, 16));
        assert_eq!(m.topology, TopologyKind::Torus);
        assert_eq!(m.num_banks(), 256);
    }

    #[test]
    fn default_tenants_is_inert_outside_the_tenants_family() {
        // `opts.tenants` must only shape the `tenants` plan: the machine and
        // every paper figure's plan size are unaffected by the knob.
        let base = HarnessOpts::default();
        assert_eq!(base.tenants, 4);
        let cranked = HarnessOpts {
            tenants: 16,
            ..base
        };
        assert_eq!(base.machine(), cranked.machine());
        for id in ALL_FIGURES.iter().filter(|&&id| id != "tenants") {
            let a = plan_figure(id, base).expect("known figure");
            let b = plan_figure(id, cranked).expect("known figure");
            assert_eq!(
                a.cell_labels().len(),
                b.cell_labels().len(),
                "{id} saw the tenants knob"
            );
        }
        // And the family itself does scale with it.
        let t4 = tenants_plan(base);
        let t16 = tenants_plan(cranked);
        assert!(t16.cell_labels().len() > t4.cell_labels().len());
    }

    #[test]
    fn inference_is_dispatchable_but_stays_out_of_all() {
        // The closed-loop family is keyed by id only: `all` must not pick it
        // up (it re-runs the whole suite three ways), but `figures inference`
        // must reach a real plan covering FIG12 × three hint sources.
        assert!(!ALL_FIGURES.contains(&"inference"));
        let plan = plan_figure("inference", HarnessOpts::default()).expect("dispatchable by id");
        assert_eq!(plan.cell_labels().len(), WorkloadName::FIG12.len() * 3);
    }

    #[test]
    fn tenants_family_runs_and_reports() {
        let opts = HarnessOpts {
            tenants: 2,
            ..HarnessOpts::default()
        };
        let (figs, _) = run_plans_opts(vec![tenants_plan(opts)], &RunOpts::new(1, opts.seed));
        let fig = &figs[0];
        assert_eq!(fig.id, "tenants");
        // churn/1t, churn/2t, overload, quota, isolation.
        assert_eq!(fig.rows.len(), 5);
        // Every cell succeeded: merge annotates failures as notes.
        assert!(
            fig.notes.iter().all(|n| !n.contains("FAILED")),
            "tenant cells failed: {:?}",
            fig.notes
        );
        let admitted = fig.column_values("admitted");
        assert!(admitted.iter().all(|&a| a > 0.0));
        let shed = fig.column_values("shed");
        let over_row = fig
            .rows
            .iter()
            .position(|r| r.label == "overload")
            .expect("row");
        assert!(shed[over_row] > 0.0, "tight window must shed");
        let rejects = fig.column_values("quota_rejects");
        let quota_row = fig
            .rows
            .iter()
            .position(|r| r.label == "quota")
            .expect("row");
        assert!(rejects[quota_row] > 0.0, "tiny quota must reject");
    }
}
