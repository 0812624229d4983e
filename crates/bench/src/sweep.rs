//! Deterministic parallel sweep engine.
//!
//! Every figure decomposes into self-contained [`SweepCell`] jobs — one per
//! (workload, config) point — that share **no** mutable state: each cell
//! derives all its randomness from the experiment seed, builds its runtimes
//! and traffic matrices from it, and reads generated inputs either built
//! from the seed or taken read-only from a plan-scoped [`Shared`] copy,
//! never from a generator another cell might have advanced. Cells therefore
//! compute the same bits no matter which worker runs them or in which
//! order.
//!
//! [`run_plans_opts`] executes the cells of one or more [`SweepPlan`]s on a
//! `std::thread::scope` work-stealing pool of `jobs` workers and then merges
//! results back **in declaration order**, so the produced [`Figure`]s are
//! byte-identical to a `jobs = 1` run. Per-cell
//! wall time and simulated-cycle throughput are recorded in a
//! [`SweepReport`] for the perf trajectory
//! (`BENCH_sweep.json`).
//!
//! Cells fail soft: a panicking cell is caught (`catch_unwind`), recorded as
//! a cell-level error in the report, and surfaced as `NaN` rows / notes in
//! the merged figure — one broken cell never aborts the harness.
//!
//! Every cell runs exactly once per sweep (under chaos, on its own timeline
//! stream), so its bytes depend only on its key. Run-to-completion rests on
//! the cell stores (opt-in via [`RunOpts`]): every outcome is appended
//! (fsync'd, checksummed) to the journal and memo [`CellStore`]s, keyed by
//! a content hash of everything the cell's bytes depend on. With `resume` the journal's intact prefix is a
//! lookup table, and only missing or failed cells execute — with the same
//! key as before; the memo serves the same lookups across runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::report::{CellStat, Figure, Row, SweepReport};
use crate::store::{self, CellEntry, CellStore};
use aff_nsc::engine::Metrics;
use aff_sim_core::config::MachineConfig;
use aff_sim_core::error::SimError;
use aff_sim_core::fault::FaultTimeline;
use aff_sim_core::rng::SimRng;
use aff_workloads::suite::SuiteRun;

/// What one cell computed.
#[derive(Debug, Clone)]
pub enum CellData {
    /// Engine metrics of a single simulated run.
    Metrics(Box<Metrics>),
    /// Metrics plus per-iteration stats (frontier workloads).
    Run(Box<SuiteRun>),
    /// Pre-rendered figure rows (single-cell figures, tables), with the
    /// simulated cycles they covered (0 when no simulation ran).
    Rows {
        /// The rows, in declaration order.
        rows: Vec<Row>,
        /// Simulated cycles behind those rows.
        sim_cycles: u64,
    },
}

impl CellData {
    /// The metrics behind this cell, when it ran a single simulation.
    pub fn metrics(&self) -> Option<&Metrics> {
        match self {
            CellData::Metrics(m) => Some(m),
            CellData::Run(r) => Some(&r.metrics),
            CellData::Rows { .. } => None,
        }
    }

    /// Simulated cycles this cell covered (throughput accounting).
    pub fn sim_cycles(&self) -> u64 {
        match self {
            CellData::Rows { sim_cycles, .. } => *sim_cycles,
            other => other.metrics().map_or(0, |m| m.cycles),
        }
    }
}

impl From<Metrics> for CellData {
    fn from(m: Metrics) -> Self {
        CellData::Metrics(Box::new(m))
    }
}

impl From<SuiteRun> for CellData {
    fn from(r: SuiteRun) -> Self {
        CellData::Run(Box::new(r))
    }
}

/// Outcome of one executed cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell label (row-oriented, e.g. `"bfs/Hybrid-5"`).
    pub label: String,
    /// Data, or the cell-level error message.
    pub result: Result<CellData, String>,
}

/// Read access to a plan's executed cells, indexed by the ids
/// [`PlanBuilder::cell`] returned. All accessors are failure-tolerant:
/// a failed (or differently-shaped) cell reads as `None`, so merge
/// functions degrade to `NaN` rows instead of panicking.
#[derive(Debug)]
pub struct Outcomes<'a> {
    cells: &'a [CellOutcome],
}

impl<'a> Outcomes<'a> {
    /// Number of cells in the plan.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan had no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Metrics of cell `i`, if it succeeded with a metrics-shaped result.
    pub fn metrics(&self, i: usize) -> Option<&'a Metrics> {
        self.cells
            .get(i)
            .and_then(|c| c.result.as_ref().ok())
            .and_then(|d| d.metrics())
    }

    /// Full run (metrics + per-iteration stats) of cell `i`.
    pub fn run(&self, i: usize) -> Option<&'a SuiteRun> {
        match self.cells.get(i).and_then(|c| c.result.as_ref().ok()) {
            Some(CellData::Run(r)) => Some(r),
            _ => None,
        }
    }

    /// Pre-rendered rows of cell `i`.
    pub fn rows(&self, i: usize) -> Option<&'a [Row]> {
        match self.cells.get(i).and_then(|c| c.result.as_ref().ok()) {
            Some(CellData::Rows { rows, .. }) => Some(rows),
            _ => None,
        }
    }

    /// Speedup of cell `i` over cell `base` (`NaN` when either failed).
    pub fn speedup(&self, i: usize, base: usize) -> f64 {
        match (self.metrics(i), self.metrics(base)) {
            (Some(m), Some(b)) => m.speedup_over(b),
            _ => f64::NAN,
        }
    }

    /// Traffic of cell `i` relative to cell `base` (`NaN` on failure).
    pub fn traffic(&self, i: usize, base: usize) -> f64 {
        match (self.metrics(i), self.metrics(base)) {
            (Some(m), Some(b)) => m.traffic_vs(b),
            _ => f64::NAN,
        }
    }

    /// Energy efficiency of cell `i` over cell `base` (`NaN` on failure).
    pub fn energy_eff(&self, i: usize, base: usize) -> f64 {
        match (self.metrics(i), self.metrics(base)) {
            (Some(m), Some(b)) => m.energy_eff_over(b),
            _ => f64::NAN,
        }
    }

    /// A metrics field of cell `i`, or `NaN` when the cell failed.
    pub fn field(&self, i: usize, f: impl Fn(&Metrics) -> f64) -> f64 {
        self.metrics(i).map_or(f64::NAN, f)
    }

    /// Append one `note:` line per failed cell, so broken cells are visible
    /// in the rendered figure without aborting the merge.
    fn annotate_failures(&self, fig: &mut Figure) {
        for c in self.cells {
            if let Err(e) = &c.result {
                fig.note(format!("cell {} FAILED: {e}", c.label));
            }
        }
    }
}

/// What a cell runs with: in chaos mode, the stream its fault timeline is
/// drawn from. Cells receive it as an argument and build every machine
/// through [`CellCtx::machine`], so the timeline reaches their engines in
/// the machine config itself. The default context is outside chaos mode.
#[derive(Debug, Clone, Default)]
pub struct CellCtx {
    /// The chaos timeline stream and its fault draws; `None` outside chaos
    /// mode.
    chaos: Option<(SimRng, u32)>,
    /// The timeline [`Self::machine`] last installed.
    installed: FaultTimeline,
}

impl CellCtx {
    /// A chaos-mode context: every machine gets a timeline of `draws` fault
    /// draws sampled from `chaos` against that machine.
    fn with_chaos(chaos: SimRng, draws: u32) -> Self {
        Self {
            chaos: Some((chaos, draws)),
            ..Self::default()
        }
    }

    /// `machine` with the cell's chaos timeline stamped in: drawn against
    /// this machine's banks and links, from the start of the cell's chaos
    /// stream, so every machine of one shape gets the same timeline.
    /// Identity outside chaos mode.
    pub fn machine(&mut self, mut machine: MachineConfig) -> MachineConfig {
        if let Some((stream, draws)) = &self.chaos {
            let drawn = FaultTimeline::chaos(&mut stream.clone(), &machine, *draws);
            self.installed = drawn.sanitized_for(&machine, &machine.faults);
            machine.fault_timeline = self.installed.clone();
        }
        machine
    }
}

type CellJob = Box<dyn FnOnce(&mut CellCtx) -> CellData + Send>;
type MergeFn = Box<dyn FnOnce(&Outcomes<'_>) -> Figure + Send>;

/// One self-contained (workload, config) job.
pub struct SweepCell {
    label: String,
    job: CellJob,
    /// Relative cost declared with [`PlanBuilder::cost`]; 0 when unknown.
    cost: u64,
}

/// A figure decomposed into cells plus the order-stable merge that
/// reassembles the [`Figure`] from their outcomes.
pub struct SweepPlan {
    /// Figure id (`"fig12"`, …).
    pub figure: &'static str,
    cells: Vec<SweepCell>,
    merge: MergeFn,
}

impl SweepPlan {
    /// Cell labels, in declaration order.
    pub fn cell_labels(&self) -> Vec<&str> {
        self.cells.iter().map(|c| c.label.as_str()).collect()
    }
}

/// Builder: declare cells (capturing their id for the merge), then attach
/// the merge function.
pub struct PlanBuilder {
    figure: &'static str,
    cells: Vec<SweepCell>,
}

impl PlanBuilder {
    /// Start a plan for `figure`.
    pub fn new(figure: &'static str) -> Self {
        Self {
            figure,
            cells: Vec::new(),
        }
    }

    /// Declare a cell; returns its id for use inside the merge function.
    ///
    /// The job receives its [`CellCtx`], which carries the chaos timeline.
    /// Jobs must derive any randomness from the experiment seed they
    /// capture (never from a generator shared with another cell) so results
    /// stay independent of scheduling order, and build every machine
    /// through [`CellCtx::machine`]. A job runs at most once per sweep; a
    /// failed cell re-runs only under `--resume`, from a freshly built plan.
    pub fn cell<F>(&mut self, label: impl Into<String>, job: F) -> usize
    where
        F: FnOnce(&mut CellCtx) -> CellData + Send + 'static,
    {
        self.cells.push(SweepCell {
            label: label.into(),
            job: Box::new(job),
            cost: 0,
        });
        self.cells.len() - 1
    }

    /// Declare the relative cost of cell `id` (any unit, larger is slower).
    ///
    /// A parallel run with no journaled wall time for the cell seeds the
    /// workers costliest-first from these hints, so the cheap cells run last
    /// and no worker idles behind one big straggler. Like the journal's
    /// hints they shape only the order cells start in, never output bytes.
    pub fn cost(&mut self, id: usize, cost: u64) {
        self.cells[id].cost = cost;
    }

    /// Attach the merge function and finish the plan. The sweep appends one
    /// `note:` line per failed cell to the figure the merge returns.
    pub fn merge<F>(self, f: F) -> SweepPlan
    where
        F: FnOnce(&Outcomes<'_>) -> Figure + Send + 'static,
    {
        SweepPlan {
            figure: self.figure,
            cells: self.cells,
            merge: Box::new(f),
        }
    }
}

/// A plan-scoped shared input: built the first time a cell takes it, then
/// handed to every cell that claimed it as one `Arc<T>`.
///
/// Cells that read the same deterministic input (a generated graph, say)
/// each [`claim`](Self::claim) it while the plan is built and
/// [`take`](Claim::take) it when they run. The handle keeps its copy only
/// while claims are outstanding: the last claimed take (or the drop of the
/// last untaken claim — a cell replayed from the journal or memo never runs)
/// releases it, and takers hold their `Arc` for as long as they need it. The
/// claims live in the plan's cell jobs, so nothing outlives the plan run.
///
/// A take after the release (a second take of the last claim) rebuilds the
/// value; cell jobs take each claim once, so each input is built once per
/// plan run. The value is built under the handle's lock: concurrent takers
/// wait for one build instead of racing their own.
pub struct Shared<T> {
    inner: Arc<Slot<T>>,
}

/// The body behind a [`Shared`] handle and its claims.
struct Slot<T> {
    value: Mutex<Option<Arc<T>>>,
    /// Claims not yet taken or dropped. Only claiming (at plan-build time)
    /// touches it outside the `value` lock.
    pending: AtomicUsize,
    make: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T> Shared<T> {
    /// A handle that builds its value with `make` on first take.
    pub fn new(make: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self {
            inner: Arc::new(Slot {
                value: Mutex::new(None),
                pending: AtomicUsize::new(0),
                make: Box::new(make),
            }),
        }
    }

    /// Register one consumer; move the claim into the cell job that reads
    /// the value.
    pub fn claim(&self) -> Claim<T> {
        self.inner.pending.fetch_add(1, Ordering::Relaxed);
        Claim {
            slot: Arc::clone(&self.inner),
            taken: AtomicBool::new(false),
        }
    }
}

impl<T> Slot<T> {
    /// Recover from poisoning like the rest of this module: a build that
    /// panicked left the slot untouched (no value, no claim consumed).
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<T>>> {
        self.value
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Count one claim as consumed, under the `value` lock; the last one
    /// releases the value.
    fn release(&self, value: &mut Option<Arc<T>>) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *value = None;
        }
    }
}

/// One consumer's claim on a [`Shared`] input.
pub struct Claim<T> {
    slot: Arc<Slot<T>>,
    taken: AtomicBool,
}

impl<T> Claim<T> {
    /// The shared value, built now if no copy is held. The first take of a
    /// claim consumes it; later takes of the same claim only read.
    pub fn take(&self) -> Arc<T> {
        let mut held = self.slot.lock();
        let value = match &*held {
            Some(v) => Arc::clone(v),
            None => Arc::new((self.slot.make)()),
        };
        if !self.taken.swap(true, Ordering::AcqRel) {
            *held = Some(Arc::clone(&value));
            self.slot.release(&mut held);
        }
        value
    }
}

impl<T> Drop for Claim<T> {
    fn drop(&mut self) {
        if !*self.taken.get_mut() {
            self.slot.release(&mut self.slot.lock());
        }
    }
}

/// FNV-1a over the figure id, xor-folded with the cell index: a stable,
/// declaration-order-independent id for the cell's chaos stream.
fn stream_id(figure: &str, index: usize) -> u64 {
    store::fnv1a(figure.as_bytes()) ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Execution policy for one sweep run. [`RunOpts::new`] gives the legacy
/// behavior: no journal, no memo, no chaos.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Worker count (clamped to ≥ 1).
    pub jobs: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Checkpoint journal path ([`CellStore`]); `None` disables journaling.
    /// A fresh run starts it empty.
    pub journal: Option<std::path::PathBuf>,
    /// Keep the journal's intact prefix and replay the cells it holds
    /// under this run's keys instead of re-running them.
    pub resume: bool,
    /// Record the per-cell [`CellMetrics`](crate::report::CellMetrics)
    /// sidecar (schema `aff-bench/sweep-v9`) for every cell that produces
    /// engine metrics. Off by default: the sidecar roughly doubles the sweep
    /// report and most runs only need the throughput columns.
    pub collect_metrics: bool,
    /// Chaos mode: sample a deterministic per-cell [`FaultTimeline`] from
    /// this seed (split on the cell's own stream id, so results are
    /// schedule-independent) against each machine the cell builds through
    /// its [`CellCtx`].
    /// Every finished cell is held to the online chaos invariants; a
    /// violation fails the cell soft — recorded and journaled like a
    /// panic — rather than aborting the sweep.
    pub chaos: Option<u64>,
    /// Fault-event budget per sampled chaos timeline (0 means the default
    /// of 4; only read when `chaos` is set).
    pub chaos_intensity: u32,
    /// Cross-run memo store path ([`CellStore`]); `None` disables
    /// memoization. Unlike the journal, which a fresh run empties, the memo
    /// is always kept, so overlapping experiments (figure subsets, repeated
    /// runs) reuse each other's cells.
    pub memo: Option<std::path::PathBuf>,
    /// Harness configuration hash folded into every cell key (scale,
    /// geometry, tenant count — everything that reshapes cell inputs but is
    /// not already in the key via seed/chaos/figure/cell).
    pub memo_config: u64,
}

impl RunOpts {
    /// Legacy options: run everything, no journal, memo or chaos.
    pub fn new(jobs: usize, seed: u64) -> Self {
        Self {
            jobs,
            seed,
            ..Self::default()
        }
    }
}

struct Task {
    plan_idx: usize,
    cell_idx: usize,
    figure: &'static str,
    /// The cell's content key in the stores ([`cell_key`]).
    key: u64,
    label: String,
    job: CellJob,
    cost: u64,
}

/// The metrics sidecar for one cell result, when collection is enabled and
/// the cell produced engine metrics (table-style and failed cells read as
/// `None`). Replayed cells go through here too, so a resumed run's report
/// carries the same sidecars as an uninterrupted one.
fn sidecar(
    result: &Result<CellData, String>,
    opts: &RunOpts,
) -> Option<crate::report::CellMetrics> {
    if !opts.collect_metrics {
        return None;
    }
    result
        .as_ref()
        .ok()
        .and_then(CellData::metrics)
        .map(crate::report::CellMetrics::from)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "cell panicked".to_string())
}

/// Fault draws per chaos timeline: `opts.chaos_intensity`, with 0 meaning
/// the default of 4.
fn chaos_draws(opts: &RunOpts) -> u32 {
    match opts.chaos_intensity {
        0 => 4,
        n => n,
    }
}

/// Online invariant checks a chaos cell's result must pass. Cells without
/// engine metrics (pre-rendered tables) only carry the no-panic guarantee.
fn chaos_invariants(data: &CellData, timeline: &FaultTimeline) -> Result<(), String> {
    let Some(m) = data.metrics() else {
        return Ok(());
    };
    // Conservation: the per-class flit counters partition the total.
    let class_sum: u64 = m.hop_flits.iter().sum();
    if class_sum != m.total_hop_flits {
        return Err(format!(
            "flit conservation: classes sum to {class_sum}, total says {}",
            m.total_hop_flits
        ));
    }
    // Monotone cycles: the estimate is exactly the (nonzero) breakdown total.
    if m.cycles == 0 || m.cycles != m.breakdown.total().max(1) {
        return Err(format!(
            "cycle monotonicity: cycles {} vs breakdown total {}",
            m.cycles,
            m.breakdown.total()
        ));
    }
    // The transition log must be an order-preserving subsequence of the
    // installed timeline (engines drop events their machine cannot express,
    // and events past the run's end never fire — but nothing may fire out
    // of order or from outside the schedule).
    let mut remaining = timeline.events().iter();
    for t in &m.transitions {
        if !remaining.any(|e| e == t) {
            return Err(format!("transition {t:?} is not in the installed timeline"));
        }
    }
    if m.degradation.fault_epochs != m.transitions.len() as u64 {
        return Err(format!(
            "epoch count: report says {}, transition log has {}",
            m.degradation.fault_epochs,
            m.transitions.len()
        ));
    }
    Ok(())
}

/// Run the job once on `ctx`, catch panics, and hold a chaos cell's result
/// to the chaos invariants against the timeline its machine installed.
fn run_attempt(job: CellJob, mut ctx: CellCtx) -> Result<CellData, String> {
    let result = catch_unwind(AssertUnwindSafe(|| job(&mut ctx))).map_err(panic_message);
    if let (Ok(data), true) = (&result, ctx.chaos.is_some()) {
        chaos_invariants(data, &ctx.installed)
            .map_err(|e| format!("chaos invariant violated: {e}"))?;
    }
    result
}

/// The context of the cell on `stream`: in chaos mode, its timeline stream,
/// split on the cell's stream id so it is schedule-independent.
fn cell_ctx(opts: &RunOpts, stream: u64) -> CellCtx {
    match opts.chaos {
        Some(chaos_seed) => {
            CellCtx::with_chaos(SimRng::split(chaos_seed, stream), chaos_draws(opts))
        }
        None => CellCtx::default(),
    }
}

/// Run one task once on its cell's stream, catching panics so a broken cell
/// degrades to an error outcome instead of killing the harness.
fn run_task(task: Task, opts: &RunOpts) -> Done {
    let stream = stream_id(task.figure, task.cell_idx);
    let start = Instant::now();
    let result = run_attempt(task.job, cell_ctx(opts, stream));
    let wall_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let stat = CellStat {
        figure: task.figure.to_string(),
        label: task.label.clone(),
        ok: result.is_ok(),
        error: result.as_ref().err().cloned(),
        wall_ns,
        sim_cycles: result.as_ref().map_or(0, CellData::sim_cycles),
        cached: false,
        metrics: sidecar(&result, opts),
    };
    let entry = CellEntry {
        figure: task.figure.to_string(),
        cell_idx: task.cell_idx as u64,
        label: task.label,
        wall_ns,
        result,
    };
    (task.plan_idx, entry, stat)
}

/// A finished cell: its plan, its stored outcome, and its report line.
type Done = (usize, CellEntry, CellStat);

/// Content key of one cell under this run's options: FNV-1a over everything
/// the cell's bytes depend on — code salt, harness config, seed, chaos
/// parameters, and the cell's figure, index and label (strings
/// length-prefixed so adjacent fields cannot alias). Nothing
/// scheduling-dependent goes in, so a hit replays the exact bits a re-run
/// would compute.
fn cell_key(salt: u64, opts: &RunOpts, figure: &str, cell_idx: usize, label: &str) -> u64 {
    let mut bytes = Vec::with_capacity(64 + figure.len() + label.len());
    bytes.extend_from_slice(&salt.to_le_bytes());
    bytes.extend_from_slice(&opts.memo_config.to_le_bytes());
    bytes.extend_from_slice(&opts.seed.to_le_bytes());
    match opts.chaos {
        None => bytes.push(0),
        Some(c) => {
            bytes.push(1);
            bytes.extend_from_slice(&c.to_le_bytes());
            bytes.extend_from_slice(&chaos_draws(opts).to_le_bytes());
        }
    }
    bytes.extend_from_slice(&(figure.len() as u32).to_le_bytes());
    bytes.extend_from_slice(figure.as_bytes());
    bytes.extend_from_slice(&(cell_idx as u64).to_le_bytes());
    bytes.extend_from_slice(&(label.len() as u32).to_le_bytes());
    bytes.extend_from_slice(label.as_bytes());
    store::fnv1a(&bytes)
}

/// Indices of the journal and the memo in [`Stores`].
const JOURNAL: usize = 0;
const MEMO: usize = 1;

/// The run's two cell stores, `[journal, memo]` — each `None` when off or
/// after an I/O error closed it — and the typed error that closed the
/// journal. Workers lock one store at a time; appends are tiny next to cell
/// compute time.
struct Stores {
    open: [Mutex<Option<CellStore>>; 2],
    journal_error: Mutex<Option<SimError>>,
}

impl Stores {
    /// Open the stores `opts` asks for. The journal restarts empty unless
    /// resuming; the memo is always kept. A store of another build (salt)
    /// or format starts fresh.
    fn open(opts: &RunOpts, salt: u64) -> Self {
        let stores = Stores {
            open: Default::default(),
            journal_error: Mutex::new(None),
        };
        for (which, path, keep) in [
            (JOURNAL, &opts.journal, opts.resume),
            (MEMO, &opts.memo, true),
        ] {
            let Some(path) = path else { continue };
            match CellStore::open(path, salt, keep) {
                Ok(s) => {
                    if s.stale {
                        eprintln!(
                            "note: {} was written by another build or format; starting fresh",
                            path.display()
                        );
                    }
                    *stores.slot(which) = Some(s);
                }
                Err(e) => {
                    let op = match (keep, which) {
                        (false, _) => "create",
                        (true, JOURNAL) => "resume",
                        (true, _) => "open",
                    };
                    stores.fail(which, op, &e);
                }
            }
        }
        stores
    }

    fn slot(&self, which: usize) -> std::sync::MutexGuard<'_, Option<CellStore>> {
        self.open[which]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Degrade to running without store `which`, warning on stderr at once:
    /// a full disk (`ENOSPC`) or a dying device (`EIO`) mid-sweep costs
    /// durability or cache hits, never the figures. A journal failure is
    /// kept for the report.
    fn fail(&self, which: usize, op: &'static str, err: &std::io::Error) {
        if which == JOURNAL {
            let typed = SimError::journal(op, err);
            eprintln!("warning: {typed}");
            *self
                .journal_error
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(typed);
        } else {
            eprintln!("warning: memo {op} failed: {err}; continuing without the memo");
        }
    }

    /// The outcome store `which` can replay for `task`: a success stored
    /// under its key for the same figure, cell and label. The key covers all
    /// three already, but a hash collision must degrade to a miss, never to
    /// a wrong replay. Failed outcomes are stored but never replayed: they
    /// re-run.
    fn hit(&self, which: usize, task: &Task) -> Option<CellEntry> {
        self.slot(which)
            .as_ref()?
            .get(task.key)
            .filter(|e| {
                e.result.is_ok()
                    && e.figure == task.figure
                    && e.cell_idx == task.cell_idx as u64
                    && e.label == task.label
            })
            .cloned()
    }

    /// Append `entry` under `key` to the open stores among `to`, one fsync'd
    /// record each. A failed append closes that store.
    fn append(&self, to: &[usize], key: u64, entry: &CellEntry) {
        for &which in to {
            let mut slot = self.slot(which);
            let Some(s) = slot.as_mut() else { continue };
            if let Err(e) = s.append(key, entry) {
                *slot = None;
                drop(slot);
                self.fail(which, "append", &e);
            }
        }
    }
}

/// Run one task and append its outcome to every open store before the
/// worker moves on, so a kill at any instant loses at most the cells then
/// in flight.
fn execute(task: Task, opts: &RunOpts, stores: &Stores) -> Done {
    let key = task.key;
    let done = run_task(task, opts);
    stores.append(&[JOURNAL, MEMO], key, &done.1);
    done
}

/// Execute `plans` under the [`RunOpts`] policy (workers, journal, resume,
/// memo, chaos, metrics) and merge each plan's figure in declaration order,
/// with one `note:` line appended per failed cell.
///
/// Output is byte-identical for every `jobs >= 1`: cells share no state,
/// chaos streams come from order-insensitive splitting, and both the
/// outcome vector and the returned figures follow declaration order, not
/// completion order. (The [`SweepReport`] records *measured* wall times and
/// is the one output that legitimately differs between runs.) The guarantee
/// extends to replayed cells: a stored outcome is the exact bits the same
/// code computed from the same inputs, so `--resume` and memo output match
/// an uninterrupted run.
pub fn run_plans_opts(plans: Vec<SweepPlan>, opts: &RunOpts) -> (Vec<Figure>, SweepReport) {
    let jobs = opts.jobs.max(1);
    let seed = opts.seed;
    let total_start = Instant::now();
    let salt = store::code_salt();

    // Flatten every plan's cells into one task list (stable global order).
    let mut shapes: Vec<(usize, &'static str, MergeFn)> = Vec::with_capacity(plans.len());
    let mut tasks: Vec<Task> = Vec::new();
    for (plan_idx, plan) in plans.into_iter().enumerate() {
        shapes.push((plan.cells.len(), plan.figure, plan.merge));
        let figure = shapes[plan_idx].1;
        for (cell_idx, cell) in plan.cells.into_iter().enumerate() {
            tasks.push(Task {
                plan_idx,
                cell_idx,
                figure,
                key: cell_key(salt, opts, figure, cell_idx, &cell.label),
                label: cell.label,
                job: cell.job,
                cost: cell.cost,
            });
        }
    }
    let n_tasks = tasks.len();

    // Open the stores. Their scans also harvest last-run wall times for the
    // longest-cell-first seed order (journal first), read before a fresh
    // journal is emptied and whatever the salt: hints only shape the
    // work-stealing seed order, never output bytes.
    let stores = Stores::open(opts, salt);
    let mut wall_hints = std::collections::BTreeMap::new();
    for which in [JOURNAL, MEMO] {
        if let Some(s) = stores.slot(which).as_mut() {
            for (cell, wall) in std::mem::take(&mut s.wall_hints) {
                wall_hints.entry(cell).or_insert(wall);
            }
        }
    }

    // Replay every cell a store can serve (journal first, then memo) and
    // queue the rest. A replayed cell is appended to the other store unless
    // it already holds it, so a memo hit is resumable from this run's
    // journal and a resumed cell warms the memo.
    let mut done: Vec<Done> = Vec::with_capacity(n_tasks);
    let mut to_run: Vec<Task> = Vec::with_capacity(n_tasks);
    let mut memo_hits = 0usize;
    for t in tasks {
        let hit = [JOURNAL, MEMO]
            .into_iter()
            .find_map(|from| Some((from, stores.hit(from, &t)?)));
        let Some((from, entry)) = hit else {
            to_run.push(t);
            continue;
        };
        let other = if from == JOURNAL { MEMO } else { JOURNAL };
        if stores.hit(other, &t).is_none() {
            stores.append(&[other], t.key, &entry);
        }
        memo_hits += usize::from(from == MEMO);
        let stat = CellStat {
            figure: entry.figure.clone(),
            label: entry.label.clone(),
            ok: true,
            error: None,
            wall_ns: entry.wall_ns,
            sim_cycles: entry.result.as_ref().map_or(0, CellData::sim_cycles),
            cached: true,
            metrics: sidecar(&entry.result, opts),
        };
        done.push((t.plan_idx, entry, stat));
    }
    let resumed_cells = done.len() - memo_hits;

    // Execute. `--jobs 1` runs cells inline in declaration order. Parallel
    // runs use a work-stealing pool: each worker owns a deque of task
    // indices, seeded longest-cell-first from the stored wall times of
    // earlier runs (cold cells fall back to the plan's declared costs,
    // then to declaration order) and dealt round-robin so every worker
    // starts on a big cell instead of the old index-counter pool's failure
    // mode — small cells queueing behind one straggler while finished
    // workers idle. A worker pops its own front
    // (its biggest remaining seed); when empty it steals a victim's *back*
    // (the victim's smallest), which keeps the expensive cells with the
    // workers that were seeded for them. Results carry their (plan, cell)
    // coordinates and chaos streams split from order-insensitive ids, so
    // neither seeding nor stealing can change output bytes.
    let executed: Vec<Done> = if jobs == 1 || to_run.len() <= 1 {
        to_run
            .into_iter()
            .map(|t| execute(t, opts, &stores))
            .collect()
    } else {
        let n_run = to_run.len();
        let workers = jobs.min(n_run);
        let mut order: Vec<usize> = (0..n_run).collect();
        order.sort_by_key(|&i| {
            let t = &to_run[i];
            let hint = wall_hints
                .get(&(t.figure.to_string(), t.cell_idx as u64))
                .copied()
                .unwrap_or(0);
            // Descending wall hint; unknown cells (hint 0) follow by
            // descending declared cost, then in declaration order.
            (std::cmp::Reverse(hint), std::cmp::Reverse(t.cost), i)
        });
        let slots: Vec<std::sync::Mutex<Option<Task>>> = to_run
            .into_iter()
            .map(|t| std::sync::Mutex::new(Some(t)))
            .collect();
        let deques: Vec<std::sync::Mutex<std::collections::VecDeque<usize>>> = (0..workers)
            .map(|w| {
                std::sync::Mutex::new(order.iter().skip(w).step_by(workers).copied().collect())
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let slots = &slots;
                    let deques = &deques;
                    let stores = &stores;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // Own front first, then a cyclic victim scan.
                            // Indices leave a deque exactly once (under its
                            // mutex) and are never re-queued, so a worker
                            // that sees every deque empty can safely exit.
                            // Recover from poisoning rather than unwrap so
                            // a panicking sibling worker (a harness bug,
                            // cells themselves are caught) can't cascade.
                            let mut claimed = None;
                            for v in 0..workers {
                                let mut q = deques[(w + v) % workers]
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                                claimed = if v == 0 { q.pop_front() } else { q.pop_back() };
                                if claimed.is_some() {
                                    break;
                                }
                            }
                            let Some(i) = claimed else { break };
                            let task = slots[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take();
                            if let Some(task) = task {
                                out.push(execute(task, opts, stores));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        })
    };
    done.extend(executed);
    // The report serializes the typed error's stable rendering; its `kind()`
    // tag ("journal") prefixes it so downstream tooling can dispatch without
    // string-matching the message.
    let journal_error = stores
        .journal_error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .map(|e| format!("{}: {e}", e.kind()));

    // Scatter outcomes back into declaration order.
    let mut per_plan: Vec<Vec<Option<CellOutcome>>> =
        shapes.iter().map(|(n, _, _)| vec![None; *n]).collect();
    // Stats sort by (plan, cell), i.e. declaration order, so the report is
    // itself deterministic up to the measured wall times.
    done.sort_by_key(|(p, e, _)| (*p, e.cell_idx));
    let mut stats: Vec<CellStat> = Vec::with_capacity(n_tasks);
    for (plan_idx, entry, stat) in done {
        per_plan[plan_idx][entry.cell_idx as usize] = Some(CellOutcome {
            label: entry.label,
            result: entry.result,
        });
        stats.push(stat);
    }

    // Merge, in plan declaration order.
    let mut figures = Vec::with_capacity(shapes.len());
    for ((_, figure, merge), outcomes) in shapes.into_iter().zip(per_plan) {
        let cells: Vec<CellOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or(CellOutcome {
                    label: format!("{figure}#{i}"),
                    result: Err("cell was never executed (worker died)".to_string()),
                })
            })
            .collect();
        let outcomes = Outcomes { cells: &cells };
        let mut fig = merge(&outcomes);
        outcomes.annotate_failures(&mut fig);
        figures.push(fig);
    }

    let report = SweepReport {
        jobs,
        seed,
        wall_ns: total_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        cells: stats,
        resumed_cells,
        memo_hits,
        journal_error,
        extra_aggregates: Vec::new(),
    };
    (figures, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_plan(label: &'static str) -> SweepPlan {
        let mut b = PlanBuilder::new(label);
        let mut ids = Vec::new();
        for i in 0..5u64 {
            ids.push(b.cell(format!("cell{i}"), move |_| CellData::Rows {
                rows: vec![Row::new(format!("cell{i}"), vec![i as f64])],
                sim_cycles: i,
            }));
        }
        b.merge(move |o| {
            let mut fig = Figure::new(label, "toy", vec!["v"]);
            for &i in &ids {
                if let Some(rows) = o.rows(i) {
                    fig.rows.extend(rows.iter().cloned());
                }
            }
            fig
        })
    }

    #[test]
    fn serial_and_parallel_runs_are_byte_identical() {
        let (serial, _) = run_plans_opts(vec![toy_plan("a"), toy_plan("b")], &RunOpts::new(1, 42));
        let (par, _) = run_plans_opts(vec![toy_plan("a"), toy_plan("b")], &RunOpts::new(4, 42));
        let s: Vec<String> = serial.iter().map(Figure::to_json).collect();
        let p: Vec<String> = par.iter().map(Figure::to_json).collect();
        assert_eq!(s, p);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("aff-sweep-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("{name}-{}.cells", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    /// Rewrite the store at `path` (written under `from` by a run with
    /// `opts`) as if another build with salt `to` had written it: the
    /// `cells` of the toy-shaped `figure` that it holds, re-keyed.
    fn rewrite_store(
        path: &std::path::Path,
        (from, to): (u64, u64),
        opts: &RunOpts,
        figure: &str,
        cells: impl Iterator<Item = usize>,
    ) {
        let old = CellStore::open(path, from, true).expect("reopen");
        let entries: Vec<CellEntry> = cells
            .filter_map(|i| {
                old.get(cell_key(from, opts, figure, i, &format!("cell{i}")))
                    .cloned()
            })
            .collect();
        drop(old);
        let mut new = CellStore::open(path, to, false).expect("rewrite");
        for e in &entries {
            let key = cell_key(to, opts, figure, e.cell_idx as usize, &e.label);
            new.append(key, e).expect("append");
        }
    }

    #[test]
    fn stale_journal_wall_hints_seed_stealing_without_changing_bytes() {
        // A store of another build (other salt) at the journal path: its
        // wall times may seed the scheduler, but output bytes must match a
        // hint-less serial run and every cell must run fresh.
        let path = tmp("hints");
        let mut stale = CellStore::open(&path, store::code_salt() ^ 1, false).expect("create");
        for (i, wall) in [(0u64, 5u64), (1, 500_000_000), (2, 10), (3, 7), (4, 100)] {
            let entry = CellEntry {
                figure: "a".into(),
                cell_idx: i,
                label: format!("cell{i}"),
                wall_ns: wall,
                result: Err("stale".into()),
            };
            stale.append(i, &entry).expect("append");
        }
        drop(stale);
        let (serial, _) = run_plans_opts(vec![toy_plan("a"), toy_plan("b")], &RunOpts::new(1, 42));
        let opts = RunOpts {
            journal: Some(path.clone()),
            ..RunOpts::new(3, 42)
        };
        let (hinted, report) = run_plans_opts(vec![toy_plan("a"), toy_plan("b")], &opts);
        let s: Vec<String> = serial.iter().map(Figure::to_json).collect();
        let h: Vec<String> = hinted.iter().map(Figure::to_json).collect();
        assert_eq!(s, h);
        assert_eq!(report.resumed_cells, 0, "stale journal must not resume");
        assert!(report.cells.iter().all(|c| !c.cached));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn declared_costs_start_the_costliest_cells_first() {
        // Cells declared cheapest-first with rising costs: a cold parallel
        // run seeds each worker's deque from its costliest cell, so the first
        // cell to start is one of the two costliest; the bytes stay those of
        // a serial run.
        fn plan(started: Arc<Mutex<Vec<usize>>>) -> SweepPlan {
            let mut b = PlanBuilder::new("costed");
            let mut ids = Vec::new();
            for i in 0..6usize {
                let started = Arc::clone(&started);
                let id = b.cell(format!("c{i}"), move |_| {
                    started.lock().expect("log").push(i);
                    CellData::Rows {
                        rows: vec![Row::new(format!("c{i}"), vec![i as f64])],
                        sim_cycles: 1,
                    }
                });
                b.cost(id, i as u64 + 1);
                ids.push(id);
            }
            b.merge(move |o| {
                let mut fig = Figure::new("costed", "toy", vec!["v"]);
                for &i in &ids {
                    fig.rows
                        .extend(o.rows(i).unwrap_or_default().iter().cloned());
                }
                fig
            })
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let (serial, _) = run_plans_opts(vec![plan(Arc::clone(&log))], &RunOpts::new(1, 7));
        let serial_order = log.lock().expect("log").clone();
        assert_eq!(
            serial_order,
            vec![0, 1, 2, 3, 4, 5],
            "jobs 1 keeps declaration order"
        );
        log.lock().expect("log").clear();
        let (par, _) = run_plans_opts(vec![plan(Arc::clone(&log))], &RunOpts::new(2, 7));
        let first = log.lock().expect("log")[0];
        assert!(first >= 4, "a cold run started with c{first}");
        assert_eq!(serial[0].to_json(), par[0].to_json());
    }

    /// A four-cell plan `"m"` whose cells count their executions.
    fn counted_plan(ex: &Arc<std::sync::atomic::AtomicU32>) -> SweepPlan {
        let mut b = PlanBuilder::new("m");
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let ex = Arc::clone(ex);
            ids.push(b.cell(format!("cell{i}"), move |_| {
                ex.fetch_add(1, Ordering::SeqCst);
                CellData::Rows {
                    rows: vec![Row::new(format!("cell{i}"), vec![i as f64])],
                    sim_cycles: i + 1,
                }
            }));
        }
        b.merge(move |o| {
            let mut fig = Figure::new("m", "memo", vec!["v"]);
            for &i in &ids {
                if let Some(rows) = o.rows(i) {
                    fig.rows.extend(rows.iter().cloned());
                }
            }
            fig
        })
    }

    #[test]
    fn memo_warm_run_replays_bytes_without_executing() {
        use std::sync::atomic::AtomicU32;
        let path = tmp("memo");
        let executions = Arc::new(AtomicU32::new(0));
        let plan = counted_plan;
        let opts = RunOpts {
            memo: Some(path.clone()),
            memo_config: 77,
            ..RunOpts::new(2, 42)
        };
        let (cold, cold_report) = run_plans_opts(vec![plan(&executions)], &opts);
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        assert_eq!(cold_report.memo_hits, 0);
        // Warm run: every cell replays from the store, byte-identically.
        let (warm, warm_report) = run_plans_opts(vec![plan(&executions)], &opts);
        assert_eq!(executions.load(Ordering::SeqCst), 4, "no cell re-ran");
        assert_eq!(warm_report.memo_hits, 4);
        assert!(warm_report.cells.iter().all(|c| c.cached && c.ok));
        assert_eq!(cold[0].to_json(), warm[0].to_json());
        // A different config (scale/geometry/tenants) or seed must miss.
        for changed in [
            RunOpts {
                memo: Some(path.clone()),
                memo_config: 78,
                ..RunOpts::new(2, 42)
            },
            RunOpts {
                memo: Some(path.clone()),
                memo_config: 77,
                ..RunOpts::new(2, 43)
            },
        ] {
            let before = executions.load(Ordering::SeqCst);
            let (_, r) = run_plans_opts(vec![plan(&executions)], &changed);
            assert_eq!(r.memo_hits, 0);
            assert_eq!(executions.load(Ordering::SeqCst), before + 4);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_separate_every_input() {
        let base = RunOpts {
            memo_config: 2,
            ..RunOpts::new(1, 3)
        };
        let key = |salt, o: &RunOpts, figure, cell, label| cell_key(salt, o, figure, cell, label);
        let k = key(1, &base, "fig13", 4, "bfs/AffAlloc");
        assert_ne!(k, key(9, &base, "fig13", 4, "bfs/AffAlloc"));
        let config = RunOpts {
            memo_config: 9,
            ..base.clone()
        };
        assert_ne!(k, key(1, &config, "fig13", 4, "bfs/AffAlloc"));
        let seed = RunOpts {
            seed: 9,
            ..base.clone()
        };
        assert_ne!(k, key(1, &seed, "fig13", 4, "bfs/AffAlloc"));
        let chaos = RunOpts {
            chaos: Some(0),
            ..base.clone()
        };
        assert_ne!(k, key(1, &chaos, "fig13", 4, "bfs/AffAlloc"));
        assert_ne!(k, key(1, &base, "fig14", 4, "bfs/AffAlloc"));
        assert_ne!(k, key(1, &base, "fig13", 5, "bfs/AffAlloc"));
        assert_ne!(k, key(1, &base, "fig13", 4, "bfs/NDC"));
        // Chaos intensity only matters when chaos is on; worker count never
        // does.
        let quiet = RunOpts {
            chaos_intensity: 7,
            jobs: 4,
            ..base.clone()
        };
        assert_eq!(k, key(1, &quiet, "fig13", 4, "bfs/AffAlloc"));
        let dense = RunOpts {
            chaos_intensity: 7,
            ..chaos.clone()
        };
        assert_ne!(
            key(1, &chaos, "fig13", 4, "bfs/AffAlloc"),
            key(1, &dense, "fig13", 4, "bfs/AffAlloc")
        );
        // The default intensity and an explicit 4 draw the same timelines,
        // so they share a key.
        let four = RunOpts {
            chaos_intensity: 4,
            ..chaos.clone()
        };
        assert_eq!(
            key(1, &chaos, "fig13", 4, "bfs/AffAlloc"),
            key(1, &four, "fig13", 4, "bfs/AffAlloc")
        );
    }

    #[test]
    fn a_store_of_another_build_is_neither_resumed_nor_memo_hit() {
        use std::sync::atomic::AtomicU32;
        let (journal, memo) = (tmp("salt-journal"), tmp("salt-memo"));
        let executions = Arc::new(AtomicU32::new(0));
        let both = RunOpts {
            journal: Some(journal.clone()),
            memo: Some(memo.clone()),
            ..RunOpts::new(1, 42)
        };
        let resume = RunOpts {
            resume: true,
            ..both.clone()
        };
        let (clean, _) = run_plans_opts(vec![counted_plan(&executions)], &both);
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        // Control: under this build's salt both stores would serve every
        // cell (the journal first).
        let (_, r) = run_plans_opts(vec![counted_plan(&executions)], &resume);
        assert_eq!((r.resumed_cells, r.memo_hits), (4, 0));
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        // The same stores as another build (salt) wrote them: a rebuild that
        // changed cell code must re-run everything, not replay stale bits.
        let (here, there) = (store::code_salt(), store::code_salt() ^ 0x5A17);
        for path in [&journal, &memo] {
            rewrite_store(path, (here, there), &both, "m", 0..4);
        }
        let (fresh, r) = run_plans_opts(vec![counted_plan(&executions)], &resume);
        assert_eq!((r.resumed_cells, r.memo_hits), (0, 0));
        assert!(r.cells.iter().all(|c| c.ok && !c.cached));
        assert_eq!(executions.load(Ordering::SeqCst), 8);
        assert_eq!(clean[0].to_json(), fresh[0].to_json());
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&memo).ok();
    }

    #[test]
    fn memo_hits_are_journaled_and_resumed_cells_warm_the_memo() {
        use std::path::PathBuf;
        use std::sync::atomic::AtomicU32;
        let executions = Arc::new(AtomicU32::new(0));
        let ran = || executions.load(Ordering::SeqCst);
        let run = |journal: Option<&PathBuf>, resume, memo: Option<&PathBuf>| {
            let opts = RunOpts {
                journal: journal.cloned(),
                resume,
                memo: memo.cloned(),
                ..RunOpts::new(2, 42)
            };
            let (figs, r) = run_plans_opts(vec![counted_plan(&executions)], &opts);
            (figs[0].to_json(), r)
        };
        let (journal, memo) = (tmp("pair-journal"), tmp("pair-memo"));

        // A memo hit under journal + memo lands in the journal, so resuming
        // that journal without the memo replays it.
        let (clean, _) = run(None, false, Some(&memo));
        assert_eq!(ran(), 4);
        let (bytes, r) = run(Some(&journal), false, Some(&memo));
        assert_eq!((r.memo_hits, r.resumed_cells, ran()), (4, 0, 4));
        assert_eq!(bytes, clean);
        let (bytes, r) = run(Some(&journal), true, None);
        assert_eq!((r.memo_hits, r.resumed_cells, ran()), (0, 4, 4));
        assert_eq!(bytes, clean);

        // The other direction: a resumed cell warms an empty memo, so a
        // later memo-only run hits it.
        std::fs::remove_file(&memo).ok();
        let (bytes, r) = run(Some(&journal), true, Some(&memo));
        assert_eq!((r.memo_hits, r.resumed_cells, ran()), (0, 4, 4));
        assert_eq!(bytes, clean);
        let (bytes, r) = run(None, false, Some(&memo));
        assert_eq!((r.memo_hits, r.resumed_cells, ran()), (4, 0, 4));
        assert_eq!(bytes, clean);
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&memo).ok();
    }

    #[test]
    fn panicking_cell_fails_soft() {
        let mut b = PlanBuilder::new("boom");
        let ok = b.cell("fine", |_| CellData::Rows {
            rows: vec![Row::new("fine", vec![1.0])],
            sim_cycles: 7,
        });
        let bad = b.cell("broken", |_| -> CellData {
            panic!("injected cell failure")
        });
        let plan = b.merge(move |o| {
            let mut fig = Figure::new("boom", "fail soft", vec!["v"]);
            assert!(o.rows(ok).is_some());
            assert!(o.rows(bad).is_none());
            fig.push("broken", vec![o.field(bad, |m| m.noc_utilization)]);
            fig
        });
        let (figs, report) = run_plans_opts(vec![plan], &RunOpts::new(4, 1));
        // The merge adds no note itself: the sweep appends one per failed cell.
        assert!(figs[0].rows[0].values[0].is_nan());
        assert_eq!(figs[0].notes.len(), 1);
        assert!(figs[0].notes[0].contains("injected cell failure"));
        let broken = &report.cells[1];
        assert!(!broken.ok);
        assert_eq!(report.cells[0].sim_cycles, 7);
    }

    #[test]
    fn unwritable_journal_degrades_to_journal_less_execution() {
        // A journal path that is a directory makes `create` fail with a real
        // I/O error — the same shape as ENOSPC/EIO mid-sweep. The sweep must
        // still compute every figure, with the typed journal error recorded.
        let dir = std::env::temp_dir().join("aff_sweep_journal_is_a_dir");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let opts = RunOpts {
            journal: Some(dir.clone()),
            ..RunOpts::new(2, 42)
        };
        let (figs, report) = run_plans_opts(vec![toy_plan("a")], &opts);
        let (clean, _) = run_plans_opts(vec![toy_plan("a")], &RunOpts::new(2, 42));
        assert_eq!(figs[0].to_json(), clean[0].to_json(), "results unaffected");
        assert!(report.cells.iter().all(|c| c.ok));
        let err = report.journal_error.expect("degrade recorded");
        assert!(err.starts_with("journal: "), "typed kind() prefix: {err}");
        assert!(err.contains("journal create failed"), "{err}");
        assert!(err.contains("continuing without checkpoints"), "{err}");
        // A memo on a directory is disabled the same way: no hits, no error
        // in the report, the same figures.
        let opts = RunOpts {
            memo: Some(dir.clone()),
            ..RunOpts::new(2, 42)
        };
        for _ in 0..2 {
            let (figs, report) = run_plans_opts(vec![toy_plan("a")], &opts);
            assert_eq!(figs[0].to_json(), clean[0].to_json());
            assert!(report.cells.iter().all(|c| c.ok && !c.cached));
            assert!(report.journal_error.is_none());
        }
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn report_follows_declaration_order() {
        let (_, report) = run_plans_opts(vec![toy_plan("x"), toy_plan("y")], &RunOpts::new(3, 9));
        let labels: Vec<&str> = report.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "cell0", "cell1", "cell2", "cell3", "cell4", "cell0", "cell1", "cell2", "cell3",
                "cell4"
            ]
        );
        assert_eq!(report.cells[0].figure, "x");
        assert_eq!(report.cells[5].figure, "y");
        assert_eq!(report.jobs, 3);
    }

    #[test]
    fn metrics_sidecar_is_collected_only_when_asked() {
        fn plan() -> SweepPlan {
            let mut b = PlanBuilder::new("sidecar");
            b.cell("engine", |_| {
                let mut e = aff_nsc::engine::SimEngine::new(
                    aff_sim_core::config::MachineConfig::tiny_mesh(),
                );
                e.core_read_lines(0, 1, 4);
                e.finish().into()
            });
            b.cell("table", |_| CellData::Rows {
                rows: vec![Row::new("r", vec![1.0])],
                sim_cycles: 0,
            });
            b.merge(|_| Figure::new("sidecar", "t", vec!["v"]))
        }
        let (_, without) = run_plans_opts(vec![plan()], &RunOpts::new(1, 7));
        assert!(without.cells.iter().all(|c| c.metrics.is_none()));

        let opts = RunOpts {
            collect_metrics: true,
            ..RunOpts::new(1, 7)
        };
        let (_, with) = run_plans_opts(vec![plan()], &opts);
        let m = with.cells[0].metrics.as_ref().expect("engine cell sidecar");
        assert!(m.total_hop_flits > 0);
        assert_eq!(m.cycles, with.cells[0].sim_cycles);
        // Table-style cells have no engine metrics to record.
        assert!(with.cells[1].metrics.is_none());
    }

    fn engine_plan(figure: &'static str) -> SweepPlan {
        let mut b = PlanBuilder::new(figure);
        let mut ids = Vec::new();
        for i in 0..3u64 {
            ids.push(b.cell(format!("cell{i}"), move |ctx| {
                let machine = ctx.machine(MachineConfig::paper_default());
                let mut e = aff_nsc::engine::SimEngine::new(machine);
                e.begin_phase();
                e.register_resident((i % 4) as u32 * 9, 1 << 16);
                e.bank_read_lines((i % 4) as u32 * 9, 200 + i);
                e.remote_atomic(0, 9, 50);
                e.end_phase();
                e.finish().into()
            }));
        }
        b.merge(move |o| {
            let mut fig = Figure::new(
                figure,
                "chaos determinism",
                vec!["cycles", "flits", "epochs"],
            );
            for &i in &ids {
                fig.push(
                    format!("cell{i}"),
                    vec![
                        o.field(i, |m| m.cycles as f64),
                        o.field(i, |m| m.total_hop_flits as f64),
                        o.field(i, |m| m.degradation.fault_epochs as f64),
                    ],
                );
            }
            fig
        })
    }

    #[test]
    fn chaos_runs_are_deterministic_across_job_counts() {
        let run = |jobs| {
            let opts = RunOpts {
                chaos: Some(7),
                chaos_intensity: 6,
                ..RunOpts::new(jobs, 42)
            };
            let (figs, report) = run_plans_opts(vec![engine_plan("chaos")], &opts);
            assert!(report.cells.iter().all(|c| c.ok), "{:?}", report.cells);
            figs[0].to_json()
        };
        assert_eq!(run(1), run(4));
    }

    /// The chaos timeline a cell on `stream` installs into `machine`.
    fn installed(opts: &RunOpts, stream: u64, machine: MachineConfig) -> FaultTimeline {
        cell_ctx(opts, stream).machine(machine).fault_timeline
    }

    fn chaos_opts(intensity: u32) -> RunOpts {
        RunOpts {
            chaos: Some(7),
            chaos_intensity: intensity,
            ..RunOpts::new(1, 42)
        }
    }

    /// A chaos cell job on `machine` that runs long enough, phase by phase,
    /// for the timeline's events to fire.
    fn long_engine_job(machine: MachineConfig) -> CellJob {
        Box::new(move |ctx: &mut CellCtx| {
            let machine = ctx.machine(machine);
            let banks = machine.num_banks();
            let mut e = aff_nsc::engine::SimEngine::new(machine);
            for phase in 0..64u32 {
                e.begin_phase();
                let bank = phase % 2 * (banks - 1);
                e.register_resident(bank, 1 << 16);
                e.bank_read_lines(bank, 1 << 19);
                e.remote_atomic(0, bank, 1 << 12);
                e.end_phase();
            }
            e.finish().into()
        })
    }

    #[test]
    fn chaos_intensity_sets_the_fault_draws_and_zero_means_four() {
        let m = MachineConfig::paper_default;
        for stream in 0..32 {
            // One fault draw: the fault itself plus at most its repair.
            let one = installed(&chaos_opts(1), stream, m());
            assert!(one.len() <= 2, "stream {stream}: {:?}", one.events());
            assert_eq!(
                installed(&chaos_opts(0), stream, m()),
                installed(&chaos_opts(4), stream, m())
            );
        }
    }

    #[test]
    fn chaos_timeline_reaches_the_engine_and_passes_invariants() {
        use aff_sim_core::fault::FaultChange;
        // A cycle-0 bank death: the engine logs the transition and the chaos
        // invariant checks accept the result.
        let tl = FaultTimeline::none().at(0, FaultChange::BankFail(9));
        let mut e = aff_nsc::engine::SimEngine::new(
            MachineConfig::paper_default().with_fault_timeline(tl.clone()),
        );
        e.bank_read_lines(9, 100);
        let data = CellData::from(e.finish());
        let m = data.metrics().expect("engine cell");
        assert_eq!(m.transitions, tl.events());
        assert_eq!(m.degradation.fault_epochs, 1);
        assert_eq!(chaos_invariants(&data, &tl), Ok(()));
        // A sampled timeline reaches the engine through the cell's context,
        // and the cell passes the invariants against what it installed.
        let opts = chaos_opts(4);
        let data = run_attempt(
            long_engine_job(MachineConfig::paper_default()),
            cell_ctx(&opts, 3),
        )
        .expect("chaos cell runs clean");
        let m = data.metrics().expect("engine cell");
        assert!(
            !m.transitions.is_empty(),
            "no event fired in {} cycles",
            m.cycles
        );
        let tl = installed(&opts, 3, MachineConfig::paper_default());
        assert!(m.transitions.iter().all(|t| tl.events().contains(t)));
        // Outside chaos mode the context leaves the machine untouched.
        let mut calm = CellCtx::default();
        assert_eq!(
            calm.machine(MachineConfig::paper_default()),
            MachineConfig::paper_default()
        );
        // A 2×2 machine only ever gets faults it can express.
        for stream in 0..16 {
            let tiny = MachineConfig::tiny_mesh();
            let tl = installed(&opts, stream, tiny.clone());
            assert_eq!(tl.validate(&tiny, &tiny.faults), Ok(()), "stream {stream}");
        }
    }

    #[test]
    fn chaos_timelines_are_drawn_against_the_cells_own_machine() {
        use aff_sim_core::fault::FaultChange;
        let mut big = MachineConfig::paper_default();
        crate::figures::GeometrySpec::parse("16x16")
            .expect("valid geometry")
            .apply(&mut big);
        let opts = chaos_opts(4);
        let off_corner = |tl: &FaultTimeline| {
            tl.events().iter().any(|e| match e.change {
                FaultChange::BankFail(b)
                | FaultChange::BankRepair(b)
                | FaultChange::BankSlow { bank: b, .. } => b >= 64,
                FaultChange::LinkFail(l)
                | FaultChange::LinkRepair(l)
                | FaultChange::LinkDegrade { link: l, .. } => {
                    l.fx.max(l.tx).max(l.fy).max(l.ty) >= 8
                }
            })
        };
        let stream = (0..16)
            .find(|&s| off_corner(&installed(&opts, s, big.clone())))
            .expect("a 16×16 timeline reaches past the 8×8 corner");
        let tl = installed(&opts, stream, big.clone());
        assert_eq!(tl.validate(&big, &big.faults), Ok(()));
        // The stream is the same at 8×8; the machine's shape picks the faults.
        assert_ne!(installed(&opts, stream, MachineConfig::paper_default()), tl);
        let data = run_attempt(long_engine_job(big), cell_ctx(&opts, stream))
            .expect("the 16×16 chaos cell passes the invariants");
        let m = data.metrics().expect("engine cell");
        assert!(
            !m.transitions.is_empty(),
            "no event fired in {} cycles",
            m.cycles
        );
        assert!(m.transitions.iter().all(|t| tl.events().contains(t)));
    }

    #[test]
    fn chaos_invariant_violation_fails_the_cell_soft() {
        let mut b = PlanBuilder::new("doctored");
        b.cell("doctored", |ctx| {
            let machine = ctx.machine(MachineConfig::paper_default());
            let mut e = aff_nsc::engine::SimEngine::new(machine);
            e.remote_atomic(0, 9, 10);
            let mut m = e.finish();
            m.total_hop_flits += 1; // break flit conservation
            m.into()
        });
        let plan = b.merge(|_| Figure::new("doctored", "t", vec!["v"]));
        let opts = RunOpts {
            chaos: Some(3),
            ..RunOpts::new(1, 5)
        };
        let (figs, report) = run_plans_opts(vec![plan], &opts);
        assert!(!report.cells[0].ok);
        assert!(report.cells[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("chaos invariant violated")));
        assert!(figs[0]
            .notes
            .iter()
            .any(|n| n.contains("flit conservation")));
    }

    mod shared_inputs {
        use super::*;
        use std::sync::atomic::AtomicU32;
        use std::sync::Weak;

        /// A shared `Vec` whose builds are counted.
        fn counted(builds: &Arc<AtomicU32>) -> Shared<Vec<u64>> {
            let builds = Arc::clone(builds);
            Shared::new(move || {
                builds.fetch_add(1, Ordering::SeqCst);
                (0..64).collect()
            })
        }

        #[test]
        fn concurrent_takes_build_once() {
            let builds = Arc::new(AtomicU32::new(0));
            let gate = Arc::new(std::sync::Barrier::new(2));
            let slow = {
                let builds = Arc::clone(&builds);
                Shared::new(move || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Hold the build open so the second taker arrives
                    // while it is in progress.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    vec![7u64; 16]
                })
            };
            let claims = [slow.claim(), slow.claim()];
            let taken: Vec<Arc<Vec<u64>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = claims
                    .iter()
                    .map(|c| {
                        let gate = Arc::clone(&gate);
                        scope.spawn(move || {
                            gate.wait();
                            c.take()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("taker"))
                    .collect()
            });
            assert_eq!(builds.load(Ordering::SeqCst), 1);
            assert!(
                Arc::ptr_eq(&taken[0], &taken[1]),
                "both takers share one copy"
            );
        }

        #[test]
        fn the_copy_is_dropped_after_the_last_claimed_take() {
            let builds = Arc::new(AtomicU32::new(0));
            let input = counted(&builds);
            let (a, b) = (input.claim(), input.claim());
            let probe: Weak<Vec<u64>> = Arc::downgrade(&a.take());
            assert!(probe.upgrade().is_some(), "held for the pending claim");
            let last = b.take();
            assert!(probe.upgrade().is_some(), "the taker still holds it");
            drop(last);
            assert!(probe.upgrade().is_none(), "released after the last take");
            assert_eq!(builds.load(Ordering::SeqCst), 1);
        }

        #[test]
        fn dropping_an_untaken_claim_releases_the_copy() {
            let builds = Arc::new(AtomicU32::new(0));
            let input = counted(&builds);
            let (a, b) = (input.claim(), input.claim());
            let probe = Arc::downgrade(&a.take());
            assert!(probe.upgrade().is_some());
            // A cell replayed from the journal never runs: its job (and the
            // claim in it) is dropped instead.
            drop(b);
            assert!(probe.upgrade().is_none());
        }

        #[test]
        fn a_take_after_the_release_rebuilds() {
            let builds = Arc::new(AtomicU32::new(0));
            let input = counted(&builds);
            let only = input.claim();
            let first = only.take();
            let probe = Arc::downgrade(&first);
            drop(first);
            assert!(probe.upgrade().is_none());
            // A second take of the same claim finds the copy gone.
            let again = only.take();
            assert_eq!(*again, (0..64).collect::<Vec<u64>>());
            assert_eq!(builds.load(Ordering::SeqCst), 2);
        }

        #[test]
        fn a_panicking_build_leaves_the_handle_usable() {
            let calls = Arc::new(AtomicU32::new(0));
            let input = {
                let calls = Arc::clone(&calls);
                Shared::new(move || {
                    if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("first build fails");
                    }
                    vec![1u64, 2, 3]
                })
            };
            let (a, b) = (input.claim(), input.claim());
            assert!(catch_unwind(AssertUnwindSafe(|| a.take())).is_err());
            // The poisoned lock is recovered and the failed take consumed
            // nothing: the next take builds again and both claims share it.
            let got = a.take();
            assert_eq!(*got, vec![1, 2, 3]);
            assert!(Arc::ptr_eq(&got, &b.take()));
            assert_eq!(calls.load(Ordering::SeqCst), 2);
        }

        /// Probes and counters a [`shared_plan`] run reports into.
        #[derive(Default)]
        struct Watch {
            builds: Arc<AtomicU32>,
            probes: Arc<Mutex<Vec<Weak<Vec<u64>>>>>,
        }

        impl Watch {
            fn builds(&self) -> u32 {
                self.builds.load(Ordering::SeqCst)
            }

            /// Every copy any cell saw is gone.
            fn all_released(&self) -> bool {
                self.probes
                    .lock()
                    .expect("probes")
                    .iter()
                    .all(|p| p.upgrade().is_none())
            }
        }

        const SHARED_CELLS: u64 = 6;

        /// A plan whose cells all read one shared input. Each row holds a
        /// value of the input and the cell index. Cell `flaky`, when given,
        /// panics after taking the input.
        fn shared_plan(watch: &Watch, flaky: Option<u64>) -> SweepPlan {
            let input = counted(&watch.builds);
            let mut b = PlanBuilder::new("shared");
            let mut ids = Vec::new();
            for i in 0..SHARED_CELLS {
                let claim = input.claim();
                let probes = Arc::clone(&watch.probes);
                ids.push(b.cell(format!("cell{i}"), move |_| {
                    let v = claim.take();
                    probes.lock().expect("probes").push(Arc::downgrade(&v));
                    if flaky == Some(i) {
                        panic!("flaky after take");
                    }
                    let value = (v.iter().sum::<u64>() * (i + 1)) as f64;
                    CellData::Rows {
                        rows: vec![Row::new(format!("cell{i}"), vec![value])],
                        sim_cycles: i,
                    }
                }));
            }
            b.merge(move |o| {
                let mut fig = Figure::new("shared", "shared input", vec!["v"]);
                for &i in &ids {
                    if let Some(rows) = o.rows(i) {
                        fig.rows.extend(rows.iter().cloned());
                    }
                }
                fig
            })
        }

        fn clean_bytes() -> String {
            let watch = Watch::default();
            let (figs, _) = run_plans_opts(vec![shared_plan(&watch, None)], &RunOpts::new(1, 11));
            assert_eq!(watch.builds(), 1, "built once per plan run");
            assert!(watch.all_released(), "no input outlives its plan run");
            figs[0].to_json()
        }

        #[test]
        fn each_plan_run_builds_its_input_once_at_any_jobs() {
            let clean = clean_bytes();
            for jobs in [2, 4] {
                let watch = Watch::default();
                let (figs, _) =
                    run_plans_opts(vec![shared_plan(&watch, None)], &RunOpts::new(jobs, 11));
                assert_eq!(figs[0].to_json(), clean);
                assert_eq!(watch.builds(), 1, "jobs {jobs}");
                assert!(watch.all_released());
            }
        }

        #[test]
        fn a_failed_then_resumed_cell_renders_the_clean_bytes() {
            let clean = clean_bytes();
            // Flaky first cell: it fails holding the copy the others read.
            // Flaky last cell: it fails after its take released the copy.
            // Either way the resumed run re-runs only that cell and builds
            // the input for it alone: the replayed cells dropped their
            // claims unexecuted.
            for flaky in [0, SHARED_CELLS - 1] {
                let path = tmp("shared-flaky");
                let journaled = RunOpts {
                    journal: Some(path.clone()),
                    ..RunOpts::new(1, 11)
                };
                let failing = Watch::default();
                let (_, report) =
                    run_plans_opts(vec![shared_plan(&failing, Some(flaky))], &journaled);
                assert_eq!(report.failures().count(), 1, "flaky cell {flaky}");
                assert_eq!(failing.builds(), 1, "flaky cell {flaky}");
                assert!(failing.all_released());
                let watch = Watch::default();
                let resume = RunOpts {
                    resume: true,
                    ..journaled
                };
                let (figs, report) = run_plans_opts(vec![shared_plan(&watch, None)], &resume);
                assert_eq!(report.resumed_cells as u64, SHARED_CELLS - 1);
                assert!(report.cells.iter().all(|c| c.ok));
                assert!(!report.cells[flaky as usize].cached);
                assert_eq!(figs[0].to_json(), clean, "flaky cell {flaky}");
                assert_eq!(watch.builds(), 1, "flaky cell {flaky}");
                assert!(watch.all_released());
                std::fs::remove_file(&path).ok();
            }
        }

        #[test]
        fn a_resumed_run_renders_the_clean_bytes() {
            let clean = clean_bytes();
            let path = tmp("shared");
            // A full journaled run, then a journal that holds only its
            // first half — an interrupted run.
            let full = RunOpts {
                journal: Some(path.clone()),
                ..RunOpts::new(1, 11)
            };
            let _ = run_plans_opts(vec![shared_plan(&Watch::default(), None)], &full);
            let salt = store::code_salt();
            let half = (SHARED_CELLS / 2) as usize;
            rewrite_store(&path, (salt, salt), &full, "shared", 0..half);
            let watch = Watch::default();
            let resume = RunOpts {
                resume: true,
                ..full
            };
            let (figs, report) = run_plans_opts(vec![shared_plan(&watch, None)], &resume);
            assert_eq!(report.resumed_cells as u64, SHARED_CELLS / 2);
            assert_eq!(figs[0].to_json(), clean);
            // The replayed cells never ran and never took their claims;
            // the rest built the input once, and it is gone with the plan.
            assert_eq!(
                watch.probes.lock().expect("probes").len() as u64,
                SHARED_CELLS / 2
            );
            assert_eq!(watch.builds(), 1);
            assert!(watch.all_released());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn stream_ids_are_distinct_across_figures_and_cells() {
        let mut seen = std::collections::BTreeSet::new();
        for f in ["fig4", "fig6", "fig12", "fig13"] {
            for i in 0..128 {
                assert!(seen.insert(stream_id(f, i)), "collision at {f}/{i}");
            }
        }
    }
}
