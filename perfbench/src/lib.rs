//! The repository benchmark: named workloads run through the public entry
//! points users call, end-to-end metrics from untraced runs, per-layer
//! host-time attribution from a separate traced run. See `README.md`.

pub mod churn;
pub mod host;
pub mod report;
pub mod sweep;
pub mod trace;

use report::Report;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Passes every untraced run makes however short `--seconds` is, so no
/// median rests on a single pass.
pub const MIN_PASSES: usize = 2;

/// Seed of the default run; `results_scaled.txt` was rendered with it.
pub const DEFAULT_SEED: u64 = sweep::GOLDEN_SEED;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 12 cell set.
    Table3,
    /// The Fig 16 cell set.
    GraphScale,
    /// The multi-tenant allocator service under a closed request loop.
    AllocChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Table3, Workload::GraphScale, Workload::AllocChurn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::GraphScale => "graph-scale",
            Workload::AllocChurn => "alloc-churn",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Root of the repository checkout the benchmark was built from.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A per-process scratch directory inside the checkout (journals, memo
/// stores), removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `.bench_run/<pid>-<n>` under the checkout root, `n` counting
    /// the scratch directories this process has made.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new() -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = checkout_root()
            .join(".bench_run")
            .join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `workload` for about `seconds` (untraced) or once through the traced
/// run, returning its report and, when traced, the trace file's contents.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Scratch,
) -> (Report, Option<String>) {
    let threads = host::worker_threads();
    let dir = scratch.path();
    match (workload, traced) {
        (Workload::Table3 | Workload::GraphScale, false) => (
            sweep::run(sweep_of(workload), seed, seconds, threads, dir),
            None,
        ),
        (Workload::Table3 | Workload::GraphScale, true) => {
            let (r, tr) = sweep::traced(sweep_of(workload), seed, threads, dir);
            (r, Some(tr.to_chrome_json(&[])))
        }
        (Workload::AllocChurn, false) => (churn::run(seed, seconds, threads), None),
        (Workload::AllocChurn, true) => {
            let (r, tr) = churn::traced(seed, threads);
            // Per-request spans feed the latency metrics; the file keeps the
            // client spans only, so it stays small.
            let requests = ["core.malloc_aff", "core.malloc_aff_affine", "core.free_aff"];
            (r, Some(tr.to_chrome_json(&requests)))
        }
    }
}

fn sweep_of(w: Workload) -> sweep::Sweep {
    match w {
        Workload::Table3 => sweep::Sweep::Table3,
        _ => sweep::Sweep::GraphScale,
    }
}
