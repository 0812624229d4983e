//! Near-stream computing (NSC) — the paper's baseline near-data-computing
//! substrate (§2, from Wang et al., HPCA '22).
//!
//! NSC decomposes kernels into *streams* — long-term access patterns (affine
//! `A[i]`, indirect `A[B[i]]`, pointer-chasing `p = p->next`, atomics) — that
//! either run at the core (`In-Core`) or are offloaded to stream engines at
//! the L3 banks (`Near-L3`), migrating bank-to-bank along the data layout.
//!
//! The crate provides:
//!
//! * [`engine::SimEngine`] — the accounting/timing engine every workload
//!   executes against: it attributes each simulated message to a traffic
//!   class, charges bank/link/DRAM/compute time, and finally produces
//!   [`engine::Metrics`],
//! * [`occupancy`] — per-bank atomic-stream occupancy timelines (Fig 14).
//!
//! # Execution modes
//!
//! [`ExecMode`] selects where computation runs. Data *layout* is orthogonal:
//! the same `NearL3` executor runs over naïve or affinity-allocated layouts —
//! that separation is exactly the paper's point.

pub mod engine;
pub mod occupancy;

pub use engine::{CycleBreakdown, Metrics, SimEngine};
pub use occupancy::OccupancyTimeline;

/// Where computation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Conventional execution: all computation at the cores, all data over
    /// the NoC to private caches (the paper's `In-Core` baseline).
    InCore,
    /// Near-stream computing: streams offloaded to the L3 stream engines
    /// (the paper's `Near-L3` baseline, and — combined with affinity-
    /// allocated layouts — its `Aff-Alloc` configuration).
    NearL3,
}

impl ExecMode {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::InCore => "In-Core",
            ExecMode::NearL3 => "Near-L3",
        }
    }
}
