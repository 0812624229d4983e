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
//! The workloads' `SystemConfig` selects where computation runs: at the
//! cores (`In-Core`) or at the L3 stream engines (`Near-L3`, `Aff-Alloc`).
//! Data *layout* is orthogonal: the same near-L3 executor runs over naïve or
//! affinity-allocated layouts — that separation is exactly the paper's point.

pub mod engine;
pub mod occupancy;

pub use engine::{CycleBreakdown, Metrics, SimEngine};
pub use occupancy::OccupancyTimeline;
