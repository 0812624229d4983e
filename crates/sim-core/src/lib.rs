//! Core simulation primitives for the Affinity Alloc (MICRO '23) reproduction.
//!
//! This crate hosts everything the rest of the stack agrees on:
//!
//! * [`config::MachineConfig`] — the simulated machine (Table 2 of the paper),
//! * [`energy`] — a McPAT-substitute per-event energy model,
//! * [`stats`] — summary statistics used by the evaluation harness,
//! * [`rng`] — deterministic random number generation so every experiment is
//!   reproducible bit-for-bit,
//! * [`trace`] — the typed [`trace::Event`] vocabulary and [`trace::Recorder`]
//!   sink every component reports through (Chrome `trace_event` export).
//!
//! # Example
//!
//! ```
//! use aff_sim_core::config::MachineConfig;
//!
//! let m = MachineConfig::paper_default();
//! assert_eq!(m.num_banks(), 64);
//! assert_eq!(m.mesh_x * m.mesh_y, 64);
//! ```

pub mod config;
pub mod energy;
pub mod error;
pub mod fault;
pub mod mine;
pub mod rng;
pub mod stats;
pub mod tenant;
pub mod trace;

pub use config::MachineConfig;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::{BudgetKind, RunBudget, SimError, StallSnapshot};
pub use fault::{DegradationReport, FaultPlan, FaultPlanError, FaultSpec, LinkRef};
pub use tenant::{jain_fairness, RetryPolicy, TenantId, TenantSpec, TenantUsage};
pub use trace::{Event, NullRecorder, Recorder, TraceRecorder, TrafficClass};

/// A simulated cycle count.
pub type Cycles = u64;

/// A count of bytes.
pub type ByteCount = u64;
