//! The evaluation harness: one sweep plan per figure of the paper and per
//! design ablation, run by the `figures` binary.
//!
//! Each plan in [`figures`] (`plan_figure(id, opts)`) runs the simulated
//! experiments and merges them into a [`report::Figure`] — labeled rows of
//! named series — which renders to the same table/series the paper plots.
//! EXPERIMENTS.md records the paper-vs-measured comparison produced by
//! `cargo run --release -p aff-bench --bin figures -- all`.

pub mod figures;
pub mod inference;
pub mod report;
pub mod store;
pub mod sweep;
pub mod tenants;

pub use report::{CellStat, Figure, Row, SweepReport};
pub use sweep::{run_plans_opts, RunOpts, SweepPlan};
