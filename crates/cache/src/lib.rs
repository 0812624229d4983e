//! Cache hierarchy model: shared static-NUCA L3 banks and DRAM at the mesh
//! corners (Table 2 of the paper).
//!
//! This crate is deliberately *accounting-centric*: the stream executors in
//! `aff-nsc` decide which bank every access goes to (that is the whole point
//! of the paper); this crate answers the follow-on questions —
//!
//! * how busy is each bank ([`bank::BankCounters`]),
//! * what fraction of a working set misses in the L3
//!   ([`capacity::miss_rate`], the thrash-resistant RRIP-style model behind
//!   Figs 15/16),
//! * what do the misses cost at the DRAM controllers ([`dram::DramModel`]).

pub mod bank;
pub mod capacity;
pub mod dram;
pub mod lanes;
pub mod spare;

pub use bank::BankCounters;
pub use capacity::miss_rate;
pub use dram::DramModel;
pub use spare::SpareMap;
