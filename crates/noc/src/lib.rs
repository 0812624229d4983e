//! Mesh network-on-chip model for the Affinity Alloc reproduction.
//!
//! The paper's machine (Table 2) connects 64 tiles with an 8×8 mesh of
//! 32 B/cycle bidirectional links, 5-stage routers and X-Y dimension-ordered
//! routing. This crate provides:
//!
//! * [`topology::Topology`] — tile coordinates, Manhattan distance and X-Y
//!   route enumeration,
//! * [`traffic`] — per-message traffic accounting split by the paper's three
//!   classes (**Offload**, **Data**, **Control**, the legend of Figs 4/6/12/13),
//! * [`cyclesim`] — a flit-level cycle-driven simulation with finite router
//!   buffers, round-robin arbitration and backpressure, the one packet-level
//!   reference the analytic bottleneck timing model is checked against.
//!
//! # Example
//!
//! ```
//! use aff_noc::topology::Topology;
//!
//! let topo = Topology::new(8, 8);
//! // Fig 5(a): vertex in bank 0's line, edge in bank 19's line on an 8x8 mesh.
//! assert_eq!(topo.manhattan(19, 0), topo.manhattan(0, 19));
//! ```

pub mod cyclesim;
pub mod fault_route;
pub mod topology;
pub mod traffic;

pub use fault_route::{FaultRoute, FaultRouter, LIMP_COST};
pub use topology::{AxisHops, BankId, Coord, Topology};
pub use traffic::{TrafficClass, TrafficMatrix};
