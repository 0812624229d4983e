//! Virtual memory, interleave pools and the Interleave Override Table (IOT)
//! — the OS + microarchitecture layers of affinity alloc (§4.1 of the paper).
//!
//! The pieces:
//!
//! * [`addr`] — `VAddr`/`PAddr` newtypes,
//! * [`iot::Iot`] — the per-controller table overriding the L3 interleave for
//!   physical ranges (Table 1),
//! * [`pool::PoolManager`] — reserved virtual segments per interleave size,
//!   backed by contiguous physical pages, expandable like `brk` (the
//!   emulated syscall),
//! * [`space::AddressSpace`] — the facade combining all of the above plus a
//!   conventional heap with linear or random page mapping (the paper's
//!   "Random" layout in Fig 4 maps each virtual page to a random physical
//!   page).
//!
//! # Example
//!
//! ```
//! use aff_mem::space::AddressSpace;
//! use aff_sim_core::config::MachineConfig;
//!
//! let mut space = AddressSpace::new(MachineConfig::paper_default());
//! let pool = space.pool_for_interleave(64).unwrap();
//! let va = space.pool_alloc_at(pool, 0, 64 * 64).unwrap(); // start at bank 0
//! assert_eq!(space.bank_of(va), 0);
//! assert_eq!(space.bank_of(va + 64), 1); // next line, next bank
//! ```

pub mod addr;
pub mod iot;
pub mod pool;
pub mod space;

pub use addr::{PAddr, VAddr};
pub use iot::Iot;
pub use pool::{PoolId, PoolManager};
pub use space::AddressSpace;
